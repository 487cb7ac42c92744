//! The local-reduction kernel abstraction and backend selection.
//!
//! The paper's FREERIDE calls the generated C code through a
//! `reduction_t` function pointer. This module is that seam in the Rust
//! reproduction: the engine dispatches every split through a
//! [`SplitKernel`] trait object, so a kernel can be a plain closure (the
//! manual-FR applications), the interpreted kernel VM (`cfr-core`'s
//! `KernelRuntime`), or a natively compiled kernel loaded from a cdylib
//! (`cfr-codegen`). Which of the latter two a translated job uses is
//! selected by [`KernelBackend`] on `JobConfig`.

use crate::split::Split;
use crate::sync::RObjHandle;
use obs::Recorder;

/// A local-reduction kernel: processes every row of one split,
/// accumulating into the reduction object — the paper's `reduction_t`
/// called through a function pointer.
///
/// Blanket-implemented for closures, so hand-written kernels keep their
/// `|split, robj| …` shape; the engine dispatches through `&dyn
/// SplitKernel` (or a monomorphized `&K`) either way.
pub trait SplitKernel: Send + Sync {
    /// Process one split, folding each row into `robj`.
    fn run_split(&self, split: &Split<'_>, robj: &mut dyn RObjHandle);

    /// Record, after a traced pass, the evidence for any choice this
    /// kernel made while running its splits (a compiled kernel records
    /// which reduction-object update path it took). Nothing by default.
    fn record_pass(&self, _recorder: &Recorder) {}
}

impl<F> SplitKernel for F
where
    F: Fn(&Split<'_>, &mut dyn RObjHandle) + Send + Sync,
{
    #[inline]
    fn run_split(&self, split: &Split<'_>, robj: &mut dyn RObjHandle) {
        self(split, robj)
    }
}

/// How a *translated* job executes its compiled kernel bytecode.
///
/// Manual closure kernels ignore this — it configures the seam between
/// the kernel IR and the engine:
///
/// * [`KernelBackend::Interpreted`] — the always-correct reference
///   path: the kernel VM walks the bytecode per row.
/// * [`KernelBackend::Compiled`] — the escape hatch: the bytecode is
///   lowered to Rust source, compiled once per program by `rustc` into
///   a process-wide cache, and the split loop runs natively. When no
///   codegen backend is installed (or `rustc` is unavailable, or the
///   kernel uses an unsupported shape), execution **falls back to the
///   interpreter** with a typed error recorded — never a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// Interpreted kernel VM (the reference path).
    #[default]
    Interpreted,
    /// Natively compiled kernel, with automatic interpreter fallback.
    Compiled,
}

impl KernelBackend {
    /// Stable wire/cache encoding (0 = interpreted, 1 = compiled).
    pub fn to_wire(self) -> u8 {
        match self {
            KernelBackend::Interpreted => 0,
            KernelBackend::Compiled => 1,
        }
    }

    /// Decode the wire byte; `None` for a byte no backend has, so a
    /// corrupt or skewed peer never runs on a fallback.
    pub fn from_wire(b: u8) -> Option<KernelBackend> {
        match b {
            0 => Some(KernelBackend::Interpreted),
            1 => Some(KernelBackend::Compiled),
            _ => None,
        }
    }

    /// Human-readable label (trace attributes, tables).
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Interpreted => "interpreted",
            KernelBackend::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<KernelBackend, String> {
        match s {
            "interpreted" | "interp" => Ok(KernelBackend::Interpreted),
            "compiled" | "codegen" | "native" => Ok(KernelBackend::Compiled),
            other => Err(format!(
                "unknown kernel backend `{other}` (expected `interpreted` or `compiled`)"
            )),
        }
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        for b in [KernelBackend::Interpreted, KernelBackend::Compiled] {
            assert_eq!(KernelBackend::from_wire(b.to_wire()), Some(b));
        }
        // Unknown bytes name no backend.
        assert_eq!(KernelBackend::from_wire(0xff), None);
    }

    #[test]
    fn parse_labels() {
        assert_eq!(
            "compiled".parse::<KernelBackend>().unwrap(),
            KernelBackend::Compiled
        );
        assert_eq!(
            "interpreted".parse::<KernelBackend>().unwrap(),
            KernelBackend::Interpreted
        );
        assert!("jit".parse::<KernelBackend>().is_err());
    }

    #[test]
    fn closures_are_split_kernels() {
        fn assert_kernel<K: SplitKernel>(_k: &K) {}
        let k = |_s: &Split<'_>, _r: &mut dyn RObjHandle| {};
        assert_kernel(&k);
    }
}

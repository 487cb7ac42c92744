//! The compile-and-cache driver: emitted source → cached cdylib →
//! resolved kernel function.
//!
//! Two cache layers:
//!
//! * **In-memory, process-wide** — `Arc<LoadedKernel>` keyed by the
//!   FNV-1a hash of the emitted source. Iterative drivers (k-means
//!   rebuilds its runtime every outer iteration) and `cfr-serve`'s
//!   repeat submissions hit this layer; instantiation is then just an
//!   `Arc` clone plus fresh state.
//! * **On disk** — `$CFR_CODEGEN_DIR` (default
//!   `$TMPDIR/cfr-codegen-<uid>`), artifact `k<hash16>.so` next to its
//!   `k<hash16>.rs` source. A pre-existing artifact skips `rustc`
//!   entirely; compilation writes to a per-process temp name and
//!   `rename`s into place so concurrent processes race benignly.
//!   Threads of one process share that temp name, so first compiles
//!   are serialized in-process.
//!
//! Observability: spans `codegen.emit`, `codegen.compile`,
//! `codegen.load` on the pipeline track; counters
//! `core.codegen_compile` (rustc actually ran) and
//! `core.codegen_cache_hit` (disk or memory hit).

use cfr_core::{CodegenError, Kernel};
use freeride::{fnv1a64, Recorder, TraceLevel};
use obs::AttrValue;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::dylib::Dylib;
use crate::emit::{emit_kernel, NestedSite, KERNEL_SYMBOL};

/// The raw kernel entry point resolved from a compiled cdylib
/// (ABI v1 — see the emitted source header).
pub type KernelFn = unsafe extern "C-unwind" fn(
    rows: *const f64,
    rows_len: usize,
    row_count: usize,
    first_row: usize,
    row_lo: i64,
    flat: *const crate::runtime::FlatView,
    n_flat: usize,
    ctx: *mut u8,
    accumulate: extern "C-unwind" fn(*mut u8, usize, usize, f64),
    nested_load: extern "C-unwind" fn(*mut u8, usize, *const f64, usize) -> f64,
);

/// A compiled, loaded, ready-to-bind kernel. Immutable and shared:
/// per-job state lives in `CompiledKernelRuntime`, not here.
pub struct LoadedKernel {
    /// Keeps the mapping alive (never unloaded; see [`Dylib`]).
    #[allow(dead_code)]
    lib: Dylib,
    /// The resolved `cfr_kernel_split`.
    pub func: KernelFn,
    /// Host-side table for the `nested_load` callback.
    pub sites: Vec<NestedSite>,
    /// FNV-1a hash of the emitted source (the cache key).
    pub source_hash: u64,
}

fn memory_cache() -> &'static Mutex<HashMap<u64, Arc<LoadedKernel>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<LoadedKernel>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The artifact cache directory: `$CFR_CODEGEN_DIR`, or a per-user
/// subdirectory of the system temp dir.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CFR_CODEGEN_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let mut dir = std::env::temp_dir();
    dir.push("cfr-codegen");
    dir
}

/// The `rustc` to invoke: `$CFR_RUSTC` override, else `rustc` from
/// `PATH`.
fn rustc_path() -> String {
    std::env::var("CFR_RUSTC").unwrap_or_else(|_| "rustc".to_string())
}

/// Is a working `rustc` reachable? (Used by smoke tests and `ci.sh` to
/// skip cleanly rather than exercise the fallback path by accident.)
pub fn rustc_available() -> bool {
    Command::new(rustc_path())
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .is_ok_and(|ok| ok)
}

fn span(
    rec: Option<&Recorder>,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
) {
    if let Some(r) = rec {
        r.push_complete(
            TraceLevel::Phases,
            name,
            "pipeline",
            0,
            r.offset_ns(start),
            start.elapsed().as_nanos() as u64,
            attrs,
        );
    }
}

/// Emit, compile (or fetch from cache), load, and resolve `kernel`.
pub fn load_or_compile(
    kernel: &Kernel,
    recorder: Option<&Recorder>,
) -> Result<Arc<LoadedKernel>, CodegenError> {
    // ---- Emit. ----
    let emit_start = Instant::now();
    let emitted = emit_kernel(kernel)?;
    let hash = fnv1a64(emitted.source.as_bytes());
    span(
        recorder,
        "codegen.emit",
        emit_start,
        vec![
            ("instrs", AttrValue::Int(kernel.code.len() as i64)),
            ("source_bytes", AttrValue::Int(emitted.source.len() as i64)),
        ],
    );

    // ---- Memory cache. ----
    if let Some(hit) = memory_cache().lock().unwrap().get(&hash) {
        if let Some(r) = recorder {
            r.add_counter("core.codegen_cache_hit", 1);
        }
        return Ok(hit.clone());
    }

    // ---- Disk cache / compile. ----
    let dir = cache_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| CodegenError::Io(format!("create {}: {e}", dir.display())))?;
    let artifact = dir.join(format!("k{hash:016x}.so"));
    // Two threads compiling the same fresh kernel (two loopback nodes
    // on a cold cache) would both write the pid-named temp artifact
    // and one would load garbage or fail; the loser of this lock finds
    // the winner's artifact on disk instead.
    static FIRST_COMPILE: Mutex<()> = Mutex::new(());
    let compiling = FIRST_COMPILE.lock().unwrap_or_else(|e| e.into_inner());
    if artifact.exists() {
        if let Some(r) = recorder {
            r.add_counter("core.codegen_cache_hit", 1);
        }
    } else {
        let src_path = dir.join(format!("k{hash:016x}.rs"));
        std::fs::write(&src_path, &emitted.source)
            .map_err(|e| CodegenError::Io(format!("write {}: {e}", src_path.display())))?;
        let tmp = dir.join(format!("k{hash:016x}.{}.tmp.so", std::process::id()));
        let compile_start = Instant::now();
        let out = Command::new(rustc_path())
            .arg("--edition")
            .arg("2021")
            .arg("--crate-type")
            .arg("cdylib")
            .arg("--crate-name")
            .arg("cfr_kernel")
            .arg("-C")
            .arg("opt-level=3")
            .arg("-C")
            .arg("codegen-units=1")
            .arg("-o")
            .arg(&tmp)
            .arg(&src_path)
            .output()
            .map_err(|e| CodegenError::RustcUnavailable(format!("{}: {e}", rustc_path())))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&tmp);
            return Err(CodegenError::Compile {
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            });
        }
        // Atomic publish; losing a race to another process is fine.
        if std::fs::rename(&tmp, &artifact).is_err() && !artifact.exists() {
            return Err(CodegenError::Io(format!(
                "publish {} failed",
                artifact.display()
            )));
        }
        span(
            recorder,
            "codegen.compile",
            compile_start,
            vec![("source_bytes", AttrValue::Int(emitted.source.len() as i64))],
        );
        if let Some(r) = recorder {
            r.add_counter("core.codegen_compile", 1);
        }
    }
    drop(compiling);

    // ---- Load + resolve. ----
    let load_start = Instant::now();
    let lib = Dylib::open(&artifact)?;
    let sym = lib.symbol(KERNEL_SYMBOL)?;
    // SAFETY: the artifact was produced from our own emitted source,
    // whose exported function has exactly the `KernelFn` signature.
    let func: KernelFn = unsafe { std::mem::transmute(sym) };
    span(recorder, "codegen.load", load_start, Vec::new());

    let loaded = Arc::new(LoadedKernel {
        lib,
        func,
        sites: emitted.sites,
        source_hash: hash,
    });
    memory_cache().lock().unwrap().insert(hash, loaded.clone());
    Ok(loaded)
}

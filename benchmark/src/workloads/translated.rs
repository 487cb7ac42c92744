//! The compile half of the translated workloads, stage by stage through
//! the public functions: parse → analyze → detect → `compile_loop`,
//! then `load_or_compile`, each timed from outside.

use std::collections::BTreeMap;

use cfr_core::{compile_loop, detect, CompiledLoop, CoreError, Detected, OptLevel};
use chapel_frontend::ast::Program;

use super::*;
use crate::trace::{maybe, At};

/// A program parsed, analyzed and its reduction loops compiled at
/// opt-2.
pub struct Front {
    pub program: Program,
    /// The offloaded reduction loops by top-level statement index.
    pub loops: BTreeMap<usize, CompiledLoop>,
    parse_ms: f64,
    analyze_ms: f64,
    compile_ms: f64,
}

pub fn front(src: &str, at: At<'_>) -> Res<Front> {
    let (program, parse_s) = timed(|| maybe(at, "frontend.parse", |_| chapel_frontend::parse(src)));
    let program = program?;
    let (analysis, analyze_s) =
        timed(|| maybe(at, "sema.analyze", |_| chapel_sema::analyze(&program)));
    let analysis = analysis.map_err(|errors| format!("{errors:?}"))?;
    let (loops, compile_s) = timed(|| {
        maybe(at, "core.compile", |_| -> Res<_> {
            let detection = detect(&program, &analysis);
            let mut loops = BTreeMap::new();
            for (&i, found) in &detection.detected {
                let Detected::Loop(red) = found else {
                    return Err(format!("statement {i}: only reduction loops are staged").into());
                };
                match compile_loop(&program, &analysis, red, OptLevel::Opt2) {
                    Ok(c) => {
                        loops.insert(i, c);
                    }
                    // Stays on the interpreter, as in `Translator::compile_program`.
                    Err(CoreError::Translate(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(loops)
        })
    });
    Ok(Front {
        program,
        loops: loops?,
        parse_ms: parse_s * 1e3,
        analyze_ms: analyze_s * 1e3,
        compile_ms: compile_s * 1e3,
    })
}

/// What loading the kernels natively cost, summed over the loops.
pub struct KernelTimes {
    emit_ms: f64,
    cold_compile_ms: f64,
    load_ms: f64,
}

impl Front {
    /// Emit, compile and load every kernel. The first `load_or_compile`
    /// of a kernel, in a process whose `CFR_CODEGEN_DIR` is fresh, is
    /// the cold `rustc` compile; the second is the warm cache hit every
    /// later job pays.
    pub fn load_kernels(&self) -> Res<KernelTimes> {
        let mut t = KernelTimes {
            emit_ms: 0.0,
            cold_compile_ms: 0.0,
            load_ms: 0.0,
        };
        for c in self.loops.values() {
            let (emitted, s) = timed(|| cfr_codegen::emit_kernel(&c.kernel));
            emitted?;
            t.emit_ms += s * 1e3;
            let (cold, s) = timed(|| cfr_codegen::load_or_compile(&c.kernel, None));
            cold?;
            t.cold_compile_ms += s * 1e3;
            let (warm, s) = timed(|| cfr_codegen::load_or_compile(&c.kernel, None));
            warm?;
            t.load_ms += s * 1e3;
        }
        Ok(t)
    }

    pub fn report(&self, kernels: &KernelTimes, m: &mut Metrics) {
        m.set("frontend.parse_ms", self.parse_ms);
        m.set("sema.analyze_ms", self.analyze_ms);
        m.set("core.compile_ms", self.compile_ms);
        let instrs: usize = self.loops.values().map(|c| c.kernel.code.len()).sum();
        m.set("core.kernel_instrs", instrs as f64);
        m.set("codegen.emit_ms", kernels.emit_ms);
        m.set("codegen.cold_compile_ms", kernels.cold_compile_ms);
        m.set("codegen.load_ms", kernels.load_ms);
    }
}

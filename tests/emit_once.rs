//! Each kernel of a compiled program is emitted once: the compiled
//! backend compiles a `CompiledLoop`'s native kernel on first use and
//! every later pass only binds state to it. Counted by `codegen.emit`
//! spans on a Phases trace, with a fresh `CFR_CODEGEN_DIR` for the whole
//! test binary.
//!
//! Skips (with a notice) when `rustc` is unavailable: the compiled
//! backend then falls back to the interpreter and emits nothing.

use std::sync::Arc;

use chapel_freeride::cfr_apps::kmeans::{self, KmeansParams};
use chapel_freeride::cfr_apps::Version;
use chapel_freeride::cfr_codegen;
use chapel_freeride::cfr_core::{OptLevel, Translator};
use chapel_freeride::freeride::{KernelBackend, Recorder, TraceLevel};

#[test]
fn compiled_programs_emit_each_kernel_once() {
    let dir = std::env::temp_dir().join(format!("cfr-emit-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("CFR_CODEGEN_DIR", &dir);
    cfr_codegen::install();
    if !cfr_codegen::rustc_available() {
        eprintln!("skipping: rustc unavailable — compiled backend falls back to interpreter");
        return;
    }

    // The PCA program's two offloaded loops (mean, covariance) are each
    // emitted once, not once when the program compiles and again when
    // each job binds its state.
    let rec = Arc::new(Recorder::new(TraceLevel::Phases));
    let run = Translator::new(OptLevel::Opt2, 2)
        .backend(KernelBackend::Compiled)
        .traced(rec.clone())
        .run_program(include_str!("../examples/pca.chpl"))
        .expect("compiled PCA run");
    assert_eq!(run.jobs.len(), 2);
    assert!(run
        .jobs
        .iter()
        .all(|j| j.backend == KernelBackend::Compiled));
    assert_eq!(rec.drain().count("codegen.emit"), 2, "PCA program");

    // Three k-means iterations bind three passes' centroids to one
    // kernel emitted once.
    let mut params = KmeansParams::new(300, 3, 4, 3).threads(2);
    params.config.backend = KernelBackend::Compiled;
    params.config.trace = TraceLevel::Phases;
    let r = kmeans::run(&params, Version::Opt2).expect("compiled k-means");
    let trace = r.timing.trace.expect("trace requested but not captured");
    assert_eq!(trace.count("pass"), 3);
    assert_eq!(trace.count("codegen.emit"), 1, "3-iteration k-means");

    let _ = std::fs::remove_dir_all(&dir);
}

//! A generated or opt-1 kernel walks nested state, which the compiled
//! backend does not bind: requested `Compiled`, its job runs on the
//! interpreter with a recorded `Unsupported` fallback, before `rustc`
//! runs. This is its own test binary because it points
//! `CFR_CODEGEN_DIR` at a fresh directory for the whole process.

use std::sync::Arc;

use cfr_core::{CodegenError, OptLevel, Translator};
use chapel_frontend::programs;
use freeride::{KernelBackend, Recorder, TraceLevel};

#[test]
fn opt1_state_reads_fall_back_before_rustc_runs() {
    let dir = std::env::temp_dir().join(format!("cfr-nested-fallback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("CFR_CODEGEN_DIR", &dir);
    cfr_codegen::install();

    // One offloaded loop, which reads the centroids as state.
    let src = programs::kmeans(60, 4, 3);
    let base = Translator::new(OptLevel::Opt1, 2)
        .run_program(&src)
        .expect("interpreted run");
    let rec = Arc::new(Recorder::new(TraceLevel::Phases));
    let run = Translator::new(OptLevel::Opt1, 2)
        .backend(KernelBackend::Compiled)
        .traced(rec.clone())
        .run_program(&src)
        .expect("compiled request");

    assert_eq!(run.jobs.len(), 1);
    assert_eq!(run.jobs[0].backend, KernelBackend::Interpreted);
    assert!(
        matches!(run.jobs[0].fallback, Some(CodegenError::Unsupported(_))),
        "{:?}",
        run.jobs[0].fallback
    );
    let trace = rec.drain();
    assert_eq!(trace.count("codegen.fallback"), 1);
    assert_eq!(trace.count("codegen.compile"), 0);

    let cells = |r: &cfr_core::TranslatedRun| {
        let v = r.global("newCent").unwrap().to_linear().unwrap();
        format!("{v:?}")
    };
    assert_eq!(cells(&run), cells(&base));

    let artifacts = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    assert_eq!(artifacts, 0, "no artifact in {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
}

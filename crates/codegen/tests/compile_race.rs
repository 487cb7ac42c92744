//! Cold-cache race regression: threads of one process compiling the
//! same fresh kernel into a fresh cache directory — what two loopback
//! node threads do on a cold `CFR_CODEGEN_DIR` — must compile it once
//! and all load the same artifact. They used to write one shared
//! pid-named temp file, and the loser fell back to the interpreter.
//!
//! Alone in its test binary because it points `CFR_CODEGEN_DIR`, a
//! process-wide setting, at its own directory.

use std::sync::Barrier;

use cfr_codegen::{load_or_compile, rustc_available};
use cfr_core::{Instr, Kernel};
use linearize::PathMeta;
use obs::{Recorder, TraceLevel};

#[test]
fn concurrent_first_compiles_of_one_kernel_compile_once() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable — compiled backend cannot be exercised");
        return;
    }
    let mut dir = std::env::temp_dir();
    dir.push(format!("cfr-codegen-race-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("CFR_CODEGEN_DIR", &dir);

    // out[0] += row[0] * 0.4821 — the constant keeps the source hash
    // apart from every other test's kernels.
    let kernel = Kernel {
        code: vec![
            Instr::Const { dst: 3, val: 0.0 },
            Instr::Const {
                dst: 4,
                val: 0.4821,
            },
            Instr::LoadData {
                dst: 2,
                path: 0,
                idx: vec![0],
            },
            Instr::Fma { dst: 2, a: 2, b: 4 },
            Instr::Accumulate {
                group: 0,
                cell: 3,
                val: 2,
            },
            Instr::Halt,
        ],
        entry: 2,
        regs: 5,
        paths: vec![PathMeta {
            levels: 1,
            unit_size: vec![1],
            unit_offset: vec![vec![]],
            position: vec![vec![]],
            level_offset: vec![],
            terminal_offset: 0,
        }],
        state_names: vec![],
        out_names: vec!["out".into()],
    };

    const THREADS: usize = 4;
    let recorder = Recorder::new(TraceLevel::Phases);
    let start = Barrier::new(THREADS);
    let hashes: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    load_or_compile(&kernel, Some(&recorder)).map(|k| k.source_hash)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().expect("no thread may fail to compile"))
            .collect()
    });
    assert!(hashes.iter().all(|&h| h == hashes[0]), "{hashes:x?}");
    let counters = recorder.drain().counters;
    assert_eq!(
        counters.get("core.codegen_compile"),
        Some(&1),
        "{counters:?}"
    );
    assert_eq!(
        counters.get("core.codegen_cache_hit"),
        Some(&(THREADS as i64 - 1)),
        "{counters:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

//! Cross-crate integration tests: the full pipeline from Chapel source
//! through detection, linearization, FREERIDE execution, and write-back
//! — exercised through the public facade.

use chapel_freeride::{kmeans, parse, pca, programs, Interpreter, OptLevel, Translator, Version};

#[test]
fn fig2_class_parses_checks_and_reduces() {
    // The paper's Figure 2 sum class: parse, type-check, interpret both
    // sequentially and with the simulated-parallel combine.
    let src = format!(
        "{}\nvar A: [1..200] real;\nfor i in 1..200 {{ A[i] = i; }}\nvar total = SumReduceScanOp reduce A;",
        programs::FIG2_SUM_REDUCE_CLASS
    );
    let program = parse(&src).expect("parse");
    chapel_sema::analyze(&program).expect("sema");
    let interp = Interpreter::run_source(&src).expect("interp");
    assert_eq!(interp.global("total").unwrap().as_f64().unwrap(), 20100.0);
}

#[test]
fn fig8_loop_offloads_and_matches() {
    // Figure 8's nested sum: interpreter vs FREERIDE at all opt levels.
    let (t, n, m) = (8usize, 5usize, 4usize);
    let src = format!(
        "{}
        for i in 1..{t} {{
            for j in 1..{n} {{
                for k in 1..{m} {{
                    data[i].b1[j].a1[k] = i + 2 * j + 3 * k;
                }}
            }}
        }}
        var sum: real = 0.0;
        for i in 1..{t} {{
            for j in 1..{n} {{
                for k in 1..{m} {{
                    sum += data[i].b1[j].a1[k];
                }}
            }}
        }}",
        programs::fig6_records(t, n, m)
    );
    let oracle = Interpreter::run_source(&src).expect("interp");
    let expect = oracle.global("sum").unwrap().as_f64().unwrap();
    for opt in [OptLevel::Generated, OptLevel::Opt1, OptLevel::Opt2] {
        let run = Translator::new(opt, 2)
            .run_program(&src)
            .expect("translate");
        assert_eq!(run.jobs.len(), 1, "{opt:?}");
        let got = run.global("sum").unwrap().as_f64().unwrap();
        assert!((got - expect).abs() < 1e-9, "{opt:?}: {got} vs {expect}");
    }
}

#[test]
fn whole_kmeans_program_via_translator() {
    // The complete Figure 3 program (init loops interpreted, the
    // reduction loop offloaded), compared against pure interpretation.
    let src = programs::kmeans(60, 4, 3);
    let oracle = Interpreter::run_source(&src).expect("interp");
    let run = Translator::new(OptLevel::Opt2, 3)
        .run_program(&src)
        .expect("translate");
    assert_eq!(run.jobs.len(), 1);
    let a = oracle.global("newCent").unwrap().to_linear().unwrap();
    let b = run.global("newCent").unwrap().to_linear().unwrap();
    let la = chapel_freeride::Linearizer::new(&cfr_apps::data::kmeans_centroid_shape(4, 3))
        .linearize(&a)
        .unwrap()
        .buffer;
    let lb = chapel_freeride::Linearizer::new(&cfr_apps::data::kmeans_centroid_shape(4, 3))
        .linearize(&b)
        .unwrap()
        .buffer;
    for (x, y) in la.iter().zip(&lb) {
        assert!((x - y).abs() < 1e-9, "{x} vs {y}");
    }
}

#[test]
fn app_drivers_match_across_every_version_and_thread_count() {
    let params = kmeans::KmeansParams::new(150, 4, 5, 2);
    let reference = kmeans::run(&params, Version::Manual).expect("manual");
    for v in [Version::Generated, Version::Opt1, Version::Opt2] {
        for threads in [1usize, 2, 4] {
            let p = kmeans::KmeansParams::new(150, 4, 5, 2).threads(threads);
            let r = kmeans::run(&p, v).expect("run");
            for (a, b) in reference.centroids.iter().zip(&r.centroids) {
                assert!((a - b).abs() < 1e-9, "{} t={threads}", v.label());
            }
        }
    }
}

#[test]
fn pca_versions_match_at_multiple_sizes() {
    for (rows, cols) in [(3usize, 11usize), (7, 40), (12, 100)] {
        let params = pca::PcaParams::new(rows, cols).threads(2);
        let manual = pca::run(&params, Version::Manual).expect("manual");
        let opt2 = pca::run(&params, Version::Opt2).expect("opt2");
        for (a, b) in manual.cov.iter().zip(&opt2.cov) {
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "{rows}x{cols}");
        }
    }
}

#[test]
fn pca_program_matches_the_oracle_at_2000_samples() {
    // The oracle reads arrays in place, so it checks the translated
    // program at a size well past the engine's split granularity.
    let (rows, cols) = (16usize, 2000usize);
    let src = programs::pca(rows, cols);
    let oracle = Interpreter::run_source(&src).expect("interp");
    let run = Translator::new(OptLevel::Opt2, 2)
        .run_program(&src)
        .expect("translate");
    assert_eq!(run.jobs.len(), 2);
    // The means are sums of small integers, exact in any order.
    let mean = |g: &Interpreter| g.global("mean").unwrap().to_linear().unwrap();
    assert_eq!(mean(&oracle), mean(&run.interp));
    let cov = |g: &Interpreter| {
        chapel_freeride::linearize::linearize_it(&g.global("cov").unwrap().to_linear().unwrap())
    };
    let (want, got) = (cov(&oracle), cov(&run.interp));
    assert_eq!(want.len(), rows * rows);
    for (a, b) in want.iter().zip(&got) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }
}

#[test]
fn table1_api_surface_end_to_end() {
    // Table I, exercised as a complete manual application: splitter
    // (default), reduction, custom combination, finalize,
    // reduction_object_alloc, accumulate, get_intermediate_result.
    use chapel_freeride::{
        Application, CombineOp, GroupSpec, JobConfig, RObjHandle, Runtime, Split,
    };
    use std::sync::Arc;

    let mut rt = Runtime::initialize(JobConfig::with_threads(3));
    rt.reduction_object_alloc(vec![
        GroupSpec::new("sum", 4, CombineOp::Sum),
        GroupSpec::new("max", 1, CombineOp::Max),
    ]);
    rt.register(
        Application::new(Arc::new(|split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                robj.accumulate(0, row[0] as usize % 4, 1.0);
                robj.accumulate(1, 0, row[0]);
                // get_intermediate_result during the reduction:
                let _ = robj.get(1, 0);
            }
        }))
        .with_combination(Arc::new(|a, b| a.merge_from(b)))
        .with_finalize(Arc::new(|r| {
            let m = r.get(1, 0);
            r.set(1, 0, m + 0.5);
        })),
    );
    let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let out = rt.execute(&data, 1).expect("execute");
    let total: f64 = (0..4).map(|i| out.robj.get(0, i)).sum();
    assert_eq!(total, 100.0);
    assert_eq!(out.robj.get(1, 0), 99.5);
}

#[test]
fn translator_reports_are_complete() {
    let src = programs::pca(3, 12);
    let run = Translator::new(OptLevel::Opt1, 2)
        .run_program(&src)
        .expect("translate");
    assert_eq!(run.jobs.len(), 2, "both PCA phases offloaded");
    for job in &run.jobs {
        assert!(job.wall_ns > 0);
        assert!(job.linearize_ns > 0);
        assert!(!job.kind.is_empty());
    }
    // The normalization loop was rejected with a reason.
    assert!(run.skipped.iter().any(|r| r.reason.contains("Div")));
}

#[test]
fn facade_reexports_cover_the_workflow() {
    // Compile-time check that the facade exposes the documented types.
    use chapel_freeride::{
        AccessPath, CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjLayout, Shape,
        SyncScheme, Value,
    };
    let shape = Shape::array(Shape::Real, 4);
    let value = Value::from_fn(&shape, |i| i as f64);
    let lin = chapel_freeride::Linearizer::new(&shape)
        .linearize(&value)
        .unwrap();
    let pm = lin.meta.for_path(&AccessPath::direct(0)).unwrap();
    assert_eq!(lin.buffer[linearize::compute_index(&pm, &[2])], 2.0);

    let layout = RObjLayout::new(vec![GroupSpec::new("s", 1, CombineOp::Sum)]);
    let engine = Engine::new(JobConfig {
        threads: 2,
        scheme: SyncScheme::Atomic,
        ..Default::default()
    });
    let view = DataView::new(&lin.buffer, 1).unwrap();
    let out = engine.run(
        view,
        &layout,
        &|split: &chapel_freeride::Split<'_>, robj: &mut dyn chapel_freeride::RObjHandle| {
            for row in split.iter_rows() {
                robj.accumulate(0, 0, row[0]);
            }
        },
    );
    assert_eq!(out.robj.get(0, 0), 6.0);
}

/// A reduction that reads two scalar `var` globals, a `real` and an
/// `int`: state that opt-2 reads from one-slot flat buffers. Every
/// value is a multiple of 0.5, so its sums are exact in any order.
fn scalar_state_program(n: usize) -> String {
    format!(
        "
        var A: [1..{n}] real;
        for i in 1..{n} {{ A[i] = (i * 7) % 13; }}
        var shift: real = 2.5;
        var scale: int = 3;
        var total: real = 0.0;
        for i in 1..{n} {{
            total += (A[i] - shift) * scale;
        }}"
    )
}

#[test]
fn scalar_state_matches_the_oracle_on_both_backends() {
    use chapel_freeride::KernelBackend;
    let src = scalar_state_program(3000);
    let oracle = Interpreter::run_source(&src).expect("interp");
    let expect = oracle.global("total").unwrap().as_f64().unwrap();
    chapel_freeride::cfr_codegen::install();
    let mut backends = vec![KernelBackend::Interpreted];
    if chapel_freeride::cfr_codegen::rustc_available() {
        backends.push(KernelBackend::Compiled);
    } else {
        eprintln!("skipping the compiled leg: rustc unavailable");
    }
    for threads in [1, 3] {
        for &backend in &backends {
            let run = Translator::new(OptLevel::Opt2, threads)
                .backend(backend)
                .run_program(&src)
                .expect("translate");
            assert_eq!(run.jobs.len(), 1, "the loop is offloaded");
            assert_eq!(run.jobs[0].backend, backend, "{:?}", run.jobs[0].fallback);
            let got = run.global("total").unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), expect.to_bits(), "{backend} at {threads}");
        }
    }
}

/// Opt-2 reads state only from flat buffers: no kernel of any canned
/// program, nor of the scalar-state one, walks nested state.
#[test]
fn no_opt2_kernel_walks_nested_state() {
    use chapel_freeride::cfr_core::{compile_loop, compile_reduce_expr, Instr};
    use chapel_freeride::{detect, Detected};
    let sources = [
        format!(
            "{}\nvar A: [1..20] real;\nfor i in 1..20 {{ A[i] = i; }}\nvar total = SumReduceScanOp reduce A;",
            programs::FIG2_SUM_REDUCE_CLASS
        ),
        programs::fig8_nested_sum(4, 3, 2),
        programs::sum_reduce(20),
        programs::min_reduce_sum_expr(20),
        programs::kmeans(40, 4, 3),
        programs::pca(4, 12),
        programs::histogram(60, 8),
        programs::linear_regression(40),
        programs::sparse_kmeans(12, 8, 3, 3),
        programs::sparse_mttkrp([6, 5, 4], 30, 2, 3),
        programs::knn(30, 3, 4),
        scalar_state_program(40),
    ];
    let (mut kernels, mut state_reads) = (0, 0);
    for src in &sources {
        let program = parse(src).expect("parse");
        let analysis = chapel_sema::analyze(&program).expect("sema");
        for found in detect(&program, &analysis).detected.values() {
            let compiled = match found {
                Detected::Loop(red) => compile_loop(&program, &analysis, red, OptLevel::Opt2),
                Detected::Expr(red) => compile_reduce_expr(&analysis, red),
            };
            let Ok(c) = compiled else { continue };
            let k = &c.kernel;
            let nested = k.count_matching(|i| matches!(i, Instr::LoadStateNested { .. }));
            assert_eq!(nested, 0, "{}", k.disassemble());
            kernels += 1;
            state_reads += k.count_matching(|i| {
                matches!(i, Instr::LoadStateAt { .. } | Instr::LoadStateFlat { .. })
            });
        }
    }
    assert!(kernels >= 9, "{kernels} kernels compiled");
    assert!(state_reads > 0);
}

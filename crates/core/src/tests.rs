//! Differential tests: every translated execution must agree with the
//! interpreter (the semantic oracle) on every program, at every
//! optimization level — plus structural tests proving the optimizations
//! actually transform the code.

use chapel_frontend::programs;
use chapel_interp::{Interpreter, RtValue};
use chapel_sema::analyze;

use crate::{compile_loop, detect, Detected, Instr, OptLevel, Translator};

const ALL_OPTS: [OptLevel; 3] = [OptLevel::Generated, OptLevel::Opt1, OptLevel::Opt2];

/// Compare two runtime values numerically (tolerating f64 accumulation
/// order differences between sequential and parallel reduction).
fn assert_close(a: &RtValue, b: &RtValue, tol: f64, path: &str) {
    match (a, b) {
        (RtValue::Array { items: x, .. }, RtValue::Array { items: y, .. }) => {
            assert_eq!(x.len(), y.len(), "length at {path}");
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                assert_close(u, v, tol, &format!("{path}[{i}]"));
            }
        }
        (RtValue::Record { fields: x, .. }, RtValue::Record { fields: y, .. }) => {
            assert_eq!(x.len(), y.len(), "fields at {path}");
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                assert_close(u, v, tol, &format!("{path}.{i}"));
            }
        }
        _ => {
            let x = a
                .as_f64()
                .unwrap_or_else(|_| panic!("non-numeric at {path}: {a:?}"));
            let y = b
                .as_f64()
                .unwrap_or_else(|_| panic!("non-numeric at {path}: {b:?}"));
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() <= tol * scale,
                "{path}: {x} vs {y} (tol {tol})"
            );
        }
    }
}

/// Run `src` on the interpreter and under translation at every opt
/// level / thread count, and compare the listed globals.
fn differential(src: &str, globals: &[&str], expect_jobs: usize) {
    let oracle = Interpreter::run_source(src).expect("oracle run");
    for opt in ALL_OPTS {
        for threads in [1usize, 3] {
            let run = Translator::new(opt, threads)
                .run_program(src)
                .unwrap_or_else(|e| panic!("{opt:?} t={threads}: {e}"));
            assert_eq!(
                run.jobs.len(),
                expect_jobs,
                "{opt:?} t={threads}: wrong job count; skipped: {:?}",
                run.skipped
            );
            for g in globals {
                let a = oracle
                    .global(g)
                    .unwrap_or_else(|| panic!("oracle lacks {g}"));
                let b = run
                    .global(g)
                    .unwrap_or_else(|| panic!("{opt:?} t={threads}: translated lacks {g}"));
                assert_close(a, b, 1e-9, &format!("{g} ({opt:?}, t={threads})"));
            }
        }
    }
}

#[test]
fn sum_reduce_expression_offloaded() {
    differential(&programs::sum_reduce(100), &["total"], 1);
}

#[test]
fn min_reduce_elementwise_offloaded() {
    differential(&programs::min_reduce_sum_expr(64), &["m"], 1);
}

#[test]
fn kmeans_all_opt_levels_match_interpreter() {
    differential(&programs::kmeans(80, 5, 3), &["newCent"], 1);
}

#[test]
fn pca_all_opt_levels_match_interpreter() {
    differential(&programs::pca(4, 20), &["mean", "cov"], 2);
}

#[test]
fn histogram_offloaded() {
    differential(&programs::histogram(150, 8), &["hist"], 1);
}

#[test]
fn linreg_offloaded_with_zipped_dataset() {
    differential(
        &programs::linear_regression(60),
        &["sx", "sy", "sxx", "sxy", "slope", "intercept"],
        1,
    );
}

#[test]
fn fig2_user_reduce_offloaded_and_matches() {
    // The paper's Figure 2 class: `SumReduceScanOp reduce A` runs on
    // FREERIDE (accumulate as the kernel, cell-wise merge as combine,
    // generate on the interpreter) and matches sequential interpretation.
    let src = format!(
        "{}\nvar A: [1..300] real;\nfor i in 1..300 {{ A[i] = i * 0.25; }}\nvar s = SumReduceScanOp reduce A;",
        programs::FIG2_SUM_REDUCE_CLASS
    );
    differential(&src, &["s"], 1);
}

#[test]
fn multi_field_user_reduce_offloaded() {
    // A two-field statistics class (count + sum), with generate
    // combining the fields — exercises multiple reduction-object groups
    // and interpreter-side post-processing.
    let src = "
        class MeanOp: ReduceScanOp {
            var total: real;
            var count: real;
            def accumulate(x) {
                total += x;
                count += 1.0;
            }
            def combine(x) {
                total += x.total;
                count += x.count;
            }
            def generate() { return total / count; }
        }
        var A: [1..100] real;
        for i in 1..100 { A[i] = i; }
        var mean = MeanOp reduce A;
    ";
    differential(src, &["mean"], 1);
    let run = Translator::new(OptLevel::Opt2, 3).run_program(src).unwrap();
    assert_eq!(run.global("mean").unwrap().as_f64().unwrap(), 50.5);
}

#[test]
fn user_reduce_reading_fields_falls_back() {
    // accumulate that *reads* a field (running max) compiles to a
    // rejection at the kernel level or validation level and falls back
    // to the interpreter — with identical results.
    let src = "
        class WeirdOp: ReduceScanOp {
            var value: real;
            def accumulate(x) { value += x * value; }
            def combine(x) { value += x.value; }
            def generate() { return value; }
        }
        var A: [1..10] real;
        for i in 1..10 { A[i] = i; }
        var s = WeirdOp reduce A;
    ";
    let oracle = Interpreter::run_source(src).unwrap();
    let run = Translator::new(OptLevel::Opt2, 2).run_program(src).unwrap();
    assert!(
        run.jobs.is_empty(),
        "field-reading accumulate must not offload"
    );
    assert!(run
        .skipped
        .iter()
        .any(|r| r.reason.contains("cannot be read")));
    assert_close(
        oracle.global("s").unwrap(),
        run.global("s").unwrap(),
        1e-12,
        "s",
    );
}

#[test]
fn knn_falls_back_to_interpreter_and_still_agrees() {
    let src = programs::knn(30, 2, 4);
    let oracle = Interpreter::run_source(&src).unwrap();
    let run = Translator::new(OptLevel::Opt2, 2)
        .run_program(&src)
        .unwrap();
    assert!(run.jobs.is_empty(), "knn must not be offloaded");
    assert!(!run.skipped.is_empty());
    assert_close(
        oracle.global("bestDist").unwrap(),
        run.global("bestDist").unwrap(),
        1e-12,
        "bestDist",
    );
}

#[test]
fn fig8_sum_via_loop_reduction() {
    // The Figure 8 nested loop: sum += data[i].b1[j].a1[k].
    let (t, n, m) = (6usize, 4usize, 3usize);
    let src = format!(
        "{}
        for i in 1..{t} {{
            for j in 1..{n} {{
                for k in 1..{m} {{
                    data[i].b1[j].a1[k] = i * 100 + j * 10 + k;
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
    differential(&src, &["sum"], 1);
}

#[test]
fn opt1_removes_computeindex_from_inner_loop() {
    let src = programs::kmeans(30, 4, 5);
    let p = chapel_frontend::parse(&src).unwrap();
    let a = analyze(&p).unwrap();
    let d = detect(&p, &a);
    let red = d
        .detected
        .values()
        .find_map(|x| match x {
            Detected::Loop(l) => Some(l.clone()),
            _ => None,
        })
        .expect("kmeans loop detected");

    let gen = compile_loop(&p, &a, &red, OptLevel::Generated).unwrap();
    let opt1 = compile_loop(&p, &a, &red, OptLevel::Opt1).unwrap();

    // Generated: per-access LoadData, no bases.
    let gen_full = gen
        .kernel
        .count_matching(|i| matches!(i, Instr::LoadData { .. }));
    let gen_based = gen
        .kernel
        .count_matching(|i| matches!(i, Instr::LoadDataAt { .. }));
    assert!(gen_full > 0);
    assert_eq!(gen_based, 0);

    // Opt-1: data reads in the distance loop go through hoisted bases.
    let o1_based = opt1
        .kernel
        .count_matching(|i| matches!(i, Instr::LoadDataAt { .. }));
    let o1_bases = opt1
        .kernel
        .count_matching(|i| matches!(i, Instr::DataBase { .. }));
    assert!(
        o1_based > 0,
        "opt-1 must emit strided loads:\n{}",
        opt1.kernel.disassemble()
    );
    assert!(o1_bases > 0);
}

#[test]
fn opt2_eliminates_nested_state_walks() {
    let src = programs::kmeans(30, 4, 5);
    let p = chapel_frontend::parse(&src).unwrap();
    let a = analyze(&p).unwrap();
    let d = detect(&p, &a);
    let red = d
        .detected
        .values()
        .find_map(|x| match x {
            Detected::Loop(l) => Some(l.clone()),
            _ => None,
        })
        .expect("kmeans loop detected");

    let opt1 = compile_loop(&p, &a, &red, OptLevel::Opt1).unwrap();
    let opt2 = compile_loop(&p, &a, &red, OptLevel::Opt2).unwrap();

    let o1_nested = opt1
        .kernel
        .count_matching(|i| matches!(i, Instr::LoadStateNested { steps, .. } if !steps.is_empty()));
    assert!(o1_nested > 0, "opt-1 still walks nested centroids");

    let o2_nested = opt2
        .kernel
        .count_matching(|i| matches!(i, Instr::LoadStateNested { .. }));
    assert_eq!(
        o2_nested,
        0,
        "opt-2 must not walk nested state:\n{}",
        opt2.kernel.disassemble()
    );
    let o2_flat = opt2
        .kernel
        .count_matching(|i| matches!(i, Instr::LoadStateFlat { .. } | Instr::LoadStateAt { .. }));
    assert!(o2_flat > 0);
}

#[test]
fn parallel_linearization_matches_sequential() {
    let src = programs::kmeans(64, 3, 4);
    let mut t = Translator::new(OptLevel::Opt2, 4);
    let seq = t.run_program(&src).unwrap();
    t.parallel_linearize = true;
    let par = t.run_program(&src).unwrap();
    assert_close(
        seq.global("newCent").unwrap(),
        par.global("newCent").unwrap(),
        1e-12,
        "newCent",
    );
}

#[test]
fn job_reports_have_timings() {
    let run = Translator::new(OptLevel::Opt2, 2)
        .run_program(&programs::kmeans(50, 3, 3))
        .unwrap();
    let job = &run.jobs[0];
    assert!(job.wall_ns > 0);
    assert!(job.stats.splits.len() >= 2);
    assert!(job.kind.contains("newCent"));
    assert!(run.total_modeled_ns(2) > 0);
    assert!(run.total_linearize_ns() > 0);
}

#[test]
fn outputs_accumulate_onto_existing_values() {
    // An output with a nonzero initial value: the FREERIDE result must
    // add to it, not replace it.
    let src = "
        var data: [1..10] real;
        for i in 1..10 { data[i] = 1.0; }
        var acc: real = 100.0;
        for i in 1..10 { acc += data[i]; }
    ";
    differential(src, &["acc"], 1);
}

#[test]
fn two_sequential_reductions_share_state_correctly() {
    // The second loop consumes the first loop's output as state (the
    // PCA pattern, minimised).
    let src = "
        var data: [1..20] real;
        for i in 1..20 { data[i] = i; }
        var total: real = 0.0;
        for i in 1..20 { total += data[i]; }
        var varsum: real = 0.0;
        for i in 1..20 { varsum += (data[i] - total / 20.0) * (data[i] - total / 20.0); }
    ";
    differential(src, &["total", "varsum"], 2);
}

#[test]
fn integer_division_truncates_like_the_interpreter() {
    // `int / int` truncates in Chapel. The translated kernel must not
    // divide in f64: the oracle's `total` is [63, 20], not [70, 20].
    let src = "
        var data: [1..20] int;
        for i in 1..20 { data[i] = i; }
        var total: [1..2] int;
        for i in 1..20 {
            total[1] += data[i] / 3;
            total[2] += 1;
        }
    ";
    differential(src, &["total"], 1);
    let run = Translator::new(OptLevel::Opt2, 2).run_program(src).unwrap();
    let RtValue::Array { items, .. } = run.global("total").unwrap() else {
        panic!("total is an array");
    };
    assert_eq!(items[0].as_f64().unwrap(), 63.0);
}

#[test]
fn integer_locals_divide_and_take_remainders_like_the_interpreter() {
    // An int local under `/=`, and `%` on int operands, including
    // negative ones (truncation toward zero, remainder takes the sign
    // of the dividend).
    let src = "
        var data: [1..30] int;
        for i in 1..30 { data[i] = i * 7; }
        var acc: [1..3] int;
        for i in 1..30 {
            var q: int = data[i];
            q /= 4;
            var m: int = data[i] % 5;
            acc[1] += q;
            acc[2] += m;
            acc[3] += (q - 27) / 4 + (q - 27) % 4;
        }
    ";
    differential(src, &["acc"], 1);
}

#[test]
fn real_constant_with_integer_initializer_divides_in_real() {
    // `scale` is declared `real`, so `data[i] / scale` is a real divide
    // even though its initializer is an integer literal.
    let src = "
        const scale: real = 3;
        var data: [1..20] int;
        for i in 1..20 { data[i] = i; }
        var total: [1..2] real;
        for i in 1..20 {
            total[1] += data[i] / scale;
            total[2] += 1;
        }
    ";
    differential(src, &["total"], 1);
    let run = Translator::new(OptLevel::Opt2, 2).run_program(src).unwrap();
    let RtValue::Array { items, .. } = run.global("total").unwrap() else {
        panic!("total is an array");
    };
    assert!((items[0].as_f64().unwrap() - 70.0).abs() < 1e-9);
}

#[test]
fn writing_a_for_index_lasts_one_iteration() {
    // The oracle binds `j` afresh each iteration: the body's write
    // changes neither the trip count nor the next iteration's `j`, so
    // `total` is [330, 330].
    let src = "
        var data: [1..10] int;
        for i in 1..10 { data[i] = i; }
        var total: [1..2] int;
        for i in 1..10 {
            for j in 1..6 {
                total[1] += data[i];
                j = j + 2;
                total[2] += j;
            }
        }
    ";
    differential(src, &["total"], 1);
}

#[test]
fn accesses_after_a_for_index_write_see_the_new_index() {
    // `total[j]` after `j = j + 2` indexes with the written `j`, so the
    // inner loop cannot strength-reduce it to the `k` register computed
    // at the body head: [0, 0, 55, 55, 55, 55, 0, 0].
    let src = "
        var data: [1..10] int;
        for i in 1..10 { data[i] = i; }
        var total: [1..8] int;
        for i in 1..10 {
            for j in 1..4 {
                j = j + 2;
                total[j] += data[i];
            }
        }
    ";
    differential(src, &["total"], 1);
}

#[test]
fn traced_run_has_one_interp_span_per_interpreted_statement() {
    let (rows, cols) = (4usize, 30usize);
    let src = programs::pca(rows, cols);
    let rec = std::sync::Arc::new(obs::Recorder::new(obs::TraceLevel::Phases));
    let run = Translator::new(OptLevel::Opt2, 2)
        .traced(rec.clone())
        .run_program(&src)
        .unwrap();
    let trace = rec.drain();
    let program = chapel_frontend::parse(&src).unwrap();
    let interpreted: Vec<usize> = program
        .items
        .iter()
        .enumerate()
        .filter(|(i, item)| {
            matches!(item, chapel_frontend::ast::Item::Stmt(_))
                && run.jobs.iter().all(|j| j.stmt_index != *i)
        })
        .map(|(i, _)| i)
        .collect();
    let spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "interp.exec")
        .collect();
    let stmts: Vec<usize> = spans
        .iter()
        .map(|s| s.attr_i64("stmt").unwrap() as usize)
        .collect();
    assert_eq!(stmts, interpreted);
    // The init loop evaluates one store per matrix cell.
    let steps: Vec<i64> = spans.iter().map(|s| s.attr_i64("steps").unwrap()).collect();
    assert!(steps.iter().all(|&n| n > 0), "{steps:?}");
    assert!(
        steps.iter().any(|&n| n >= (rows * cols) as i64),
        "{steps:?}"
    );
}

//! Interpreter behaviour tests, including all canned programs and the
//! parallel user-defined-reduction simulation.

use crate::{Interpreter, RtValue};
use chapel_frontend::programs;

fn run(src: &str) -> Interpreter {
    Interpreter::run_source(src).unwrap_or_else(|e| panic!("interp failed: {e}\nfor:\n{src}"))
}

fn real(i: &Interpreter, name: &str) -> f64 {
    i.global(name)
        .unwrap_or_else(|| panic!("no global {name}"))
        .as_f64()
        .unwrap()
}

#[test]
fn arithmetic_and_types() {
    let i =
        run("var a = 2 + 3 * 4; var b = 7 / 2; var c = 7.0 / 2; var d = 2 ** 10; var e = 7 % 3;");
    assert!(i.global("a").unwrap().deep_eq(&RtValue::Int(14)));
    assert!(i.global("b").unwrap().deep_eq(&RtValue::Int(3))); // truncating
    assert!(i.global("c").unwrap().deep_eq(&RtValue::Real(3.5)));
    assert!(i.global("d").unwrap().deep_eq(&RtValue::Int(1024)));
    assert!(i.global("e").unwrap().deep_eq(&RtValue::Int(1)));
}

#[test]
fn control_flow() {
    let i = run("var x = 0; \
         for i in 1..10 { x += i; } \
         var y = 0; \
         while y < 5 { y += 2; } \
         var z = 0; \
         if x > 50 { z = 1; } else { z = 2; }");
    assert_eq!(real(&i, "x"), 55.0);
    assert_eq!(real(&i, "y"), 6.0);
    assert_eq!(real(&i, "z"), 1.0);
}

#[test]
fn arrays_are_one_based_and_mutable() {
    let i = run("var A: [1..3] real; A[1] = 10.0; A[3] = 30.0; var s = A[1] + A[2] + A[3];");
    assert_eq!(real(&i, "s"), 40.0);
}

#[test]
fn out_of_bounds_is_an_error() {
    let e = Interpreter::run_source("var A: [1..3] real; A[0] = 1.0;").unwrap_err();
    assert!(e.message.contains("out of bounds"));
    let e = Interpreter::run_source("var A: [1..3] real; var x = A[4];").unwrap_err();
    assert!(e.message.contains("out of bounds"));
}

#[test]
fn multidim_arrays() {
    let i = run("var M: [1..2, 1..3] real; \
         for a in 1..2 { for b in 1..3 { M[a, b] = a * 10 + b; } } \
         var s = M[2, 3] + M[1, 1];");
    assert_eq!(real(&i, "s"), 34.0);
}

#[test]
fn records_are_value_types() {
    let i = run("record P { x: real; y: real; } \
         var p: P; p.x = 1.0; \
         var q = p; q.x = 99.0; \
         var keep = p.x;");
    assert_eq!(real(&i, "keep"), 1.0, "assignment must copy records");
}

#[test]
fn nested_record_array_access() {
    let i = run(&format!(
        "{}\nfor i in 1..2 {{ for j in 1..4 {{ for k in 1..3 {{ data[i].b1[j].a1[k] = i + j + k; }} }} }}\nvar x = data[2].b1[3].a1[1];",
        programs::fig6_records(2, 4, 3)
    ));
    assert_eq!(real(&i, "x"), 6.0);
}

#[test]
fn fig8_nested_sum_matches_closed_form() {
    // data starts zeroed; fill with 1 and sum = t*n*m.
    let (t, n, m) = (3usize, 4usize, 5usize);
    let src = format!(
        "{}\nfor i in 1..{t} {{ for j in 1..{n} {{ for k in 1..{m} {{ data[i].b1[j].a1[k] = 1.0; }} }} }}\n{}",
        programs::fig6_records(t, n, m),
        "var sum: real = 0.0;\nfor i in 1..3 { for j in 1..4 { for k in 1..5 { sum += data[i].b1[j].a1[k]; } } }"
    );
    let i = run(&src);
    assert_eq!(real(&i, "sum"), (t * n * m) as f64);
}

#[test]
fn functions_and_recursion() {
    let i = run(
        "def fib(n: int): int { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } \
         var x = fib(12);",
    );
    assert_eq!(real(&i, "x"), 144.0);
}

#[test]
fn builtin_functions() {
    let i = run(
        "var a = int(3.7); var b = min(4, 2); var c = max(1.5, 2.5); \
         var d = sqrt(16.0); var e = abs(-3); var f = max(int);",
    );
    assert!(i.global("a").unwrap().deep_eq(&RtValue::Int(3)));
    assert!(i.global("b").unwrap().deep_eq(&RtValue::Int(2)));
    assert_eq!(real(&i, "c"), 2.5);
    assert_eq!(real(&i, "d"), 4.0);
    assert!(i.global("e").unwrap().deep_eq(&RtValue::Int(3)));
    assert!(i.global("f").unwrap().deep_eq(&RtValue::Int(i64::MAX)));
}

#[test]
fn short_circuit_protects_bounds() {
    // `s >= 1 && A[s] > 0` with s = 0 must not index A[0].
    let i = run("var A: [1..3] real; var s = 0; var ok = s >= 1 && A[s] > 0.0;");
    assert!(i.global("ok").unwrap().deep_eq(&RtValue::Bool(false)));
}

#[test]
fn builtin_reduce_expressions() {
    let i = run(&programs::sum_reduce(10));
    assert_eq!(real(&i, "total"), 55.0);

    let i = run(&programs::min_reduce_sum_expr(10));
    // A[i] = i, B[i] = 10 - i, so A+B is constant 10.
    assert_eq!(real(&i, "m"), 10.0);

    let i = run("var s = + reduce (1..100);");
    assert_eq!(real(&i, "s"), 5050.0);

    let i = run("var A: [1..4] int; for i in 1..4 { A[i] = i; } var p = * reduce A;");
    assert_eq!(real(&i, "p"), 24.0);

    let i = run("var A: [1..3] real; A[2] = -5.0; var m = min reduce A; var M = max reduce A;");
    assert_eq!(real(&i, "m"), -5.0);
    assert_eq!(real(&i, "M"), 0.0);
}

#[test]
fn scan_expressions() {
    let i = run("var A: [1..5] real; for i in 1..5 { A[i] = i; } var S = + scan A;");
    let RtValue::Array { items, .. } = i.global("S").unwrap() else {
        panic!()
    };
    let got: Vec<f64> = items.iter().map(|v| v.as_f64().unwrap()).collect();
    assert_eq!(got, vec![1.0, 3.0, 6.0, 10.0, 15.0]);

    let i = run("var S = + scan (1..4);");
    let RtValue::Array { items, .. } = i.global("S").unwrap() else {
        panic!()
    };
    let got: Vec<f64> = items.iter().map(|v| v.as_f64().unwrap()).collect();
    assert_eq!(got, vec![1.0, 3.0, 6.0, 10.0]);

    let i = run(
        "var A: [1..4] real; A[1] = 5.0; A[2] = 2.0; A[3] = 7.0; A[4] = 1.0; \
         var M = min scan A;",
    );
    let RtValue::Array { items, .. } = i.global("M").unwrap() else {
        panic!()
    };
    let got: Vec<f64> = items.iter().map(|v| v.as_f64().unwrap()).collect();
    assert_eq!(got, vec![5.0, 2.0, 2.0, 1.0]);
}

#[test]
fn scan_reduce_duality() {
    // The last element of an inclusive scan equals the reduction.
    let i = run("var A: [1..9] real; for i in 1..9 { A[i] = i * 1.5; } \
         var S = + scan A; var r = + reduce A; var last = S[9];");
    assert_eq!(real(&i, "last"), real(&i, "r"));
}

#[test]
fn user_defined_reduce_fig2() {
    let src = format!(
        "{}\nvar A: [1..10] real;\nfor i in 1..10 {{ A[i] = i; }}\nvar total = SumReduceScanOp reduce A;",
        programs::FIG2_SUM_REDUCE_CLASS
    );
    let i = run(&src);
    assert_eq!(real(&i, "total"), 55.0);
}

#[test]
fn user_reduce_parallel_combine() {
    // Parallel simulation must agree with the sequential reduce for the
    // Figure 2 class, for any thread count.
    let mut i = run(programs::FIG2_SUM_REDUCE_CLASS);
    let items: Vec<RtValue> = (1..=100).map(|x| RtValue::Real(x as f64)).collect();
    for threads in [1usize, 2, 3, 8] {
        let out = i
            .user_reduce_parallel("SumReduceScanOp", &items, threads)
            .unwrap();
        assert!(out.deep_eq(&RtValue::Real(5050.0)), "threads={threads}");
    }
}

#[test]
fn writeln_output() {
    let i = run(r#"var x = 42; writeln("x=", x); writeln("done");"#);
    assert_eq!(i.output(), &["x=42".to_string(), "done".to_string()]);
}

#[test]
fn kmeans_program_runs_and_counts_points() {
    let (n, k, d) = (60usize, 4usize, 3usize);
    let i = run(&programs::kmeans(n, k, d));
    // Every point is assigned to exactly one centroid.
    let RtValue::Array { items, .. } = i.global("newCent").unwrap() else {
        panic!("newCent not an array");
    };
    let total: f64 = items
        .iter()
        .map(|c| match c {
            RtValue::Record { fields, .. } => fields[1].as_f64().unwrap(),
            other => panic!("unexpected {other:?}"),
        })
        .sum();
    assert_eq!(total, n as f64);
}

#[test]
fn pca_program_mean_is_exact() {
    let (rows, cols) = (3usize, 5usize);
    let i = run(&programs::pca(rows, cols));
    let RtValue::Array { items, .. } = i.global("mean").unwrap() else {
        panic!("mean not an array");
    };
    // data[i].val[a] = (i*17 + a*3) % 19 — check mean[1] directly.
    let expect: f64 = (1..=cols).map(|i| ((i * 17 + 3) % 19) as f64).sum::<f64>() / cols as f64;
    assert!((items[0].as_f64().unwrap() - expect).abs() < 1e-12);
    // Covariance matrix must be symmetric.
    let RtValue::Array { items: cov, .. } = i.global("cov").unwrap() else {
        panic!("cov not an array");
    };
    for a in 0..rows {
        for b in 0..rows {
            let RtValue::Array { items: row_a, .. } = &cov[a] else {
                panic!()
            };
            let RtValue::Array { items: row_b, .. } = &cov[b] else {
                panic!()
            };
            assert!(
                (row_a[b].as_f64().unwrap() - row_b[a].as_f64().unwrap()).abs() < 1e-9,
                "cov[{a}][{b}] asymmetric"
            );
        }
    }
}

#[test]
fn histogram_program_counts_everything() {
    let (n, b) = (200usize, 8usize);
    let i = run(&programs::histogram(n, b));
    let RtValue::Array { items, .. } = i.global("hist").unwrap() else {
        panic!("hist not an array");
    };
    let total: f64 = items.iter().map(|v| v.as_f64().unwrap()).sum();
    assert_eq!(total, n as f64);
}

#[test]
fn linear_regression_recovers_line() {
    let i = run(&programs::linear_regression(50));
    assert!((real(&i, "slope") - 3.0).abs() < 1e-9);
    assert!((real(&i, "intercept") - 1.0).abs() < 1e-9);
}

#[test]
fn knn_program_fills_topk_sorted() {
    let i = run(&programs::knn(40, 2, 5));
    let RtValue::Array { items, .. } = i.global("bestDist").unwrap() else {
        panic!("bestDist not an array");
    };
    let dists: Vec<f64> = items.iter().map(|v| v.as_f64().unwrap()).collect();
    for w in dists.windows(2) {
        assert!(w[0] <= w[1], "top-k not sorted: {dists:?}");
    }
    assert!(dists[4] < 1.0e300, "top-k not fully populated");
}

#[test]
fn step_limit_stops_infinite_loops() {
    let program = chapel_frontend::parse("var x = 1; while x > 0 { x += 1; }").unwrap();
    let mut interp = Interpreter::new().with_step_limit(10_000);
    let e = interp.run(&program).unwrap_err();
    assert!(e.message.contains("step limit"));
}

#[test]
fn division_by_zero_reported() {
    let e = Interpreter::run_source("var x = 1 / 0;").unwrap_err();
    assert!(e.message.contains("division by zero"));
}

#[test]
fn int_slot_preserves_kind() {
    let i = run("var n: int = 0; n += 1; n += 1;");
    assert!(i.global("n").unwrap().deep_eq(&RtValue::Int(2)));
    // Storing a fractional real into an int is an error.
    let e = Interpreter::run_source("var n: int = 0; n = 1; n += 0; n = 3; var ok = n; n = int(2.5); var m: int = 1; m = 5; var z = 2.5; ").map(|_|()).err();
    assert!(e.is_none());
    let e = Interpreter::run_source("var n: int = 0; var x = 2.5; n = x;").unwrap_err();
    assert!(e.message.contains("non-integer"));
}

#[test]
fn global_visible_inside_functions() {
    let i = run("var g = 10; def addg(x: int): int { return x + g; } var y = addg(5);");
    assert_eq!(real(&i, "y"), 15.0);
}

#[test]
fn method_calls_mutate_object_state() {
    let src = r#"
        class Counter: ReduceScanOp {
            var value: int;
            def accumulate(x) { value += 1; }
            def combine(x) { value += x.value; }
            def generate() { return value; }
        }
        var c = new Counter();
        c.accumulate(5);
        c.accumulate(7);
        var n = c.generate();
    "#;
    let i = run(src);
    assert_eq!(real(&i, "n"), 2.0);
}

// ---------- name resolution ----------

fn int(i: &Interpreter, name: &str) -> i64 {
    i.global(name)
        .unwrap_or_else(|| panic!("no global {name}"))
        .as_i64()
        .unwrap()
}

#[test]
fn block_var_shadows_global_until_the_block_ends() {
    let i = run("var x = 1; var inner = 0; \
         { var x = 2; x += 10; inner = x; } \
         var after = x;");
    assert_eq!(int(&i, "inner"), 12);
    assert_eq!(int(&i, "after"), 1);
    assert_eq!(int(&i, "x"), 1);
}

#[test]
fn loop_index_is_invisible_to_called_functions() {
    // A top-level loop's index shadows the global `i` only in the loop
    // body; the function still reads the global.
    let i = run("def f(): int { return i; } \
         var i = 100; var r = 0; \
         for i in 1..3 { r = f() + i; }");
    assert_eq!(int(&i, "r"), 103);
    assert_eq!(int(&i, "i"), 100);
}

#[test]
fn functions_and_methods_read_and_write_globals() {
    // `bump` and `peek` name globals declared after them; `accumulate`
    // writes its own field and a global.
    let i = run("def bump(d: int) { total += d; seen = seen + 1; } \
         def peek(): int { return later * 2; } \
         class Acc: ReduceScanOp { \
             var n: int; \
             def accumulate(x) { n += 1; total += x; } \
             def generate() { return total + n; } \
         } \
         var total = 0; var seen = 0; \
         bump(5); bump(7); \
         var later = 21; var p = peek(); \
         var a = new Acc(); a.accumulate(100); var g = a.generate();");
    assert_eq!(int(&i, "total"), 112);
    assert_eq!(int(&i, "seen"), 2);
    assert_eq!(int(&i, "p"), 42);
    assert_eq!(int(&i, "g"), 113);
}

#[test]
fn a_function_called_from_a_method_sees_the_methods_fields() {
    // Non-local names resolve among the active `self` object's fields
    // before the globals, also in a plain function the method calls.
    let i = run("def helper(): int { return value; } \
         class C: ReduceScanOp { \
             var value: int = 40; \
             def accumulate(x) { value += helper() + x; } \
             def generate() { return value; } \
         } \
         var value = 1000; \
         var o = new C(); o.accumulate(2); \
         var g = o.generate(); var h = helper();");
    assert_eq!(int(&i, "g"), 82);
    assert_eq!(int(&i, "h"), 1000);
}

#[test]
fn recursion_keeps_each_frames_locals() {
    let i = run("def sumto(n: int): int { \
             if n == 0 { return 0; } \
             var here = n; var rest = sumto(n - 1); \
             return here + rest; \
         } \
         var s = sumto(50);");
    assert_eq!(int(&i, "s"), 1275);
}

#[test]
fn a_body_write_to_the_for_index_lasts_one_iteration() {
    let i = run(
        "var seen = 0; for i in 1..5 { seen += i; i = 100; seen += i; } \
         var A: [1..4] int; for i in 1..4 { A[i] = i * i; } \
         var s = 0; for v in A { s += v; v = 0; } var kept = A[4];",
    );
    assert_eq!(int(&i, "seen"), 15 + 5 * 100);
    assert_eq!(int(&i, "s"), 30);
    assert_eq!(int(&i, "kept"), 16);
}

#[test]
fn a_body_var_is_reinitialised_every_iteration() {
    let i = run(
        "var total = 0; for i in 1..4 { var acc = 0; acc += i; total += acc; } \
         var k = 0; var w = 0; \
         while k < 3 { var t: int; t += 1; w += t; k += 1; }",
    );
    assert_eq!(int(&i, "total"), 10);
    assert_eq!(int(&i, "w"), 3);
}

#[test]
fn path_updates_keep_the_cell_kind() {
    let i = run("record R { val: [1..3] int; r: [1..3] real; } \
         var data: [1..2] R; \
         data[2].val[1] += 7; data[2].val[1] /= 2; \
         data[2].val[2] += 4.0; data[2].val[2] /= 4; \
         data[1].r[3] += 5; data[1].r[3] /= 2; \
         var a = data[2].val[1]; var b = data[2].val[2]; var c = data[1].r[3];");
    // int cell: `int / int` truncates, a whole real stores as an int.
    assert!(i.global("a").unwrap().deep_eq(&RtValue::Int(3)));
    assert!(i.global("b").unwrap().deep_eq(&RtValue::Int(1)));
    // real cell: an int widens.
    assert!(i.global("c").unwrap().deep_eq(&RtValue::Real(2.5)));

    for src in [
        "record R { val: [1..3] int; } var data: [1..2] R; data[2].val[3] += 2.5;",
        "record R { val: [1..3] int; } var data: [1..2] R; \
         data[2].val[3] = 10; data[2].val[3] /= 4.0;",
    ] {
        let e = Interpreter::run_source(src).unwrap_err();
        assert_eq!(
            e.message, "cannot store non-integer 2.5 into an int variable",
            "{src}"
        );
    }
}

#[test]
fn out_of_bounds_at_each_path_level() {
    let decls = "record R { val: [1..3] real; }\nvar data: [1..2] R;\nvar M: [1..2, 1..3] real;\n";
    for (stmt, message, col) in [
        ("data[3].val[1] = 1.0;", "index 3 out of bounds 1..2", 1),
        ("data[1].val[4] = 1.0;", "index 4 out of bounds 1..3", 1),
        ("var x = data[0].val[1];", "index 0 out of bounds 1..2", 9),
        ("var y = data[1].val[9];", "index 9 out of bounds 1..3", 9),
        ("data[1].val[5] += 1.0;", "index 5 out of bounds 1..3", 1),
        ("data[0].val[5] += 1.0;", "index 0 out of bounds 1..2", 1),
        ("M[3, 1] = 1;", "index 3 out of bounds 1..2", 1),
        ("M[2, 4] = 1;", "index 4 out of bounds 1..3", 1),
        ("var z = M[1, 0];", "index 0 out of bounds 1..3", 9),
        // An earlier level fails before a later index is evaluated.
        (
            "var q = data[5].val[nothere];",
            "index 5 out of bounds 1..2",
            9,
        ),
        (
            "var q = data[1].val[nothere];",
            "unknown identifier `nothere`",
            21,
        ),
    ] {
        let e = Interpreter::run_source(&format!("{decls}{stmt}")).unwrap_err();
        assert_eq!(e.message, message, "{stmt}");
        assert_eq!((e.span.line, e.span.col), (4, col), "{stmt}");
    }
}

#[test]
fn compound_assignment_evaluates_its_target_once() {
    let i = run("def inc(): int { counter += 1; return counter; } \
         var counter = 0; var A: [1..4] int; \
         A[inc()] += 7;");
    assert_eq!(int(&i, "counter"), 1);
    let RtValue::Array { items, .. } = i.global("A").unwrap() else {
        panic!("A not an array");
    };
    assert!(items[0].deep_eq(&RtValue::Int(7)));
}

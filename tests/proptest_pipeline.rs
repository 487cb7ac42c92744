//! Property-based end-to-end testing: randomly generated Chapel
//! reduction programs must produce identical results on the interpreter
//! and under translation at every optimization level and thread count.

use proptest::prelude::*;

use chapel_freeride::{Interpreter, OptLevel, Translator};

/// A randomly shaped k-means-like reduction program: nested records,
/// a read-only state array, and an accumulated output, with randomly
/// chosen sizes and a randomly selected body flavour.
#[derive(Debug, Clone)]
struct GenProgram {
    src: String,
    output: &'static str,
}

fn arb_program() -> impl Strategy<Value = GenProgram> {
    let flavours = 0..4u8;
    (2usize..2000, 1usize..6, 1usize..5, flavours).prop_map(|(n, d, k, flavour)| {
        let src = match flavour {
            // Nested record sum (Figure 8 style).
            0 => format!(
                "record P {{ pos: [1..{d}] real; tag: int; }}
                 var data: [1..{n}] P;
                 for i in 1..{n} {{
                     for j in 1..{d} {{ data[i].pos[j] = i * 7 + j; }}
                     data[i].tag = i % 3;
                 }}
                 var out: real = 0.0;
                 for i in 1..{n} {{
                     for j in 1..{d} {{ out += data[i].pos[j] * 2.0; }}
                 }}"
            ),
            // State-dependent accumulation (k-means distance style).
            1 => format!(
                "record P {{ pos: [1..{d}] real; }}
                 var data: [1..{n}] P;
                 var w: [1..{d}] real;
                 for j in 1..{d} {{ w[j] = j * 0.5; }}
                 for i in 1..{n} {{
                     for j in 1..{d} {{ data[i].pos[j] = (i * 13 + j * 5) % 11; }}
                 }}
                 var out: real = 0.0;
                 for i in 1..{n} {{
                     var acc: real = 0.0;
                     for j in 1..{d} {{
                         var diff: real = data[i].pos[j] - w[j];
                         acc += diff * diff;
                     }}
                     out += acc;
                 }}"
            ),
            // Indexed output group (histogram style).
            2 => format!(
                "var data: [1..{n}] real;
                 for i in 1..{n} {{ data[i] = (i * 17) % {k}; }}
                 var out: [1..{k}] real;
                 for i in 1..{n} {{
                     var b: int = int(data[i]) % {k} + 1;
                     out[b] += 1.0;
                 }}"
            ),
            // Conditional accumulation.
            _ => format!(
                "var data: [1..{n}] real;
                 for i in 1..{n} {{ data[i] = i % 7; }}
                 var out: real = 0.0;
                 for i in 1..{n} {{
                     if data[i] > 3.0 {{
                         out += data[i];
                     }} else {{
                         out += 0.5;
                     }}
                 }}"
            ),
        };
        GenProgram { src, output: "out" }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn translated_matches_interpreter(prog in arb_program()) {
        let oracle = Interpreter::run_source(&prog.src)
            .unwrap_or_else(|e| panic!("oracle: {e}\n{}", prog.src));
        let want = oracle.global(prog.output).expect("oracle output");
        let want = want.to_linear().expect("linearizable");

        for opt in [OptLevel::Generated, OptLevel::Opt1, OptLevel::Opt2] {
            for threads in [1usize, 3] {
                let run = Translator::new(opt, threads)
                    .run_program(&prog.src)
                    .unwrap_or_else(|e| panic!("{opt:?} t={threads}: {e}\n{}", prog.src));
                prop_assert!(
                    !run.jobs.is_empty(),
                    "{opt:?}: nothing offloaded; skipped: {:?}\n{}",
                    run.skipped,
                    prog.src
                );
                let got = run
                    .global(prog.output)
                    .expect("translated output")
                    .to_linear()
                    .expect("linearizable");
                prop_assert!(
                    values_close(&want, &got, 1e-9),
                    "{opt:?} t={threads}: {want:?} vs {got:?}\n{}",
                    prog.src
                );
            }
        }
    }
}

fn values_close(a: &linearize::Value, b: &linearize::Value, tol: f64) -> bool {
    use linearize::Value;
    match (a, b) {
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| values_close(u, v, tol))
        }
        (Value::Record(x), Value::Record(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| values_close(u, v, tol))
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
            _ => false,
        },
    }
}

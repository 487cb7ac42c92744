//! End-to-end identity tests: the compiled backend must be
//! **bit-identical** to the interpreter on the same kernel, split, and
//! state — for hand-built kernels covering every instruction family and
//! every block-carrying node the emitter prints (`For`, `If`, `While`).
//!
//! Tests that need `rustc` skip with a notice when it is unavailable,
//! so the suite stays green on stripped containers (the production path
//! degrades the same way, to the interpreter).

use cfr_codegen::{emit_kernel, load_or_compile, rustc_available, CompiledKernelRuntime};
use cfr_core::{
    compile_loop, detect, ArithOp, CmpOp, Detected, Instr, Kernel, KernelRuntime, NavStep,
    OptLevel, RegClass,
};
use freeride::{CombineOp, GroupSpec, RObjHandle, RObjLayout, ReductionObject, Split, SplitKernel};
use linearize::{PathMeta, Value};

fn scalar_layout(cells: usize) -> std::sync::Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("out", cells, CombineOp::Sum)])
}

/// A register file of `n` registers: the row registers r0/r1 and the
/// listed ones are `I64`, every other one `F64`.
fn classes(n: usize, ints: &[u16]) -> Vec<RegClass> {
    (0..n as u16)
        .map(|r| {
            if r < 2 || ints.contains(&r) {
                RegClass::I64
            } else {
                RegClass::F64
            }
        })
        .collect()
}

/// A one-level path over rows of `unit` slots (`data[row]`).
fn row_path() -> PathMeta {
    PathMeta {
        levels: 1,
        unit_size: vec![1],
        unit_offset: vec![vec![]],
        position: vec![vec![]],
        level_offset: vec![],
        terminal_offset: 0,
    }
}

/// A two-level path: `data[row][k]` over rows of `unit` slots.
fn row_elem_path(unit: usize) -> PathMeta {
    PathMeta {
        levels: 2,
        unit_size: vec![unit, 1],
        unit_offset: vec![vec![], vec![]],
        position: vec![vec![], vec![]],
        level_offset: vec![0],
        terminal_offset: 0,
    }
}

fn kernel(code: Vec<Instr>, entry: usize, regs: Vec<RegClass>, paths: Vec<PathMeta>) -> Kernel {
    Kernel {
        code,
        entry,
        regs,
        paths,
        state_names: vec![],
        out_names: vec!["out".into()],
        combine: CombineOp::Sum,
    }
}

/// Run `kernel` through both backends over the same split; return both
/// reduction objects' group-0 cells.
#[allow(clippy::too_many_arguments)]
fn run_both(
    kernel: &Kernel,
    rows: &[f64],
    unit: usize,
    first_row: usize,
    row_lo: i64,
    nested: Vec<Value>,
    flat: Vec<Vec<f64>>,
    cells: usize,
) -> (Vec<f64>, Vec<f64>) {
    let split = Split {
        rows,
        unit,
        first_row,
        row_count: rows.len() / unit,
    };
    let layout = scalar_layout(cells);

    let interp = KernelRuntime::new(
        kernel.clone(),
        nested.clone(),
        flat.clone(),
        row_lo,
        OptLevel::Opt2,
    )
    .expect("valid kernel");
    let mut robj_i = ReductionObject::alloc(layout.clone());
    SplitKernel::run_split(&interp, &split, &mut robj_i as &mut dyn RObjHandle);

    let loaded = load_or_compile(kernel, None).expect("codegen");
    let compiled = CompiledKernelRuntime::new(loaded, nested, flat, row_lo).expect("bind");
    let mut robj_c = ReductionObject::alloc(layout);
    compiled.run_split(&split, &mut robj_c as &mut dyn RObjHandle);

    (
        robj_i.group_slice(0).to_vec(),
        robj_c.group_slice(0).to_vec(),
    )
}

fn assert_bit_identical(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "cell {i}: interpreted {x} vs compiled {y}"
        );
    }
}

macro_rules! skip_without_rustc {
    () => {
        if !rustc_available() {
            eprintln!("skipping: rustc unavailable — compiled backend cannot be exercised");
            return;
        }
    };
}

fn bin(op: ArithOp, dst: u16, a: u16, b: u16) -> Instr {
    Instr::Bin { op, dst, a, b }
}

fn ibin(op: ArithOp, dst: u16, a: u16, b: u16) -> Instr {
    Instr::IBin { op, dst, a, b }
}

/// Straight-line arithmetic over every `ArithOp`/`CmpOp` in both
/// classes, the conversions, and the unary ops, accumulated into one
/// cell: `out[0] += f(row)`.
#[test]
fn arithmetic_identity() {
    skip_without_rustc!();
    use ArithOp::*;
    let mut code = vec![
        Instr::IConst { dst: 4, val: 0 }, // preamble: cell index 0
        Instr::Const { dst: 5, val: 0.327 },
        Instr::IConst { dst: 8, val: 3 },
        Instr::IConst { dst: 9, val: -7 },
    ];
    let entry = code.len();
    code.extend([
        Instr::LoadData {
            dst: 2,
            path: 0,
            idx: vec![0],
        },
        bin(Mul, 3, 2, 5),
        bin(Add, 3, 3, 2),
        bin(Div, 3, 3, 5),
        bin(Sub, 3, 3, 2),
        bin(Mod, 3, 3, 5),
        bin(Pow, 3, 3, 5),
        Instr::Sqrt { dst: 3, src: 3 },
        Instr::Abs { dst: 3, src: 3 },
        // Integer arithmetic on floor(data): wrapping, truncating.
        Instr::RealToInt { dst: 6, src: 2 },
        ibin(Mul, 10, 6, 8),
        ibin(Add, 10, 10, 9),
        ibin(Div, 11, 10, 8),
        ibin(Mod, 12, 10, 8),
        ibin(Sub, 11, 11, 12),
        ibin(Min, 11, 11, 10),
        ibin(Max, 11, 11, 9),
        Instr::IntToReal { dst: 13, src: 11 },
        bin(Min, 3, 3, 13),
        bin(Max, 3, 3, 2),
        Instr::Neg { dst: 14, src: 3 },
        Instr::Cmp {
            op: CmpOp::Lt,
            dst: 7,
            a: 14,
            b: 3,
        },
        Instr::Not { dst: 7, src: 7 },
        Instr::ICmp {
            op: CmpOp::Ge,
            dst: 15,
            a: 11,
            b: 9,
        },
        ibin(Add, 7, 7, 15),
        Instr::IntToReal { dst: 16, src: 7 },
        bin(Add, 3, 3, 16),
        Instr::Fma { dst: 3, a: 2, b: 5 },
        Instr::Accumulate {
            group: 0,
            cell: 4,
            val: 3,
        },
    ]);
    let k = kernel(
        code,
        entry,
        classes(17, &[4, 6, 7, 8, 9, 10, 11, 12, 15]),
        vec![row_path()],
    );
    let rows: Vec<f64> = (0..64).map(|i| (i as f64) * 0.61 - 7.3).collect();
    let (a, b) = run_both(&k, &rows, 1, 5, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// A counted inner loop with an if/else inside — the opt-1/opt-2 loop
/// shape, printed as a Rust `for`.
#[test]
fn control_flow_identity() {
    skip_without_rustc!();
    let mut code = vec![
        Instr::IConst { dst: 2, val: 0 },  // k lo
        Instr::IConst { dst: 3, val: 3 },  // k hi (inclusive)
        Instr::IConst { dst: 8, val: 0 },  // cell 0
        Instr::Const { dst: 9, val: 2.0 }, // threshold
    ];
    let entry = code.len();
    code.extend([
        Instr::Const { dst: 5, val: 0.0 },
        Instr::For {
            var: 4,
            lo: 2,
            hi: 3,
            body: vec![
                Instr::LoadData {
                    dst: 6,
                    path: 0,
                    idx: vec![0, 4],
                },
                // if r6 < r9 { r5 += r6 } else { r5 += r6 * r6 }
                Instr::Cmp {
                    op: CmpOp::Lt,
                    dst: 7,
                    a: 6,
                    b: 9,
                },
                Instr::If {
                    cond: 7,
                    then: vec![bin(ArithOp::Add, 5, 5, 6)],
                    els: vec![Instr::Fma { dst: 5, a: 6, b: 6 }],
                },
            ],
        },
        Instr::Accumulate {
            group: 0,
            cell: 8,
            val: 5,
        },
    ]);
    let k = kernel(
        code,
        entry,
        classes(10, &[2, 3, 4, 7, 8]),
        vec![row_elem_path(4)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(
        source.contains("for __i0 in r2..=r3 {") && source.contains("} else {"),
        "a Rust `for` around an if/else:\n{source}"
    );
    let rows: Vec<f64> = (0..32 * 4).map(|i| ((i * 37) % 11) as f64 * 0.5).collect();
    let (a, b) = run_both(&k, &rows, 4, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// A `For` whose body writes its own variable (steps past an element
/// after a large one): the write lasts one iteration in both backends,
/// so the trip count stays `lo..=hi`.
#[test]
fn for_loop_writing_its_index_identity() {
    skip_without_rustc!();
    let mut code = vec![
        Instr::IConst { dst: 2, val: 0 },  // lo
        Instr::IConst { dst: 3, val: 7 },  // hi
        Instr::IConst { dst: 4, val: 1 },  // one
        Instr::IConst { dst: 5, val: 4 },  // unit
        Instr::IConst { dst: 6, val: 0 },  // cell
        Instr::Const { dst: 7, val: 2.0 }, // threshold
    ];
    let entry = code.len();
    code.extend([
        Instr::Const { dst: 10, val: 0.0 },
        Instr::For {
            var: 8,
            lo: 2,
            hi: 3,
            // acc += data[r0][k % 4]; if that > 2 { k += 1 }; acc += k
            body: vec![
                ibin(ArithOp::Mod, 12, 8, 5),
                Instr::LoadData {
                    dst: 13,
                    path: 0,
                    idx: vec![0, 12],
                },
                bin(ArithOp::Add, 10, 10, 13),
                Instr::Cmp {
                    op: CmpOp::Gt,
                    dst: 14,
                    a: 13,
                    b: 7,
                },
                Instr::If {
                    cond: 14,
                    then: vec![ibin(ArithOp::Add, 8, 8, 4)],
                    els: vec![],
                },
                Instr::IntToReal { dst: 9, src: 8 },
                bin(ArithOp::Add, 10, 10, 9),
            ],
        },
        Instr::Accumulate {
            group: 0,
            cell: 6,
            val: 10,
        },
    ]);
    let k = kernel(
        code,
        entry,
        classes(15, &[2, 3, 4, 5, 6, 8, 12, 14]),
        vec![row_elem_path(4)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(
        source.contains("for __i0 in r2..=r3 {") && source.contains("r8 = __i0;"),
        "a Rust `for` rebinding r8 per iteration:\n{source}"
    );
    let rows: Vec<f64> = (0..24 * 4).map(|i| ((i * 37) % 11) as f64 * 0.5).collect();
    let (a, b) = run_both(&k, &rows, 4, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// A `while` whose trip count depends on the data: the head computes
/// the condition, the Rust `loop` breaks on it.
#[test]
fn while_loop_identity() {
    skip_without_rustc!();
    let mut code = vec![
        Instr::IConst { dst: 2, val: 0 },
        Instr::IConst { dst: 3, val: 1 },
        Instr::IConst { dst: 4, val: 4 },
        Instr::IConst { dst: 5, val: 0 }, // cell
    ];
    let entry = code.len();
    code.extend([
        // len = int(data[r0][0]) % 4 + 1
        Instr::LoadData {
            dst: 6,
            path: 0,
            idx: vec![0, 2],
        },
        Instr::RealToInt { dst: 7, src: 6 },
        ibin(ArithOp::Mod, 8, 7, 4),
        ibin(ArithOp::Add, 8, 8, 3),
        // t = 0; acc = 0
        Instr::IMov { dst: 9, src: 2 },
        Instr::Const { dst: 10, val: 0.0 },
        // while t < len { acc += data[r0][t]; t += 1 }
        Instr::While {
            head: vec![Instr::ICmp {
                op: CmpOp::Lt,
                dst: 11,
                a: 9,
                b: 8,
            }],
            cond: 11,
            body: vec![
                Instr::LoadData {
                    dst: 12,
                    path: 0,
                    idx: vec![0, 9],
                },
                bin(ArithOp::Add, 10, 10, 12),
                ibin(ArithOp::Add, 9, 9, 3),
            ],
        },
        Instr::Accumulate {
            group: 0,
            cell: 5,
            val: 10,
        },
    ]);
    let k = kernel(
        code,
        entry,
        classes(13, &[2, 3, 4, 5, 7, 8, 9, 11]),
        vec![row_elem_path(4)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(
        source.contains("loop {") && source.contains("if r11 == 0 { break; }"),
        "a loop that breaks on its head's condition:\n{source}"
    );
    let rows: Vec<f64> = (0..40 * 4).map(|i| ((i * 37) % 11) as f64).collect();
    let (a, b) = run_both(&k, &rows, 4, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// `if a > 1 && b < 3 { acc = a } else { acc = b }` then
/// `if a > 2 || b > 2 { acc += 1 }`, in the shapes the kernel compiler
/// gives `&&` (an `If` with the rhs in `then`), `||` (the rhs in `els`)
/// and `if`/`else`.
#[test]
fn if_else_and_short_circuit_identity() {
    skip_without_rustc!();
    let mut code = vec![
        Instr::Const { dst: 2, val: 1.0 },
        Instr::Const { dst: 3, val: 3.0 },
        Instr::Const { dst: 4, val: 2.0 },
        Instr::IConst { dst: 5, val: 0 }, // cell, and field 0
        Instr::IConst { dst: 9, val: 1 }, // field 1
    ];
    let entry = code.len();
    let cmp = |op, dst, a, b| Instr::Cmp { op, dst, a, b };
    code.extend([
        Instr::LoadData {
            dst: 10,
            path: 0,
            idx: vec![0, 5],
        }, // a
        Instr::LoadData {
            dst: 11,
            path: 0,
            idx: vec![0, 9],
        }, // b
        cmp(CmpOp::Gt, 12, 10, 2),
        Instr::IMov { dst: 13, src: 12 }, // && takes the lhs
        Instr::If {
            cond: 12,
            then: vec![cmp(CmpOp::Lt, 14, 11, 3), Instr::IMov { dst: 13, src: 14 }],
            els: vec![],
        },
        Instr::If {
            cond: 13,
            then: vec![Instr::Mov { dst: 15, src: 10 }],
            els: vec![Instr::Mov { dst: 15, src: 11 }],
        },
        cmp(CmpOp::Gt, 16, 10, 4),
        Instr::IMov { dst: 17, src: 16 }, // || takes the lhs
        Instr::If {
            cond: 16,
            then: vec![],
            els: vec![cmp(CmpOp::Gt, 19, 11, 4), Instr::IMov { dst: 17, src: 19 }],
        },
        Instr::If {
            cond: 17,
            then: vec![bin(ArithOp::Add, 15, 15, 2)],
            els: vec![],
        },
        Instr::Accumulate {
            group: 0,
            cell: 5,
            val: 15,
        },
    ]);
    let k = kernel(
        code,
        entry,
        classes(20, &[5, 9, 12, 13, 14, 16, 17, 19]),
        vec![row_elem_path(2)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(source.contains("} else {"), "an if/else:\n{source}");
    let rows: Vec<f64> = (0..50 * 2).map(|i| ((i * 7) % 9) as f64 * 0.5).collect();
    let (a, b) = run_both(&k, &rows, 2, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// State accesses: a nested walk (generated-style, via the host
/// callback, integer indices) and a flat load (opt-2-style) must both
/// match.
#[test]
fn state_access_identity() {
    skip_without_rustc!();
    let mut code = vec![
        Instr::IConst { dst: 8, val: 0 },
        Instr::IConst { dst: 9, val: 3 },
    ];
    let entry = code.len();
    code.extend([
        Instr::LoadData {
            dst: 2,
            path: 0,
            idx: vec![0],
        },
        // r3 = int(r2) % 3 → index register for both state reads
        Instr::RealToInt { dst: 10, src: 2 },
        ibin(ArithOp::Mod, 3, 10, 9),
        // nested walk: state0[r3]
        Instr::LoadStateNested {
            dst: 4,
            state: 0,
            steps: vec![NavStep::Index(3)],
        },
        // flat load: state1[r3]
        Instr::LoadStateFlat {
            dst: 5,
            state: 1,
            path: 1,
            idx: vec![3],
        },
        Instr::Fma { dst: 6, a: 4, b: 5 },
        Instr::Accumulate {
            group: 0,
            cell: 8,
            val: 6,
        },
    ]);
    let mut k = kernel(
        code,
        entry,
        classes(11, &[3, 8, 9, 10]),
        vec![row_path(), row_path()],
    );
    k.state_names = vec!["nested".into(), "flat".into()];
    let nested = vec![
        Value::Array(vec![
            Value::Real(1.25),
            Value::Real(-2.5),
            Value::Real(0.75),
        ]),
        Value::Array(vec![]), // state 1 is flat-only
    ];
    let flat = vec![Vec::new(), vec![10.0, 20.0, 30.0]];
    let rows: Vec<f64> = (0..48).map(|i| i as f64).collect();
    let (a, b) = run_both(&k, &rows, 1, 0, 1, nested, flat, 1);
    assert_bit_identical(&a, &b);
    assert_ne!(a[0], 0.0, "test must exercise the state reads");
}

/// The process-wide cache: compiling the same kernel twice returns the
/// same loaded artifact (same source hash), and instantiation with
/// fresh state is cheap.
#[test]
fn cache_returns_same_artifact() {
    skip_without_rustc!();
    let k = kernel(
        vec![
            Instr::IConst { dst: 2, val: 0 },
            Instr::LoadData {
                dst: 3,
                path: 0,
                idx: vec![0],
            },
            Instr::Accumulate {
                group: 0,
                cell: 2,
                val: 3,
            },
        ],
        1,
        classes(4, &[2]),
        vec![row_path()],
    );
    let a = load_or_compile(&k, None).unwrap();
    let b = load_or_compile(&k, None).unwrap();
    assert_eq!(a.source_hash, b.source_hash);
    assert!(std::sync::Arc::ptr_eq(&a, &b), "memory cache must hit");
}

/// The `For` loop variables of `code`, nested blocks included.
fn for_vars(code: &[Instr], out: &mut Vec<u16>) {
    for ins in code {
        if let Instr::For { var, .. } = ins {
            out.push(*var);
        }
        for block in ins.blocks() {
            for_vars(block, out);
        }
    }
}

/// The translated opt-2 kernels of the paper's applications print as
/// structured Rust: every `For` variable an `i64` rebound from a Rust
/// `for` counter.
#[test]
fn opt2_kmeans_and_pca_emit_structured_loops() {
    use chapel_frontend::programs;
    for src in [programs::kmeans(40, 4, 3), programs::pca(4, 12)] {
        let program = chapel_frontend::parse(&src).unwrap();
        let analysis = chapel_sema::analyze(&program).unwrap();
        let detection = detect(&program, &analysis);
        let mut loops = 0;
        for found in detection.detected.values() {
            let Detected::Loop(red) = found else {
                continue;
            };
            let compiled = compile_loop(&program, &analysis, red, OptLevel::Opt2).unwrap();
            let source = emit_kernel(&compiled.kernel).unwrap().source;
            let mut vars = Vec::new();
            for_vars(&compiled.kernel.code, &mut vars);
            assert!(!vars.is_empty());
            for v in vars {
                assert!(
                    source.contains(&format!("let mut r{v}: i64 = 0;"))
                        && source.contains(&format!("r{v} = __i")),
                    "loop variable r{v} is an i64 `for` variable:\n{source}"
                );
            }
            loops += 1;
        }
        assert!(loops > 0);
    }
}

/// The range analysis proves every slice load of the paper's opt-2
/// k-means kernel in bounds, so the 16×8 distance nest reads without a
/// bounds check; losing the proof fails here instead of silently
/// costing the kernel its speed.
#[test]
fn opt2_kmeans_loads_are_all_proven() {
    let src = chapel_frontend::programs::kmeans(1000, 16, 8);
    let program = chapel_frontend::parse(&src).unwrap();
    let analysis = chapel_sema::analyze(&program).unwrap();
    let detection = detect(&program, &analysis);
    let red = detection
        .detected
        .values()
        .find_map(|d| match d {
            Detected::Loop(red) => Some(red),
            _ => None,
        })
        .expect("the k-means loop");
    let compiled = compile_loop(&program, &analysis, red, OptLevel::Opt2).unwrap();
    let emitted = emit_kernel(&compiled.kernel).unwrap();
    assert!(emitted.loads_proven >= 3, "{}", emitted.source);
    assert_eq!(emitted.loads_checked, 0, "{}", emitted.source);
    assert!(!emitted.source.contains("ld(data"), "{}", emitted.source);
    assert!(!emitted.source.contains("ld(s0"), "{}", emitted.source);
    // One centroid record is 8 coordinates and a count.
    assert_eq!(emitted.state_len, vec![16 * 9 - 1]);
}

/// Run the compiled `kernel` on one split of `rows` (unit 1) into a
/// one-group layout of `cells` cells through `robj`.
fn run_compiled(kernel: &Kernel, rows: &[f64], robj: &mut dyn RObjHandle) {
    let split = Split {
        rows,
        unit: 1,
        first_row: 0,
        row_count: rows.len(),
    };
    let loaded = load_or_compile(kernel, None).expect("codegen");
    let compiled = CompiledKernelRuntime::new(loaded, vec![], vec![], 1).expect("bind");
    compiled.run_split(&split, robj);
}

/// The panic message a `catch_unwind` caught.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// A compiled kernel that fails (an out-of-range load, a zero integer
/// divisor) raises the interpreter's panic in the host, where
/// `catch_unwind` catches it — it never aborts the process as a
/// foreign exception.
#[test]
fn kernel_panics_resume_in_the_host() {
    skip_without_rustc!();
    // `data[r0 + 5]`: out of range on the split's last five rows.
    let oob = kernel(
        vec![
            Instr::IConst { dst: 2, val: 5 },
            Instr::IConst { dst: 5, val: 0 },
            ibin(ArithOp::Add, 3, 0, 2),
            Instr::LoadData {
                dst: 4,
                path: 0,
                idx: vec![3],
            },
            Instr::Accumulate {
                group: 0,
                cell: 5,
                val: 4,
            },
        ],
        2,
        classes(6, &[2, 3, 5]),
        vec![row_path()],
    );
    // `7 / 0` on every row.
    let div = kernel(
        vec![
            Instr::IConst { dst: 2, val: 7 },
            Instr::IConst { dst: 3, val: 0 },
            ibin(ArithOp::Div, 4, 2, 3),
            Instr::IntToReal { dst: 5, src: 4 },
            Instr::Accumulate {
                group: 0,
                cell: 3,
                val: 5,
            },
        ],
        2,
        classes(6, &[2, 3, 4]),
        vec![],
    );
    let rows = [1.0; 8];
    for (k, want) in [
        (oob, "index out of bounds"),
        (div, "integer division by zero"),
    ] {
        let mut robj = ReductionObject::alloc(scalar_layout(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_compiled(&k, &rows, &mut robj)
        }));
        let msg = panic_message(caught.expect_err("the kernel must panic"));
        assert!(msg.contains(want), "{msg}");
    }
}

/// A handle that lends its cells but must never be called through.
struct LendOnly(ReductionObject);

impl RObjHandle for LendOnly {
    fn accumulate(&mut self, _group: usize, _index: usize, _value: f64) {
        panic!("the in-place path called accumulate");
    }
    fn get(&self, group: usize, index: usize) -> f64 {
        self.0.get(group, index)
    }
    fn lend(&mut self) -> Option<freeride::LentCells<'_>> {
        self.0.lend()
    }
}

/// A handle that lends nothing and fails its first update.
struct Failing;

impl RObjHandle for Failing {
    fn accumulate(&mut self, _group: usize, _index: usize, _value: f64) {
        panic!("host update failed");
    }
    fn get(&self, _group: usize, _index: usize) -> f64 {
        0.0
    }
}

/// With a handle that lends its cells, the compiled kernel updates them
/// in place (the handle's `accumulate` panics if called) and matches
/// the interpreter bit for bit; with one that lends nothing, it calls
/// back, and a panic in the callback resumes in the host unchanged.
#[test]
fn lent_cells_are_updated_in_place() {
    skip_without_rustc!();
    // out[r0 % 3] += data[r0] * 0.1
    let k = kernel(
        vec![
            Instr::IConst { dst: 2, val: 3 },
            Instr::Const { dst: 3, val: 0.1 },
            ibin(ArithOp::Mod, 4, 0, 2),
            Instr::LoadData {
                dst: 5,
                path: 0,
                idx: vec![0],
            },
            bin(ArithOp::Mul, 6, 5, 3),
            Instr::Accumulate {
                group: 0,
                cell: 4,
                val: 6,
            },
        ],
        2,
        classes(7, &[2, 4]),
        vec![row_path()],
    );
    let rows: Vec<f64> = (0..50).map(|i| (i as f64).sqrt()).collect();
    let (interp, _) = run_both(&k, &rows, 1, 0, 1, vec![], vec![], 3);
    let mut lend_only = LendOnly(ReductionObject::alloc(scalar_layout(3)));
    run_compiled(&k, &rows, &mut lend_only);
    assert_bit_identical(&interp, lend_only.0.group_slice(0));

    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_compiled(&k, &rows, &mut Failing)
    }));
    let msg = panic_message(caught.expect_err("the callback must fail"));
    assert_eq!(msg, "host update failed");
}

/// `min`, `max` and `*` reductions bake their own op into the in-place
/// update: compiled and interpreted runs agree bit for bit under full
/// replication, and the trace shows every split took the lent path.
#[test]
fn min_max_product_reductions_are_bit_identical() {
    skip_without_rustc!();
    cfr_codegen::install();
    // Workers claim splits dynamically, so only exact products are
    // independent of the claim order: every partial product of B is
    // 5^a·2^b with a ≤ 20, which an f64 holds exactly.
    let src = "
        var A: [1..500] real;
        for i in 1..500 { A[i] = ((i * 37) % 101) * 0.25 - 7.5; }
        var B: [1..60] real;
        for i in 1..60 { B[i] = 0.5 + (i % 3) * 0.75; }
        var lo: real = min reduce A;
        var hi: real = max reduce A;
        var prod: real = * reduce B;
    ";
    let run = |backend| {
        let rec = std::sync::Arc::new(freeride::Recorder::new(freeride::TraceLevel::Phases));
        let out = cfr_core::Translator::new(OptLevel::Opt2, 4)
            .backend(backend)
            .traced(rec.clone())
            .run_program(src)
            .unwrap();
        assert_eq!(out.jobs.len(), 3);
        let vals: Vec<u64> = ["lo", "hi", "prod"]
            .iter()
            .map(|g| out.global(g).unwrap().as_f64().unwrap().to_bits())
            .collect();
        (vals, rec.drain())
    };
    let (interp, _) = run(freeride::KernelBackend::Interpreted);
    let (compiled, trace) = run(freeride::KernelBackend::Compiled);
    assert_eq!(interp, compiled);
    assert_eq!(trace.counters.get("core.codegen_jobs"), Some(&3));
    assert!(trace
        .counters
        .get("codegen.lent_splits")
        .is_some_and(|&n| n > 0));
    assert_eq!(trace.counters.get("codegen.callback_splits"), Some(&0));
}

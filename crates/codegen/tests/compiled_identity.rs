//! End-to-end identity tests: the compiled backend must be
//! **bit-identical** to the interpreter on the same kernel, split, and
//! state — for hand-built kernels covering every instruction family and
//! every control shape the structured emitter rebuilds.
//!
//! Tests that need `rustc` skip with a notice when it is unavailable,
//! so the suite stays green on stripped containers (the production path
//! degrades the same way, to the interpreter).

use cfr_codegen::{emit_kernel, load_or_compile, rustc_available, CompiledKernelRuntime};
use cfr_core::{
    compile_loop, detect, make_runner, ArithOp, CmpOp, CodegenError, Detected, Instr, Kernel,
    KernelRuntime, NavStep, OptLevel, RegClass,
};
use freeride::{
    CombineOp, GroupSpec, KernelBackend, RObjHandle, RObjLayout, Recorder, ReductionObject, Split,
    SplitKernel, TraceLevel,
};
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
    let compiled = CompiledKernelRuntime::new(loaded, nested, flat, row_lo);
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
        Instr::Halt,
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

/// A counted inner loop (`ICmp Le` pre-test, `IncRangeJump` back-edge)
/// with an if/else (`JumpIfZero` + `Jump`) inside — the opt-1/opt-2
/// loop shape, emitted as a Rust `for`.
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
        // r4 = k = lo; acc r5 = 0
        Instr::IMov { dst: 4, src: 2 },
        Instr::Const { dst: 5, val: 0.0 },
        Instr::ICmp {
            op: CmpOp::Le,
            dst: 10,
            a: 4,
            b: 3,
        },
        Instr::JumpIfZero {
            cond: 10,
            target: entry + 11,
        },
        // body: r6 = data[r0][r4]
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
        Instr::JumpIfZero {
            cond: 7,
            target: entry + 9,
        }, // → else
        bin(ArithOp::Add, 5, 5, 6),
        Instr::Jump { target: entry + 10 }, // → join
        Instr::Fma { dst: 5, a: 6, b: 6 },  // else
        // join: back-edge
        Instr::IncRangeJump {
            var: 4,
            hi: 3,
            target: entry + 4,
        },
        Instr::Accumulate {
            group: 0,
            cell: 8,
            val: 5,
        },
        Instr::Halt,
    ]);
    let k = kernel(
        code,
        entry,
        classes(11, &[2, 3, 4, 7, 8, 10]),
        vec![row_elem_path(4)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(source.contains("in r4..=r3 {"), "a Rust `for`:\n{source}");
    let rows: Vec<f64> = (0..32 * 4).map(|i| ((i * 37) % 11) as f64 * 0.5).collect();
    let (a, b) = run_both(&k, &rows, 4, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// A range loop whose body writes its own counter (skips an element
/// after a large one): emitted as a `loop` with the explicit
/// `if v < hi { v += 1 }` step instead of a Rust `for`.
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
        Instr::IMov { dst: 8, src: 2 },
        Instr::IMov { dst: 9, src: 3 },
        Instr::Const { dst: 10, val: 0.0 },
        Instr::ICmp {
            op: CmpOp::Le,
            dst: 11,
            a: 8,
            b: 9,
        },
        Instr::JumpIfZero {
            cond: 11,
            target: entry + 12,
        },
        // body: acc += data[r0][k % 4]; if that > 2 { k += 1 }
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
        Instr::JumpIfZero {
            cond: 14,
            target: entry + 11,
        },
        ibin(ArithOp::Add, 8, 8, 4),
        Instr::IncRangeJump {
            var: 8,
            hi: 9,
            target: entry + 5,
        },
        Instr::Accumulate {
            group: 0,
            cell: 6,
            val: 10,
        },
        Instr::Halt,
    ]);
    let k = kernel(
        code,
        entry,
        classes(15, &[2, 3, 4, 5, 6, 8, 9, 11, 12, 14]),
        vec![row_elem_path(4)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(
        source.contains("if r8 < r9 { r8 += 1; } else { break; }") && !source.contains("for __i"),
        "explicit step, no Rust `for`:\n{source}"
    );
    let rows: Vec<f64> = (0..24 * 4).map(|i| ((i * 37) % 11) as f64 * 0.5).collect();
    let (a, b) = run_both(&k, &rows, 4, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// A `while` whose trip count depends on the data: the header is
/// reached again by a backward `Jump`, the exit `JumpIfZero` becomes a
/// labeled `break`.
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
        Instr::ICmp {
            op: CmpOp::Lt,
            dst: 11,
            a: 9,
            b: 8,
        },
        Instr::JumpIfZero {
            cond: 11,
            target: entry + 12,
        },
        Instr::LoadData {
            dst: 12,
            path: 0,
            idx: vec![0, 9],
        },
        bin(ArithOp::Add, 10, 10, 12),
        ibin(ArithOp::Add, 9, 9, 3),
        Instr::Jump { target: entry + 6 },
        Instr::Accumulate {
            group: 0,
            cell: 5,
            val: 10,
        },
        Instr::Halt,
    ]);
    let k = kernel(
        code,
        entry,
        classes(13, &[2, 3, 4, 5, 7, 8, 9, 11]),
        vec![row_elem_path(4)],
    );
    let source = emit_kernel(&k).unwrap().source;
    assert!(
        source.contains("'w0: loop {") && source.contains("break 'w0;"),
        "a labeled loop with a break:\n{source}"
    );
    let rows: Vec<f64> = (0..40 * 4).map(|i| ((i * 37) % 11) as f64).collect();
    let (a, b) = run_both(&k, &rows, 4, 0, 1, vec![], vec![], 1);
    assert_bit_identical(&a, &b);
}

/// `if a > 1 && b < 3 { acc = a } else { acc = b }` then
/// `if a > 2 || b > 2 { acc += 1 }`, in the shapes the kernel compiler
/// gives `&&`, `||` and `if`/`else`.
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
    let at = |i: usize| entry + i;
    code.extend([
        Instr::LoadData {
            dst: 10,
            path: 0,
            idx: vec![0, 5],
        }, // 0: a
        Instr::LoadData {
            dst: 11,
            path: 0,
            idx: vec![0, 9],
        }, // 1: b
        Instr::Cmp {
            op: CmpOp::Gt,
            dst: 12,
            a: 10,
            b: 2,
        }, // 2
        Instr::IMov { dst: 13, src: 12 }, // 3: && takes the lhs
        Instr::JumpIfZero {
            cond: 12,
            target: at(7),
        }, // 4
        Instr::Cmp {
            op: CmpOp::Lt,
            dst: 14,
            a: 11,
            b: 3,
        }, // 5
        Instr::IMov { dst: 13, src: 14 }, // 6
        Instr::JumpIfZero {
            cond: 13,
            target: at(10),
        }, // 7: if
        Instr::Mov { dst: 15, src: 10 },  // 8: then
        Instr::Jump { target: at(11) },   // 9
        Instr::Mov { dst: 15, src: 11 },  // 10: else
        Instr::Cmp {
            op: CmpOp::Gt,
            dst: 16,
            a: 10,
            b: 4,
        }, // 11
        Instr::IMov { dst: 17, src: 16 }, // 12: || takes the lhs
        Instr::Not { dst: 18, src: 16 },  // 13
        Instr::JumpIfZero {
            cond: 18,
            target: at(17),
        }, // 14
        Instr::Cmp {
            op: CmpOp::Gt,
            dst: 19,
            a: 11,
            b: 4,
        }, // 15
        Instr::IMov { dst: 17, src: 19 }, // 16
        Instr::JumpIfZero {
            cond: 17,
            target: at(19),
        }, // 17
        bin(ArithOp::Add, 15, 15, 2),     // 18
        Instr::Accumulate {
            group: 0,
            cell: 5,
            val: 15,
        }, // 19
        Instr::Halt,
    ]);
    let k = kernel(
        code,
        entry,
        classes(20, &[5, 9, 12, 13, 14, 16, 17, 18, 19]),
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
        Instr::Halt,
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
            Instr::Halt,
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

/// Unsupported shapes surface as typed errors (here: a jump out of the
/// body), which the dispatch layer turns into interpreter fallback.
#[test]
fn unsupported_shape_is_typed_error() {
    let k = kernel(
        vec![Instr::Jump { target: 99 }, Instr::Halt],
        0,
        classes(2, &[]),
        vec![],
    );
    match emit_kernel(&k) {
        Err(CodegenError::Unsupported(msg)) => {
            assert!(msg.contains("99"), "names the target: {msg}")
        }
        Err(other) => panic!("expected Unsupported, got {other:?}"),
        Ok(_) => panic!("expected Unsupported, got successful emission"),
    }
}

/// Valid but unstructured bytecode — a backward `Jump` into the middle
/// of an `if` body, a second entry the structured emitter cannot
/// express — is `Unsupported`; `make_runner` then records the fallback
/// and runs the interpreter, which still computes the right answer.
#[test]
fn unstructured_bytecode_falls_back_to_the_interpreter() {
    cfr_codegen::install();
    let mut code = vec![
        Instr::IConst { dst: 2, val: 0 },
        Instr::IConst { dst: 3, val: 1 },
        Instr::IConst { dst: 4, val: 3 },
        Instr::IConst { dst: 5, val: 2 },
        Instr::Const { dst: 6, val: 1.0 },
        Instr::IConst { dst: 7, val: 0 }, // cell
    ];
    let entry = code.len();
    code.extend([
        Instr::IMov { dst: 8, src: 2 }, // 0: i = 0
        Instr::ICmp {
            op: CmpOp::Lt,
            dst: 9,
            a: 8,
            b: 4,
        }, // 1
        Instr::JumpIfZero {
            cond: 9,
            target: entry + 5,
        }, // 2: if i < 3 {
        ibin(ArithOp::Add, 8, 8, 3),    // 3:   i += 1   (the back-jump target)
        Instr::Accumulate {
            group: 0,
            cell: 7,
            val: 6,
        }, // 4: }
        Instr::ICmp {
            op: CmpOp::Lt,
            dst: 10,
            a: 8,
            b: 5,
        }, // 5
        Instr::JumpIfZero {
            cond: 10,
            target: entry + 8,
        }, // 6
        Instr::Jump { target: entry + 3 }, // 7: back into the if body
        Instr::Halt,
    ]);
    let k = kernel(code, entry, classes(11, &[2, 3, 4, 5, 7, 8, 9, 10]), vec![]);
    assert!(matches!(emit_kernel(&k), Err(CodegenError::Unsupported(_))));

    let recorder = Recorder::new(TraceLevel::Phases);
    let choice = make_runner(
        KernelBackend::Compiled,
        &k,
        Vec::new(),
        Vec::new(),
        1,
        OptLevel::Opt2,
        Some(&recorder),
    )
    .expect("the interpreter can still run it");
    assert_eq!(choice.backend, KernelBackend::Interpreted);
    assert!(matches!(
        choice.fallback,
        Some(CodegenError::Unsupported(_))
    ));
    let trace = recorder.drain();
    assert_eq!(trace.count("codegen.fallback"), 1);
    assert_eq!(trace.counters.get("core.codegen_fallback"), Some(&1));

    // Each row accumulates twice (i = 1, then the jump back for i = 2).
    let rows = vec![0.0; 5];
    let split = Split {
        rows: &rows,
        unit: 1,
        first_row: 0,
        row_count: 5,
    };
    let mut robj = ReductionObject::alloc(scalar_layout(1));
    choice
        .runner
        .run_split(&split, &mut robj as &mut dyn RObjHandle);
    assert_eq!(robj.group_slice(0), &[10.0]);
}

/// The translated opt-2 kernels of the paper's applications emit as
/// structured Rust: no block dispatcher, and every range-loop counter an
/// `i64` driving a Rust `for`.
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
            assert!(!source.contains("__blk"), "no block dispatcher:\n{source}");
            let counters: Vec<u16> = compiled
                .kernel
                .code
                .iter()
                .filter_map(|ins| match ins {
                    Instr::IncRangeJump { var, .. } => Some(*var),
                    _ => None,
                })
                .collect();
            assert!(!counters.is_empty());
            for v in counters {
                assert!(
                    source.contains(&format!("let mut r{v}: i64 = 0;"))
                        && source.contains(&format!("in r{v}..=")),
                    "counter r{v} is an i64 `for` variable:\n{source}"
                );
            }
            loops += 1;
        }
        assert!(loops > 0);
    }
}

//! Property tests: `Kernel::validate` is total — on *arbitrary* loop
//! nests and register classes it returns a typed
//! [`KernelValidateError`] (naming the offending pc) or `Ok`, and never
//! panics.
//!
//! This matters because both execution backends treat a validated
//! kernel as a license: the interpreter's block executor reads registers
//! without bounds checks from the file their class names, and the
//! codegen backend prints the tree without checks of its own.
//! `validate` is the single gatekeeper, so it must hold up against any
//! kernel a buggy translation strategy could emit — not just shapes the
//! current compiler produces.

use cfr_codegen::emit_kernel;
use cfr_core::{
    compile_loop, detect, ArithOp, CmpOp, Detected, Instr, Kernel, KernelRuntime, NavStep,
    OptLevel, RegClass,
};
use linearize::PathMeta;
use proptest::prelude::*;

/// Bound for generated operands, deliberately *larger* than the
/// register file / tables of the kernels under test so a healthy share
/// of generated instructions are malformed.
const OPERAND_BOUND: u16 = 24;

fn arb_arith() -> impl Strategy<Value = ArithOp> {
    prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
        Just(ArithOp::Mod),
        Just(ArithOp::Pow),
        Just(ArithOp::Min),
        Just(ArithOp::Max),
    ]
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_step() -> impl Strategy<Value = NavStep> {
    prop_oneof![
        (0usize..4).prop_map(NavStep::Field),
        (0..OPERAND_BOUND).prop_map(NavStep::Index),
    ]
}

/// A straight-line instruction.
fn arb_leaf() -> impl Strategy<Value = Instr> {
    let r = || 0..OPERAND_BOUND;
    let rs = || proptest::collection::vec(0..OPERAND_BOUND, 0..3);
    prop_oneof![
        (r(), -4.0..4.0f64).prop_map(|(dst, val)| Instr::Const { dst, val }),
        (r(), -4i64..4).prop_map(|(dst, val)| Instr::IConst { dst, val }),
        (r(), r()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        (r(), r()).prop_map(|(dst, src)| Instr::IMov { dst, src }),
        (arb_arith(), r(), r(), r()).prop_map(|(op, dst, a, b)| Instr::Bin { op, dst, a, b }),
        (arb_arith(), r(), r(), r()).prop_map(|(op, dst, a, b)| Instr::IBin { op, dst, a, b }),
        (arb_cmp(), r(), r(), r()).prop_map(|(op, dst, a, b)| Instr::Cmp { op, dst, a, b }),
        (arb_cmp(), r(), r(), r()).prop_map(|(op, dst, a, b)| Instr::ICmp { op, dst, a, b }),
        (r(), r()).prop_map(|(dst, src)| Instr::Not { dst, src }),
        (r(), r()).prop_map(|(dst, src)| Instr::Neg { dst, src }),
        (r(), r()).prop_map(|(dst, src)| Instr::IntToReal { dst, src }),
        (r(), r()).prop_map(|(dst, src)| Instr::RealToInt { dst, src }),
        (r(), r()).prop_map(|(dst, src)| Instr::Sqrt { dst, src }),
        (r(), r()).prop_map(|(dst, src)| Instr::Abs { dst, src }),
        r().prop_map(|dst| Instr::LoadRow { dst }),
        (r(), 0..OPERAND_BOUND, rs()).prop_map(|(dst, path, idx)| Instr::LoadData {
            dst,
            path,
            idx
        }),
        (r(), 0..OPERAND_BOUND, rs()).prop_map(|(dst, path, outer)| Instr::DataBase {
            dst,
            path,
            outer
        }),
        (r(), r(), r(), 0usize..8).prop_map(|(dst, base, k, stride)| Instr::LoadDataAt {
            dst,
            base,
            k,
            stride
        }),
        (
            r(),
            0..OPERAND_BOUND,
            proptest::collection::vec(arb_step(), 0..3)
        )
            .prop_map(|(dst, state, steps)| Instr::LoadStateNested { dst, state, steps }),
        (r(), 0..OPERAND_BOUND, 0..OPERAND_BOUND, rs()).prop_map(|(dst, state, path, idx)| {
            Instr::LoadStateFlat {
                dst,
                state,
                path,
                idx,
            }
        }),
        (r(), 0..OPERAND_BOUND, 0..OPERAND_BOUND, rs()).prop_map(|(dst, state, path, outer)| {
            Instr::StateBase {
                dst,
                state,
                path,
                outer,
            }
        }),
        (r(), 0..OPERAND_BOUND, r(), r(), 0usize..8).prop_map(|(dst, state, base, k, stride)| {
            Instr::LoadStateAt {
                dst,
                state,
                base,
                k,
                stride,
            }
        }),
        (r(), 0..OPERAND_BOUND, rs()).prop_map(|(dst, path, idx)| Instr::OutIndex {
            dst,
            path,
            idx
        }),
        (r(), r(), r()).prop_map(|(dst, a, b)| Instr::Fma { dst, a, b }),
        (0..OPERAND_BOUND, r(), r()).prop_map(|(group, cell, val)| Instr::Accumulate {
            group,
            cell,
            val
        }),
    ]
}

/// A straight-line instruction or a block-carrying one holding a few.
fn arb_instr() -> impl Strategy<Value = Instr> {
    let r = || 0..OPERAND_BOUND;
    let block = || proptest::collection::vec(arb_leaf(), 0..4);
    prop_oneof![
        arb_leaf(),
        arb_leaf(),
        arb_leaf(),
        arb_leaf(),
        arb_leaf(),
        (r(), r(), r(), block()).prop_map(|(var, lo, hi, body)| Instr::For { var, lo, hi, body }),
        (r(), block(), block()).prop_map(|(cond, then, els)| Instr::If { cond, then, els }),
        (block(), r(), block()).prop_map(|(head, cond, body)| Instr::While { head, cond, body }),
    ]
}

/// A scalar access path: one level, unit size 1 — enough for the path
/// table to be non-empty without exercising the linearizer here.
fn scalar_path() -> PathMeta {
    PathMeta {
        levels: 1,
        unit_size: vec![1],
        unit_offset: vec![Vec::new()],
        position: vec![Vec::new()],
        level_offset: Vec::new(),
        terminal_offset: 0,
    }
}

fn arb_class() -> impl Strategy<Value = RegClass> {
    prop_oneof![Just(RegClass::I64), Just(RegClass::F64)]
}

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        proptest::collection::vec(arb_instr(), 0..24),
        0usize..28,
        proptest::collection::vec(arb_class(), 0..12),
        0usize..3,
        (0usize..3, 0usize..3),
    )
        .prop_map(|(code, entry, regs, npaths, (states, groups))| Kernel {
            code,
            entry,
            regs,
            paths: vec![scalar_path(); npaths],
            state_names: vec!["s".into(); states],
            out_names: vec!["o".into(); groups],
            combine: freeride::CombineOp::Sum,
        })
}

/// The smallest well-formed kernel over the given tables: used as the
/// baseline that single-instruction mutations are injected into.
fn trivial_kernel(regs: usize, npaths: usize) -> Kernel {
    Kernel {
        code: vec![Instr::IConst { dst: 0, val: 0 }, Instr::LoadRow { dst: 1 }],
        entry: 1,
        regs: vec![RegClass::I64; regs],
        paths: vec![scalar_path(); npaths],
        state_names: Vec::new(),
        out_names: Vec::new(),
        combine: freeride::CombineOp::Sum,
    }
}

proptest! {
    /// `validate` is total over arbitrary bytecode: whatever garbage a
    /// broken translation strategy hands it, the answer is a `Result`,
    /// never a panic (proptest turns a panic inside the closure into a
    /// test failure).
    #[test]
    fn validate_never_panics_on_arbitrary_bytecode(
        kernel in arb_kernel(),
        states in 0usize..4,
        groups in 0usize..4,
    ) {
        let _ = kernel.validate(states, groups);
    }

    /// `KernelRuntime::new` (the interpreter's front door) shares the
    /// totality guarantee and reports rejects as typed `CoreError`s
    /// that name the strategy under which the kernel was produced.
    #[test]
    fn runtime_construction_never_panics_on_arbitrary_bytecode(kernel in arb_kernel()) {
        if let Err(e) = KernelRuntime::new(kernel, Vec::new(), Vec::new(), 1, OptLevel::Opt2) {
            let msg = e.to_string();
            prop_assert!(
                msg.contains("opt-2"),
                "reject must name the strategy: {msg}"
            );
        }
    }

    /// When `validate` accepts, the acceptance is meaningful: the
    /// preamble holds only constants, and every register operand really
    /// is inside the register file and of the class its instruction
    /// needs, every path inside the table with one index per level — in
    /// every nested block, checked here against an independent re-walk
    /// of the tree.
    #[test]
    fn validate_ok_implies_every_operand_in_bounds(
        kernel in arb_kernel(),
        states in 0usize..4,
        groups in 0usize..4,
    ) {
        if kernel.validate(states, groups).is_err() {
            return Ok(());
        }
        assert_sound(&kernel);
    }

    /// `validate` is the codegen backend's precondition and a nested
    /// state walk its one refusal: a kernel prints exactly when it
    /// validates against its own state and group tables and reads state
    /// only flat.
    #[test]
    fn emit_succeeds_exactly_on_valid_kernels(kernel in arb_kernel()) {
        let valid = kernel
            .validate(kernel.state_names.len(), kernel.out_names.len())
            .is_ok();
        let nested = kernel.count_matching(|i| matches!(i, Instr::LoadStateNested { .. })) > 0;
        prop_assert_eq!(
            valid && !nested,
            emit_kernel(&kernel).is_ok(),
            "{}",
            kernel.disassemble()
        );
    }

    /// Flipping one register's class in a kernel the compiler produced
    /// never panics `validate`; an `Ok` still means every operand is in
    /// bounds and of its class, and flipping a register an instruction
    /// uses (or a row register) is always rejected.
    #[test]
    fn flipping_a_register_class_never_panics(
        which in 0usize..6,
        pick in 0usize..1024,
    ) {
        let mut kernel = compiled_kernels()[which].clone();
        prop_assert!(kernel.validate(kernel.state_names.len(), kernel.out_names.len()).is_ok());
        let r = pick % kernel.regs.len();
        kernel.regs[r] = match kernel.regs[r] {
            RegClass::I64 => RegClass::F64,
            RegClass::F64 => RegClass::I64,
        };
        let used = r < 2 || kernel.count_matching(|ins| {
            operand_regs(ins).iter().any(|&(reg, _)| reg as usize == r)
        }) > 0;
        match kernel.validate(kernel.state_names.len(), kernel.out_names.len()) {
            Ok(()) => {
                prop_assert!(!used, "flipped r{r} is used, yet the kernel validated");
                assert_sound(&kernel);
            }
            Err(_) => prop_assert!(used, "flipping unused r{r} was rejected"),
        }
    }

    /// Injecting a single bad instruction into an otherwise valid
    /// kernel is always caught, and the error names the exact pc of the
    /// mutation (pre-order, so one nested in a `For` body counts the
    /// `For` first): malformed kernels are *rejected*, not executed or
    /// panicked on.
    #[test]
    fn single_bad_operand_is_rejected_at_its_pc(
        kind in 0usize..8,
        overshoot in 0u16..8,
    ) {
        let regs = 4usize;
        let states = 2usize;
        let groups = 2usize;
        let mut kernel = trivial_kernel(regs, 2);
        let bad_reg = regs as u16 + overshoot;
        let end = kernel.code.len();
        let (pc, at, bad) = match kind {
            0 => (end, end, Instr::IMov { dst: bad_reg, src: 0 }),
            1 => (end, end, Instr::DataBase { dst: 0, path: 2 + overshoot, outer: vec![] }),
            2 => (end, end, Instr::StateBase { dst: 0, state: states as u16 + overshoot, path: 0, outer: vec![] }),
            3 => (end, end, Instr::Accumulate { group: groups as u16 + overshoot, cell: 0, val: 1 }),
            // One index too many for the one-level path.
            4 => (end, end, Instr::OutIndex { dst: 0, path: 0, idx: vec![0; 2 + overshoot as usize] }),
            5 => (end, end, Instr::DataBase { dst: 0, path: 1, outer: vec![0; 1 + overshoot as usize] }),
            // A non-constant at the head of the preamble.
            6 => (0, 0, Instr::LoadRow { dst: 0 }),
            _ => (end + 1, end, Instr::For {
                var: 2,
                lo: 0,
                hi: 1,
                body: vec![Instr::IMov { dst: bad_reg, src: 0 }],
            }),
        };
        kernel.code.insert(at, bad);
        let err = kernel.validate(states, groups).expect_err("mutation must be rejected");
        prop_assert_eq!(err.pc, Some(pc), "error must name the mutated pc: {}", err);
    }

    /// A class mismatch is caught at its pc, with a reason naming the
    /// register: a real used as an index, loop variable or condition,
    /// an int accumulated without conversion.
    #[test]
    fn class_mismatch_is_rejected_at_its_pc(kind in 0usize..5) {
        let mut kernel = trivial_kernel(4, 2);
        kernel.regs.push(RegClass::F64); // r4
        let bad = match kind {
            0 => Instr::LoadData { dst: 4, path: 0, idx: vec![4] },
            1 => Instr::For { var: 4, lo: 2, hi: 2, body: vec![] },
            2 => Instr::Accumulate { group: 0, cell: 2, val: 3 },
            3 => Instr::If { cond: 4, then: vec![], els: vec![] },
            _ => Instr::While { head: vec![], cond: 4, body: vec![] },
        };
        let pc = kernel.code.len();
        kernel.code.push(bad);
        let err = kernel.validate(2, 2).expect_err("class mismatch must be rejected");
        prop_assert_eq!(err.pc, Some(pc), "error must name the pc: {}", err);
        prop_assert!(err.reason.contains("used as"), "names the class: {}", err);
    }

    /// Whole-kernel failures (entry past the end, a real row register)
    /// are rejected with `pc: None` rather than pinned on an innocent
    /// instruction.
    #[test]
    fn truncated_kernels_are_rejected_without_a_pc(extra_entry in 1usize..8) {
        let mut kernel = trivial_kernel(4, 1);
        kernel.entry = kernel.code.len() + extra_entry;
        let err = kernel.validate(0, 0).expect_err("entry past the end must be rejected");
        prop_assert_eq!(err.pc, None);

        let mut kernel = trivial_kernel(4, 1);
        kernel.code.clear();
        kernel.entry = 0;
        kernel.regs[extra_entry % 2] = RegClass::F64;
        let err = kernel.validate(0, 0).expect_err("a real row register must be rejected");
        prop_assert_eq!(err.pc, None);
    }
}

/// Every accepted kernel is sound: a constant preamble, each operand
/// inside the register file and of the class the independent
/// enumeration below gives it, every path inside its table with one
/// index per level, in every nested block.
fn assert_sound(kernel: &Kernel) {
    prop_assert!(kernel.entry <= kernel.code.len());
    prop_assert!(kernel.code[..kernel.entry]
        .iter()
        .all(|ins| matches!(ins, Instr::Const { .. } | Instr::IConst { .. })));
    assert_block_sound(kernel, &kernel.code);
}

fn assert_block_sound(kernel: &Kernel, code: &[Instr]) {
    for ins in code {
        for (reg, class) in operand_regs(ins) {
            prop_assert_eq!(
                kernel.regs.get(reg as usize),
                Some(&class),
                "{:?}: r{} escapes the register file or its class",
                ins,
                reg
            );
        }
        for (path, indices) in operand_paths(ins) {
            prop_assert!(
                kernel
                    .paths
                    .get(path as usize)
                    .is_some_and(|m| m.levels == indices && indices > 0),
                "{ins:?} escapes the path table or its arity"
            );
        }
        for block in ins.blocks() {
            assert_block_sound(kernel, block);
        }
    }
}
/// The opt-2 and generated kernels of k-means, PCA's covariance pass and
/// the histogram: real compiler output, with both register classes.
fn compiled_kernels() -> &'static [Kernel] {
    static KERNELS: std::sync::OnceLock<Vec<Kernel>> = std::sync::OnceLock::new();
    KERNELS.get_or_init(compile_kernels)
}

fn compile_kernels() -> Vec<Kernel> {
    use chapel_frontend::programs;
    let mut out = Vec::new();
    for src in [
        programs::kmeans(20, 3, 2),
        programs::pca(3, 8),
        programs::histogram(20, 4),
    ] {
        let program = chapel_frontend::parse(&src).unwrap();
        let analysis = chapel_sema::analyze(&program).unwrap();
        let red = detect(&program, &analysis)
            .detected
            .values()
            .filter_map(|d| match d {
                Detected::Loop(l) => Some(l.clone()),
                _ => None,
            })
            .next_back()
            .expect("a reduction loop");
        for opt in [OptLevel::Opt2, OptLevel::Generated] {
            out.push(compile_loop(&program, &analysis, &red, opt).unwrap().kernel);
        }
    }
    out
}

/// Independent enumeration of an instruction's register operands and
/// the class each must have (the re-walk the soundness checks use).
/// Kept deliberately separate from `validate`'s own match.
fn operand_regs(ins: &Instr) -> Vec<(u16, RegClass)> {
    use RegClass::{F64 as F, I64 as I};
    let ints = |rs: &[u16]| rs.iter().map(|&r| (r, I)).collect::<Vec<_>>();
    match ins {
        Instr::Const { dst, .. } => vec![(*dst, F)],
        Instr::IConst { dst, .. } | Instr::LoadRow { dst } => vec![(*dst, I)],
        Instr::Mov { dst, src }
        | Instr::Neg { dst, src }
        | Instr::Sqrt { dst, src }
        | Instr::Abs { dst, src } => vec![(*dst, F), (*src, F)],
        Instr::IMov { dst, src } | Instr::Not { dst, src } => vec![(*dst, I), (*src, I)],
        Instr::IntToReal { dst, src } => vec![(*dst, F), (*src, I)],
        Instr::RealToInt { dst, src } => vec![(*dst, I), (*src, F)],
        Instr::Bin { dst, a, b, .. } | Instr::Fma { dst, a, b } => {
            vec![(*dst, F), (*a, F), (*b, F)]
        }
        Instr::IBin { dst, a, b, .. } | Instr::ICmp { dst, a, b, .. } => {
            vec![(*dst, I), (*a, I), (*b, I)]
        }
        Instr::Cmp { dst, a, b, .. } => vec![(*dst, I), (*a, F), (*b, F)],
        Instr::For { var, lo, hi, .. } => vec![(*var, I), (*lo, I), (*hi, I)],
        Instr::If { cond, .. } | Instr::While { cond, .. } => vec![(*cond, I)],
        Instr::LoadData { dst, idx, .. } | Instr::LoadStateFlat { dst, idx, .. } => {
            let mut v = vec![(*dst, F)];
            v.extend(ints(idx));
            v
        }
        Instr::OutIndex {
            dst, idx: outer, ..
        }
        | Instr::DataBase { dst, outer, .. }
        | Instr::StateBase { dst, outer, .. } => {
            let mut v = vec![(*dst, I)];
            v.extend(ints(outer));
            v
        }
        Instr::LoadDataAt { dst, base, k, .. } | Instr::LoadStateAt { dst, base, k, .. } => {
            vec![(*dst, F), (*base, I), (*k, I)]
        }
        Instr::LoadStateNested { dst, steps, .. } => {
            let mut v = vec![(*dst, F)];
            v.extend(steps.iter().filter_map(|s| match s {
                NavStep::Index(r) => Some((*r, I)),
                NavStep::Field(_) => None,
            }));
            v
        }
        Instr::Accumulate { cell, val, .. } => vec![(*cell, I), (*val, F)],
    }
}

/// Each path an instruction reads, with the number of indices it
/// passes (`Base` instructions add the implicit innermost 0).
fn operand_paths(ins: &Instr) -> Vec<(u16, usize)> {
    match ins {
        Instr::LoadData { path, idx, .. }
        | Instr::LoadStateFlat { path, idx, .. }
        | Instr::OutIndex { path, idx, .. } => vec![(*path, idx.len())],
        Instr::DataBase { path, outer, .. } | Instr::StateBase { path, outer, .. } => {
            vec![(*path, outer.len() + 1)]
        }
        _ => Vec::new(),
    }
}

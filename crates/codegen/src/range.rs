//! The emitter's range analysis: which slice loads of a kernel are in
//! bounds on every row, so they can be printed as unchecked reads.
//!
//! Every `I64` register gets an abstract value `row·r0 + [lo, hi]`: an
//! integer interval plus a non-negative multiple of the split-local row
//! `r0`, which runs over `0..row_count`. Constants come from the
//! preamble, a `For` variable ranges over its bounds, and `+`, `-`,
//! `*` by a constant and `computeIndex` combine values exactly
//! (everything else, and any overflow, is unknown). `For` and `While`
//! bodies iterate to a fixpoint (joins, then widening to unknown), `If`
//! joins its arms.
//!
//! A load is **proven** when every register its index reads is
//! non-negative (so each `as usize` cast is exact) and:
//!
//! * a dataset load `row·r0 + [lo, hi]` has `row ≤ U` and `hi < U`,
//!   where `U` is the dataset unit (level 0 of the dataset paths).
//!   Given `rows.len() ≥ row_count·U`, which the emitted kernel checks
//!   once per split, the index is at most `U·(row_count−1) + U−1`,
//!   inside the rows;
//! * a state load does not depend on the row (`row = 0`), and state
//!   `s` holds more than `hi` slots. The bound runtime checks that once,
//!   when it binds the state ([`RangeProof::state_len`]).
//!
//! A load that is not proven stays a checked index and panics exactly
//! as the interpreter's does.

use cfr_core::{ArithOp, Instr, Kernel};
use linearize::PathMeta;
use std::collections::HashMap;

/// `row·r0 + x` for some `x` in `lo..=hi`, with `row ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Aff {
    row: i64,
    lo: i64,
    hi: i64,
}

/// An abstract `I64` value; `None` is any value.
type Val = Option<Aff>;

fn aff(row: Option<i64>, lo: Option<i64>, hi: Option<i64>) -> Val {
    let (row, lo, hi) = (row?, lo?, hi?);
    (row >= 0).then_some(Aff { row, lo, hi })
}

fn konst(v: i64) -> Val {
    aff(Some(0), Some(v), Some(v))
}

fn add(a: Val, b: Val) -> Val {
    let (a, b) = (a?, b?);
    aff(
        a.row.checked_add(b.row),
        a.lo.checked_add(b.lo),
        a.hi.checked_add(b.hi),
    )
}

fn sub(a: Val, b: Val) -> Val {
    let (a, b) = (a?, b?);
    aff(
        a.row.checked_sub(b.row),
        a.lo.checked_sub(b.hi),
        a.hi.checked_sub(b.lo),
    )
}

fn scale(a: Val, c: i64) -> Val {
    let a = a?;
    let (x, y) = (a.lo.checked_mul(c), a.hi.checked_mul(c));
    let (lo, hi) = if c >= 0 { (x, y) } else { (y, x) };
    aff(a.row.checked_mul(c), lo, hi)
}

fn constant(v: Val) -> Option<i64> {
    v.filter(|a| a.row == 0 && a.lo == a.hi).map(|a| a.lo)
}

fn mul(a: Val, b: Val) -> Val {
    match (constant(a), constant(b)) {
        (Some(c), _) => scale(b, c),
        (_, Some(c)) => scale(a, c),
        _ => None,
    }
}

fn join(a: Val, b: Val) -> Val {
    let (a, b) = (a?, b?);
    (a.row == b.row).then_some(Aff {
        row: a.row,
        lo: a.lo.min(b.lo),
        hi: a.hi.max(b.hi),
    })
}

/// `v`, if `as usize` is exact on it (provably non-negative).
fn nonneg(v: Val) -> Val {
    v.filter(|a| a.lo >= 0)
}

/// `computeIndex` as the emitter prints it:
/// `Σ unit_size[i]·idx[i] + offsets`, each index cast `as usize`.
fn index(meta: &PathMeta, idx: &[Val]) -> Val {
    let mut acc = konst(0);
    for (i, &v) in idx.iter().enumerate() {
        let off = match i + 1 < meta.levels {
            true => meta.level_offset[i],
            false => meta.terminal_offset,
        };
        let unit = i64::try_from(meta.unit_size[i]).ok()?;
        let off = i64::try_from(off).ok()?;
        acc = add(add(acc, scale(nonneg(v), unit)), konst(off));
    }
    acc
}

/// `base + k·stride`, each register cast `as usize`.
fn strided(base: Val, k: Val, stride: usize) -> Val {
    add(nonneg(base), scale(nonneg(k), i64::try_from(stride).ok()?))
}

/// What the last visit of one load found. The last visit of every
/// instruction happens at the fixpoint of all its enclosing loops.
#[derive(Clone, Copy)]
enum Site {
    /// A dataset load; it needs this many slots per row.
    Data(i64),
    /// A row-independent load of a state; it needs this many slots.
    State(usize, i64),
    /// Not provable.
    Checked,
}

/// The analysis result for one kernel.
#[derive(Debug, Default)]
pub struct RangeProof {
    /// Proven loads, by instruction address within the analysed kernel.
    proven: Vec<*const Instr>,
    /// Slots per row the proven dataset loads assume (0 when none is
    /// proven): each split must hold at least `row_count · data_unit`.
    pub data_unit: usize,
    /// Slots each flat-state buffer must hold for its proven loads.
    pub state_len: Vec<usize>,
    /// Slice loads printed unchecked.
    pub loads_proven: usize,
    /// Slice loads that keep their bounds check.
    pub loads_checked: usize,
}

impl RangeProof {
    /// Whether `ins` (an instruction of the analysed kernel) is a load
    /// proven in range.
    pub fn is_proven(&self, ins: &Instr) -> bool {
        self.proven.contains(&(ins as *const Instr))
    }
}

/// Rounds of plain joins before a loop widens every register that still
/// changes to unknown (so accumulating counters terminate).
const JOIN_ROUNDS: usize = 4;

struct Analysis<'k> {
    kernel: &'k Kernel,
    sites: HashMap<*const Instr, Site>,
    /// The dataset unit: level 0 of the dataset paths (0 when none).
    unit: usize,
}

impl Analysis<'_> {
    fn block(&mut self, code: &[Instr], st: &mut Vec<Val>) {
        for ins in code {
            self.instr(ins, st);
        }
    }

    /// Run `trip` (one loop trip, from the state at the top of the
    /// loop) until that state is a fixpoint; `trip` returns the state
    /// where the loop exits, which then replaces `st`.
    fn fixpoint(
        &mut self,
        st: &mut Vec<Val>,
        mut trip: impl FnMut(&mut Self, &mut Vec<Val>) -> Vec<Val>,
    ) {
        let mut head = st.clone();
        for round in 0.. {
            let mut s = head.clone();
            let exit = trip(self, &mut s);
            let next: Vec<Val> = head.iter().zip(&s).map(|(a, b)| join(*a, *b)).collect();
            if next == head {
                *st = exit;
                return;
            }
            let widen = round >= JOIN_ROUNDS;
            head = (head.iter().zip(next))
                .map(|(a, b)| if widen && *a != b { None } else { b })
                .collect();
        }
    }

    /// Record the index value of a dataset load (`state` is `None`) or
    /// of a load of state `state`.
    fn load(&mut self, ins: &Instr, state: Option<u16>, v: Val) {
        let site = match (nonneg(v), state) {
            (Some(a), None) => Site::Data(a.row.max(a.hi.saturating_add(1))),
            (Some(a), Some(s)) if a.row == 0 => Site::State(s as usize, a.hi.saturating_add(1)),
            _ => Site::Checked,
        };
        self.sites.insert(ins, site);
    }

    fn instr(&mut self, ins: &Instr, st: &mut Vec<Val>) {
        let kernel = self.kernel;
        let paths = &kernel.paths;
        let get = |r: &u16| st[*r as usize];
        let vals = |rs: &[u16]| rs.iter().map(get).collect::<Vec<_>>();
        let (dst, val) = match ins {
            Instr::For { var, lo, hi, body } => {
                let range = match (get(lo), get(hi)) {
                    (Some(l), Some(h)) if l.row == 0 && h.row == 0 => {
                        aff(Some(0), Some(l.lo), Some(h.hi))
                    }
                    _ => None,
                };
                self.fixpoint(st, |a, s| {
                    let exit = s.clone();
                    s[*var as usize] = range;
                    a.block(body, s);
                    exit
                });
                return;
            }
            Instr::If { then, els, .. } => {
                let mut t = st.clone();
                self.block(then, &mut t);
                self.block(els, st);
                for (a, b) in st.iter_mut().zip(t) {
                    *a = join(*a, b);
                }
                return;
            }
            Instr::While { head, body, .. } => {
                self.fixpoint(st, |a, s| {
                    a.block(head, s);
                    let exit = s.clone();
                    a.block(body, s);
                    exit
                });
                return;
            }
            Instr::IConst { dst, val } => (dst, konst(*val)),
            Instr::IMov { dst, src } => (dst, get(src)),
            Instr::IBin { op, dst, a, b } => match op {
                ArithOp::Add => (dst, add(get(a), get(b))),
                ArithOp::Sub => (dst, sub(get(a), get(b))),
                ArithOp::Mul => (dst, mul(get(a), get(b))),
                _ => (dst, None),
            },
            Instr::ICmp { dst, .. } | Instr::Cmp { dst, .. } | Instr::Not { dst, .. } => {
                (dst, aff(Some(0), Some(0), Some(1)))
            }
            Instr::RealToInt { dst, .. } | Instr::LoadRow { dst } => (dst, None),
            Instr::DataBase { dst, path, outer }
            | Instr::StateBase {
                dst, path, outer, ..
            } => {
                let mut idx = vals(outer);
                idx.push(konst(0));
                if matches!(ins, Instr::DataBase { .. }) {
                    self.unit = self.unit.max(paths[*path as usize].unit_size[0]);
                }
                (dst, index(&paths[*path as usize], &idx))
            }
            Instr::OutIndex { dst, path, idx } => (dst, index(&paths[*path as usize], &vals(idx))),
            Instr::LoadData { path, idx, .. } => {
                self.unit = self.unit.max(paths[*path as usize].unit_size[0]);
                let v = index(&paths[*path as usize], &vals(idx));
                return self.load(ins, None, v);
            }
            Instr::LoadDataAt {
                base, k, stride, ..
            } => {
                let v = strided(get(base), get(k), *stride);
                return self.load(ins, None, v);
            }
            Instr::LoadStateFlat {
                state, path, idx, ..
            } => {
                let v = index(&paths[*path as usize], &vals(idx));
                return self.load(ins, Some(*state), v);
            }
            Instr::LoadStateAt {
                state,
                base,
                k,
                stride,
                ..
            } => {
                let v = strided(get(base), get(k), *stride);
                return self.load(ins, Some(*state), v);
            }
            // `F64` results and updates: no `I64` register changes.
            Instr::Const { .. }
            | Instr::Mov { .. }
            | Instr::Bin { .. }
            | Instr::Neg { .. }
            | Instr::Sqrt { .. }
            | Instr::Abs { .. }
            | Instr::IntToReal { .. }
            | Instr::Fma { .. }
            | Instr::LoadStateNested { .. }
            | Instr::Accumulate { .. } => return,
        };
        st[*dst as usize] = val;
    }
}

/// Analyse a validated kernel.
pub fn prove(kernel: &Kernel) -> RangeProof {
    let mut st = vec![None; kernel.regs.len().max(2)];
    let mut a = Analysis {
        kernel,
        sites: HashMap::new(),
        unit: 0,
    };
    let (preamble, body) = kernel.code.split_at(kernel.entry);
    a.block(preamble, &mut st);
    // The row loop: each trip binds r0 to this row and r1 to its Chapel
    // value, and a value computed from an earlier row is unknown.
    a.fixpoint(&mut st, |a, s| {
        let exit = s.clone();
        for v in s.iter_mut().filter(|v| v.is_some_and(|a| a.row != 0)) {
            *v = None;
        }
        s[0] = aff(Some(1), Some(0), Some(0));
        s[1] = None;
        a.block(body, s);
        exit
    });
    let mut proof = RangeProof {
        state_len: vec![0; kernel.state_names.len()],
        ..RangeProof::default()
    };
    for (&ins, site) in &a.sites {
        let proven = match *site {
            Site::Data(need) if need <= a.unit as i64 => {
                proof.data_unit = a.unit;
                true
            }
            Site::State(s, need) => {
                proof.state_len[s] = proof.state_len[s].max(need as usize);
                true
            }
            _ => false,
        };
        if proven {
            proof.proven.push(ins);
            proof.loads_proven += 1;
        } else {
            proof.loads_checked += 1;
        }
    }
    proof
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use cfr_core::RegClass;

    /// `data[row · unit + k]` over rows of `unit` slots.
    fn row_elem(unit: usize) -> PathMeta {
        PathMeta {
            levels: 2,
            unit_size: vec![unit, 1],
            unit_offset: vec![vec![], vec![]],
            position: vec![vec![], vec![]],
            level_offset: vec![0],
            terminal_offset: 0,
        }
    }

    /// Registers r0..r8 are `I64`, r9 (every load's destination) `F64`.
    fn kernel(code: Vec<Instr>, entry: usize) -> Kernel {
        let mut regs = vec![RegClass::I64; 10];
        regs[9] = RegClass::F64;
        Kernel {
            code,
            entry,
            regs,
            paths: vec![row_elem(3)],
            state_names: vec![],
            out_names: vec![],
            combine: freeride::CombineOp::Sum,
        }
    }

    fn load(idx: Vec<u16>) -> Instr {
        Instr::LoadData {
            dst: 9,
            path: 0,
            idx,
        }
    }

    fn proven(k: &Kernel, load_at: &[usize]) -> Vec<bool> {
        assert!(k.validate(0, 0).is_ok());
        let proof = prove(k);
        load_at
            .iter()
            .map(|&i| proof.is_proven(&k.code[i]))
            .collect()
    }

    #[test]
    fn loads_inside_the_row_are_proven_and_others_are_not() {
        let k = kernel(
            vec![
                Instr::IConst { dst: 2, val: 2 },
                Instr::IConst { dst: 3, val: 3 },
                // data[r0][2]: inside the row.
                load(vec![0, 2]),
                // data[r0][3]: the next row's first slot.
                load(vec![0, 3]),
                // data[r0][r1]: r1 is the Chapel row, unknown.
                load(vec![0, 1]),
            ],
            2,
        );
        assert_eq!(proven(&k, &[2, 3, 4]), [true, false, false]);
    }

    #[test]
    fn a_value_carried_across_rows_is_not_trusted() {
        // r4 = 0 once; each row loads data[0][r4], then r4 += 2.
        let k = kernel(
            vec![
                Instr::IConst { dst: 4, val: 0 },
                Instr::IConst { dst: 5, val: 2 },
                Instr::IConst { dst: 6, val: 0 },
                load(vec![6, 4]),
                Instr::IBin {
                    op: ArithOp::Add,
                    dst: 4,
                    a: 4,
                    b: 5,
                },
            ],
            3,
        );
        assert_eq!(proven(&k, &[3]), [false]);
    }

    #[test]
    fn a_for_variable_ranges_over_its_bounds() {
        // for r7 in 0..=2 { data[r0][r7] } and for r8 in 0..=3 { data[r0][r8] }
        let for_load = |var: u16, hi: u16| Instr::For {
            var,
            lo: 2,
            hi,
            body: vec![load(vec![0, var])],
        };
        let k = kernel(
            vec![
                Instr::IConst { dst: 2, val: 0 },
                Instr::IConst { dst: 3, val: 2 },
                Instr::IConst { dst: 4, val: 3 },
                for_load(7, 3),
                for_load(8, 4),
            ],
            3,
        );
        assert!(k.validate(0, 0).is_ok());
        let proof = prove(&k);
        assert_eq!((proof.loads_proven, proof.loads_checked), (1, 1));
        assert_eq!(proof.data_unit, 3);
    }
}

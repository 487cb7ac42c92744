//! The cluster task registry.
//!
//! Closures cannot cross a process boundary, so distributed jobs name a
//! **task** from this registry instead; the `cfr-node` binary carries
//! the same registry, making nodes self-contained. A task is
//! parameterized by job-constant integers (`params`, e.g. `[k, d]` for
//! k-means) and a per-round broadcast `state` vector (e.g. the current
//! centroids), and provides:
//!
//! * the reduction-object layout,
//! * the local-reduction kernel for one round, and
//! * the coordinator-side `step` that folds the globally combined
//!   object into the next round's state (the FREERIDE outer loop).
//!
//! Built-in tasks: `"sum"`, `"kmeans"`, `"pca.mean"`, `"pca.cov"` —
//! mirroring the kernels in `cfr-apps` so cluster results are
//! differentially testable against the single-process drivers — plus
//! the kernel-IR family `"chapel.kmeans"`, which compiles the canned
//! Chapel program through the detect→compile pipeline on the node and
//! dispatches it through `cfr_core::make_runner`, honouring the job's
//! [`freeride::KernelBackend`] (interpreter or native codegen).

use std::sync::Arc;

use freeride::{
    Accumulator, CombineOp, GroupSpec, KernelBackend, RObjHandle, RObjLayout, ReductionObject,
    Split,
};
use linearize::{Linearizer, Shape, Value};
use obs::Recorder;

use crate::error::DistError;

/// A per-round kernel closure, boxed for storage in a task instance.
pub type TaskKernel = Box<dyn Fn(&Split<'_>, &mut dyn RObjHandle) + Sync + Send>;

/// The names of all built-in tasks.
pub const BUILTIN_TASKS: &[&str] = &[
    "sum",
    "kmeans",
    "pca.mean",
    "pca.cov",
    "chapel.kmeans",
    "sparse.kmeans",
    "sparse.mttkrp",
];

fn bad<T>(reason: impl Into<String>) -> Result<T, DistError> {
    Err(DistError::BadTask {
        reason: reason.into(),
    })
}

fn param(params: &[i64], i: usize, task: &str, what: &str) -> Result<usize, DistError> {
    match params.get(i) {
        Some(&v) if v > 0 => Ok(v as usize),
        Some(&v) => bad(format!("{task}: {what} must be positive, got {v}")),
        None => bad(format!("{task}: missing param {i} ({what})")),
    }
}

/// The code-generation strategy parameter of the `chapel.*` tasks
/// (0 = generated, 1 = opt-1, 2 = opt-2).
fn opt_param(params: &[i64], i: usize, task: &str) -> Result<cfr_core::OptLevel, DistError> {
    match params.get(i) {
        Some(0) => Ok(cfr_core::OptLevel::Generated),
        Some(1) => Ok(cfr_core::OptLevel::Opt1),
        Some(2) => Ok(cfr_core::OptLevel::Opt2),
        Some(&v) => bad(format!("{task}: opt level must be 0..=2, got {v}")),
        None => bad(format!("{task}: missing param {i} (opt level)")),
    }
}

/// The reduction-object layout for `task` with `params`.
pub fn layout(task: &str, params: &[i64]) -> Result<Arc<RObjLayout>, DistError> {
    match task {
        "sum" => Ok(RObjLayout::new(vec![GroupSpec::new(
            "sum",
            1,
            CombineOp::Sum,
        )])),
        "kmeans" => {
            let k = param(params, 0, task, "k")?;
            let d = param(params, 1, task, "d")?;
            Ok(RObjLayout::new(vec![GroupSpec::new(
                "newCent",
                k * (d + 1),
                CombineOp::Sum,
            )]))
        }
        "chapel.kmeans" => {
            let k = param(params, 1, task, "k")?;
            let d = param(params, 2, task, "d")?;
            Ok(RObjLayout::new(vec![GroupSpec::new(
                "newCent",
                k * (d + 1),
                CombineOp::Sum,
            )]))
        }
        "sparse.kmeans" => {
            let k = param(params, 0, task, "k")?;
            let cols = param(params, 1, task, "cols")?;
            Ok(RObjLayout::new(vec![GroupSpec::new(
                "newCent",
                k * (cols + 1),
                CombineOp::Sum,
            )]))
        }
        "sparse.mttkrp" => {
            let im = param(params, 0, task, "dims[0]")?;
            let rank = param(params, 3, task, "rank")?;
            Ok(RObjLayout::new(vec![GroupSpec::new(
                "M",
                im * rank,
                CombineOp::Sum,
            )]))
        }
        "pca.mean" => {
            let rows = param(params, 0, task, "rows")?;
            Ok(RObjLayout::new(vec![GroupSpec::new(
                "mean",
                rows,
                CombineOp::Sum,
            )]))
        }
        "pca.cov" => {
            let rows = param(params, 0, task, "rows")?;
            Ok(RObjLayout::new(vec![GroupSpec::new(
                "cov",
                rows * rows,
                CombineOp::Sum,
            )]))
        }
        other => bad(format!(
            "unknown task `{other}` (built-ins: {BUILTIN_TASKS:?})"
        )),
    }
}

/// Build the local-reduction kernel for one round of `task`, capturing
/// this round's broadcast `state`. State length is validated against
/// `params`. `backend` selects the execution path for kernel-IR tasks
/// (the `chapel.*` family) — closure tasks ignore it; `recorder` (when
/// given) receives the codegen spans and fallback instants of that
/// selection.
pub fn kernel(
    task: &str,
    params: &[i64],
    state: &[f64],
    backend: KernelBackend,
    recorder: Option<&Recorder>,
) -> Result<TaskKernel, DistError> {
    match task {
        "sum" => Ok(Box::new(|split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                for &x in row {
                    robj.accumulate(0, 0, x);
                }
            }
        })),
        "kmeans" => {
            let k = param(params, 0, task, "k")?;
            let d = param(params, 1, task, "d")?;
            if state.len() != k * d {
                return bad(format!(
                    "kmeans: state holds {} values, expected k*d = {}",
                    state.len(),
                    k * d
                ));
            }
            let cents = state.to_vec();
            Ok(Box::new(
                move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    let mut acc = Accumulator::new(robj);
                    for row in split.iter_rows() {
                        let mut best = 0usize;
                        let mut best_dist = f64::INFINITY;
                        for c in 0..k {
                            let centre = &cents[c * d..(c + 1) * d];
                            let mut dist = 0.0;
                            for j in 0..d {
                                let diff = row[j] - centre[j];
                                dist += diff * diff;
                            }
                            if dist < best_dist {
                                best_dist = dist;
                                best = c;
                            }
                        }
                        for (j, &x) in row.iter().enumerate().take(d) {
                            acc.accumulate(0, best * (d + 1) + j, x);
                        }
                        acc.accumulate(0, best * (d + 1) + d, 1.0);
                    }
                },
            ))
        }
        "pca.mean" => {
            let rows = param(params, 0, task, "rows")?;
            Ok(Box::new(
                move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    for row in split.iter_rows() {
                        for (a, &x) in row.iter().enumerate().take(rows) {
                            robj.accumulate(0, a, x);
                        }
                    }
                },
            ))
        }
        "pca.cov" => {
            let rows = param(params, 0, task, "rows")?;
            if state.len() != rows {
                return bad(format!(
                    "pca.cov: state holds {} values, expected rows = {rows}",
                    state.len()
                ));
            }
            let mean = state.to_vec();
            Ok(Box::new(
                move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    for row in split.iter_rows() {
                        for a in 0..rows {
                            let da = row[a] - mean[a];
                            for b in 0..rows {
                                let db = row[b] - mean[b];
                                robj.accumulate(0, a * rows + b, da * db);
                            }
                        }
                    }
                },
            ))
        }
        "sparse.kmeans" => {
            let k = param(params, 0, task, "k")?;
            let cols = param(params, 1, task, "cols")?;
            if state.len() != k * cols {
                return bad(format!(
                    "sparse.kmeans: state holds {} values, expected k*cols = {}",
                    state.len(),
                    k * cols
                ));
            }
            // ‖c‖² once per round in ascending column order — the same
            // fold as the single-process `cfr_apps::sparse_kmeans`
            // driver, so cluster and local runs are bit-identical.
            let cents = state.to_vec();
            let mut cnorm = vec![0.0f64; k];
            for c in 0..k {
                for j in 0..cols {
                    cnorm[c] += cents[c * cols + j] * cents[c * cols + j];
                }
            }
            Ok(Box::new(
                move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    for row in split.iter_rows() {
                        let mut best = 0usize;
                        let mut best_dist = f64::INFINITY;
                        for c in 0..k {
                            let mut dot = 0.0;
                            for (col, v) in linearize::sparse::padded_row_entries(row) {
                                if col < cols {
                                    dot += v * cents[c * cols + col];
                                }
                            }
                            let dist = cnorm[c] - 2.0 * dot;
                            if dist < best_dist {
                                best_dist = dist;
                                best = c;
                            }
                        }
                        for (col, v) in linearize::sparse::padded_row_entries(row) {
                            if col < cols {
                                robj.accumulate(0, best * (cols + 1) + col, v);
                            }
                        }
                        robj.accumulate(0, best * (cols + 1) + cols, 1.0);
                    }
                },
            ))
        }
        "sparse.mttkrp" => {
            let im = param(params, 0, task, "dims[0]")?;
            let jm = param(params, 1, task, "dims[1]")?;
            let km = param(params, 2, task, "dims[2]")?;
            let rank = param(params, 3, task, "rank")?;
            // The closed-form factors are job constants, rebuilt on the
            // node — only the tensor quads travel through the dataset.
            let b = cfr_sparse::synthetic_factor(jm, rank);
            let c = cfr_sparse::synthetic_factor(km, rank);
            Ok(Box::new(
                move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    for row in split.iter_rows() {
                        if row.len() < 4 {
                            continue;
                        }
                        let i = row[0].max(0.0) as usize;
                        let j = row[1].max(0.0) as usize;
                        let kk = row[2].max(0.0) as usize;
                        let v = row[3];
                        if i >= im || j >= jm || kk >= km {
                            continue;
                        }
                        for r in 0..rank {
                            robj.accumulate(
                                0,
                                i * rank + r,
                                v * b[j * rank + r] * c[kk * rank + r],
                            );
                        }
                    }
                },
            ))
        }
        "chapel.kmeans" => chapel_kmeans_kernel(params, state, backend, recorder),
        other => bad(format!(
            "unknown task `{other}` (built-ins: {BUILTIN_TASKS:?})"
        )),
    }
}

/// One round of the translated k-means: compile the canned Chapel
/// program (`chapel_frontend::programs::kmeans`) through
/// detect→compile, rebuild this round's centroid state in the
/// representation the opt level uses, and dispatch through
/// `cfr_core::make_runner` so the job's [`KernelBackend`] decides
/// whether the split loop runs on the kernel VM or natively. Params:
/// `[n, k, d, opt]` (`n` is the Chapel program's declared dataset size;
/// the kernel itself is shard-invariant). Compilation is pure CPU work
/// per round; the expensive native `rustc` artifact is cached
/// process-wide by content hash, so only the first compiled round pays.
fn chapel_kmeans_kernel(
    params: &[i64],
    state: &[f64],
    backend: KernelBackend,
    recorder: Option<&Recorder>,
) -> Result<TaskKernel, DistError> {
    let task = "chapel.kmeans";
    let n = param(params, 0, task, "n")?;
    let k = param(params, 1, task, "k")?;
    let d = param(params, 2, task, "d")?;
    let opt = opt_param(params, 3, task)?;
    if state.len() != k * d {
        return bad(format!(
            "{task}: state holds {} values, expected k*d = {}",
            state.len(),
            k * d
        ));
    }

    let src = chapel_frontend::programs::kmeans(n, k, d);
    let program = chapel_frontend::parse(&src).map_err(|e| to_bad(task, "parse", &e))?;
    let analysis = chapel_sema::analyze(&program)
        .map_err(cfr_core::CoreError::from)
        .map_err(|e| to_bad(task, "analyze", &e))?;
    let detection = cfr_core::detect(&program, &analysis);
    let red = detection
        .detected
        .values()
        .find_map(|x| match x {
            cfr_core::Detected::Loop(l) => Some(l.clone()),
            _ => None,
        })
        .ok_or_else(|| DistError::BadTask {
            reason: format!("{task}: reduction loop not detected"),
        })?;
    let compiled = cfr_core::compile_loop(&program, &analysis, &red, opt)
        .map_err(|e| to_bad(task, "compile", &e))?;

    let nested = centroids_value(state, k, d);
    let (nested_state, flat_state) = if opt == cfr_core::OptLevel::Opt2 {
        let shape = Shape::array(
            Shape::record(vec![
                ("pos", Shape::array(Shape::Real, d)),
                ("count", Shape::Int),
            ]),
            k,
        );
        let flat = Linearizer::new(&shape)
            .linearize(&nested)
            .map_err(|e| to_bad(task, "linearize state", &e))?
            .buffer;
        (vec![nested], vec![flat])
    } else {
        (vec![nested], vec![Vec::new()])
    };
    let choice = cfr_core::make_runner(
        backend,
        &compiled.kernel,
        nested_state,
        flat_state,
        compiled.lo,
        compiled.opt,
        recorder,
    )
    .map_err(|e| to_bad(task, "instantiate kernel", &e))?;
    let runner = choice.runner;
    Ok(Box::new(
        move |split: &Split<'_>, robj: &mut dyn RObjHandle| runner.run_split(split, robj),
    ))
}

fn to_bad(task: &str, stage: &str, e: &impl std::fmt::Display) -> DistError {
    DistError::BadTask {
        reason: format!("{task}: {stage}: {e}"),
    }
}

/// Rebuild the nested centroid structure the Chapel program reduces
/// over (`[1..k] record Centroid { pos: [1..d] real; count: int }`)
/// from the flat broadcast coordinates, counts reset to zero — the same
/// per-iteration rebuild the single-process `cfr-apps` driver performs.
fn centroids_value(flat: &[f64], k: usize, d: usize) -> Value {
    Value::Array(
        (0..k)
            .map(|c| {
                Value::Record(vec![
                    Value::Array((0..d).map(|j| Value::Real(flat[c * d + j])).collect()),
                    Value::Int(0),
                ])
            })
            .collect(),
    )
}

/// Coordinator-side outer-loop step: fold the globally combined object
/// into the next round's state. Returns `None` when the task carries no
/// iterative state (the state is rebroadcast unchanged).
pub fn step(
    task: &str,
    params: &[i64],
    state: &[f64],
    merged: &ReductionObject,
) -> Result<Option<Vec<f64>>, DistError> {
    match task {
        "kmeans" | "chapel.kmeans" | "sparse.kmeans" => {
            // `chapel.kmeans` carries `n` in slot 0; `k`/`d` follow.
            // `sparse.kmeans` uses `[k, cols]` — same shape as
            // `kmeans`'s `[k, d]`, and the same centroid refinement.
            let base = if task == "chapel.kmeans" { 1 } else { 0 };
            let k = param(params, base, task, "k")?;
            let d = param(params, base + 1, task, "d")?;
            let cells = merged.group_slice(0);
            let mut next = state.to_vec();
            for c in 0..k {
                let count = cells[c * (d + 1) + d];
                if count > 0.0 {
                    for j in 0..d {
                        next[c * d + j] = cells[c * (d + 1) + j] / count;
                    }
                }
            }
            Ok(Some(next))
        }
        "sum" | "pca.mean" | "pca.cov" | "sparse.mttkrp" => Ok(None),
        other => bad(format!(
            "unknown task `{other}` (built-ins: {BUILTIN_TASKS:?})"
        )),
    }
}

#[cfg(test)]
mod tasks_tests {
    use super::*;
    use freeride::DataView;

    fn run_local(
        task: &str,
        params: &[i64],
        state: &[f64],
        data: &[f64],
        unit: usize,
    ) -> ReductionObject {
        let l = layout(task, params).unwrap();
        let k = kernel(task, params, state, KernelBackend::Interpreted, None).unwrap();
        let mut robj = ReductionObject::alloc(l);
        let view = DataView::new(data, unit).unwrap();
        let split = view.split(0, view.rows());
        k(&split, &mut robj);
        robj
    }

    #[test]
    fn sum_task_sums_everything() {
        let robj = run_local("sum", &[], &[], &[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(robj.get(0, 0), 10.0);
    }

    #[test]
    fn kmeans_task_counts_every_point_once() {
        let (k, d) = (2usize, 2usize);
        let data = vec![0.0, 0.0, 0.1, 0.1, 5.0, 5.0, 5.1, 4.9];
        let cents = vec![0.0, 0.0, 5.0, 5.0];
        let robj = run_local("kmeans", &[k as i64, d as i64], &cents, &data, d);
        let cells = robj.group_slice(0);
        assert_eq!(cells[d] + cells[(d + 1) + d], 4.0); // counts sum to n
        assert_eq!(cells[d], 2.0);
        // step averages the sums
        let next = step("kmeans", &[2, 2], &cents, &robj).unwrap().unwrap();
        assert!((next[0] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn pca_tasks_match_manual_formulas() {
        let rows = 2usize;
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 samples
        let mean_robj = run_local("pca.mean", &[rows as i64], &[], &data, rows);
        assert_eq!(mean_robj.group_slice(0), &[9.0, 12.0]);
        let mean: Vec<f64> = mean_robj.group_slice(0).iter().map(|s| s / 3.0).collect();
        let cov = run_local("pca.cov", &[rows as i64], &mean, &data, rows);
        // scatter[0][0] = sum (x0 - 3)^2 = 4 + 0 + 4 = 8
        assert_eq!(cov.get(0, 0), 8.0);
        assert_eq!(step("pca.cov", &[rows as i64], &mean, &cov).unwrap(), None);
    }

    #[test]
    fn sparse_kmeans_task_over_padded_rows() {
        let (rows, cols, w, k) = (12usize, 8usize, 4usize, 2usize);
        let m = cfr_sparse::synthetic_csr(rows, cols, w);
        let (buf, unit) = cfr_sparse::csr_to_padded(&m).unwrap();
        let cents: Vec<f64> = (1..=k)
            .flat_map(|c| (1..=cols).map(move |j| ((c * 13 + j * 5) % 7) as f64))
            .collect();
        let robj = run_local(
            "sparse.kmeans",
            &[k as i64, cols as i64],
            &cents,
            &buf,
            unit,
        );
        let cells = robj.group_slice(0);
        // Every row lands in exactly one cluster.
        let counts: f64 = (0..k).map(|c| cells[c * (cols + 1) + cols]).sum();
        assert_eq!(counts, rows as f64);
        // Coordinate sums total the matrix's value mass.
        let mass: f64 = m.values.iter().sum();
        let sums: f64 = (0..k)
            .flat_map(|c| (0..cols).map(move |j| cells[c * (cols + 1) + j]))
            .sum();
        assert_eq!(sums, mass);
        // step refines centroids exactly like the dense task.
        let next = step("sparse.kmeans", &[k as i64, cols as i64], &cents, &robj)
            .unwrap()
            .unwrap();
        assert_eq!(next.len(), k * cols);
    }

    #[test]
    fn sparse_mttkrp_task_sums_exact_products() {
        let (dims, nnz, hot, rank) = ([6usize, 3, 3], 20usize, 2usize, 2usize);
        let t = cfr_sparse::synthetic_coo(dims, nnz, hot);
        let quads = cfr_sparse::coo_to_quads(&t).unwrap();
        let params = [dims[0] as i64, dims[1] as i64, dims[2] as i64, rank as i64];
        let robj = run_local("sparse.mttkrp", &params, &[], &quads, 4);
        // Reference fold in entry order.
        let b = cfr_sparse::synthetic_factor(dims[1], rank);
        let c = cfr_sparse::synthetic_factor(dims[2], rank);
        let mut want = vec![0.0f64; dims[0] * rank];
        for (co, &v) in t.coords.iter().zip(&t.values) {
            for r in 0..rank {
                want[co[0] as usize * rank + r] +=
                    v * b[co[1] as usize * rank + r] * c[co[2] as usize * rank + r];
            }
        }
        assert_eq!(robj.group_slice(0), &want[..]);
        assert_eq!(step("sparse.mttkrp", &params, &[], &robj).unwrap(), None);
        // Malformed quads (out-of-range coordinates) are skipped, never
        // a panic or an out-of-bounds accumulate.
        let junk = vec![99.0, 0.0, 0.0, 5.0, -1.0, 1.0, 1.0, 2.0];
        let robj = run_local("sparse.mttkrp", &params, &[], &junk, 4);
        assert!(robj
            .group_slice(0)
            .iter()
            .all(|&x| x == 0.0 || x.is_finite()));
    }

    #[test]
    fn bad_tasks_and_state_are_typed_errors() {
        let interp = |task: &str, params: &[i64], state: &[f64]| {
            kernel(task, params, state, KernelBackend::Interpreted, None)
        };
        assert!(matches!(
            layout("nope", &[]),
            Err(DistError::BadTask { .. })
        ));
        assert!(matches!(
            interp("kmeans", &[2], &[]),
            Err(DistError::BadTask { .. })
        ));
        assert!(matches!(
            interp("kmeans", &[2, 2], &[0.0]),
            Err(DistError::BadTask { .. })
        ));
        assert!(matches!(
            interp("kmeans", &[0, 2], &[]),
            Err(DistError::BadTask { .. })
        ));
        assert!(matches!(
            interp("pca.cov", &[3], &[0.0]),
            Err(DistError::BadTask { .. })
        ));
        // chapel.kmeans: bad opt level and short state are typed too.
        assert!(matches!(
            interp("chapel.kmeans", &[8, 2, 2, 9], &[0.0; 4]),
            Err(DistError::BadTask { .. })
        ));
        assert!(matches!(
            interp("chapel.kmeans", &[8, 2, 2, 2], &[0.0]),
            Err(DistError::BadTask { .. })
        ));
    }

    /// The kernel-IR task agrees bitwise with the closure task on the
    /// same flat dataset, at every opt level (interpreted path — the
    /// compiled path is covered by the cluster backend-identity test).
    #[test]
    fn chapel_kmeans_matches_closure_task() {
        let (n, k, d) = (24usize, 3usize, 2usize);
        let mut data = Vec::with_capacity(n * d);
        for i in 1..=n {
            for j in 1..=d {
                data.push(((i * 31 + j * 7) % 97) as f64);
            }
        }
        let cents: Vec<f64> = (1..=k)
            .flat_map(|c| (1..=d).map(move |j| ((c * 13 + j * 5) % 97) as f64))
            .collect();
        let base = run_local("kmeans", &[k as i64, d as i64], &cents, &data, d);
        for opt in 0..=2i64 {
            let got = run_local(
                "chapel.kmeans",
                &[n as i64, k as i64, d as i64, opt],
                &cents,
                &data,
                d,
            );
            let (a, b) = (base.group_slice(0), got.group_slice(0));
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "opt {opt} cell {i}: {x} vs {y}");
            }
            // step shares the closure task's centroid refinement.
            let s1 = step("kmeans", &[k as i64, d as i64], &cents, &base)
                .unwrap()
                .unwrap();
            let s2 = step(
                "chapel.kmeans",
                &[n as i64, k as i64, d as i64, opt],
                &cents,
                &got,
            )
            .unwrap()
            .unwrap();
            assert_eq!(s1, s2, "opt {opt} step");
        }
    }
}

//! The cluster task registry: one typed table of the hand-written
//! kernels.
//!
//! Closures cannot cross a process boundary, so distributed jobs name a
//! **task** from this registry instead; the `cfr-node` binary carries
//! the same registry, making nodes self-contained. A task is
//! parameterized by job-constant integers (`params`, e.g. `[k, d]` for
//! k-means) and a per-round broadcast `state` vector (e.g. the current
//! centroids). [`Task::parse`] reads a name and its params once into a
//! [`Task`], the only place that knows a task's param order; the
//! variant then provides:
//!
//! * the reduction-object layout,
//! * the length its broadcast state must have,
//! * the local-reduction kernel for one round, and
//! * the coordinator-side `step` that folds the globally combined
//!   object into the next round's state (the FREERIDE outer loop).
//!
//! The kernels are `cfr-apps`' "manual FR" versions: the single-process
//! drivers call these same bodies, so cluster and local runs perform
//! the identical floating-point operations. The kernel-IR family
//! (`"chapel.kmeans"`) instead compiles the canned Chapel program
//! through the translator's front door once per job on the node and
//! binds each round's state to its loop, honouring the job's
//! [`freeride::KernelBackend`] (interpreter or native codegen).

use std::sync::Arc;

use cfr_core::OptLevel;
use freeride::{
    CombineOp, GroupSpec, KernelBackend, RObjHandle, RObjLayout, ReductionObject, Split,
};
use linearize::Value;
use obs::Recorder;

use crate::coord::ClusterConfig;
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

/// The `opt` param of the `chapel.*` tasks, by ordinal.
const OPT_LEVELS: [OptLevel; 3] = [OptLevel::Generated, OptLevel::Opt1, OptLevel::Opt2];

/// A built-in task with its params. Each variant's doc gives its name,
/// its param order and its per-round state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// `"sum"`: the sum of every slot of every row. No params, no state.
    Sum,
    /// `"kmeans"`: dense k-means. Params `[k, d]`; state: the `k × d`
    /// centroids.
    Kmeans {
        /// Centroids.
        k: usize,
        /// Point width.
        d: usize,
    },
    /// `"pca.mean"`: per-dimension sums. Params `[rows]`; no state.
    PcaMean {
        /// Sample width.
        rows: usize,
    },
    /// `"pca.cov"`: the scatter matrix about the broadcast mean. Params
    /// `[rows]`; state: the `rows` means.
    PcaCov {
        /// Sample width.
        rows: usize,
    },
    /// `"sparse.kmeans"`: k-means over padded CSR rows. Params `[k,
    /// cols]`; state: the `k × cols` centroids.
    SparseKmeans {
        /// Centroids.
        k: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// `"sparse.mttkrp"`: a mode-0 MTTKRP over `[i, j, k, v]` quad rows
    /// against the closed-form factors. Params `[I, J, K, rank]`; no
    /// state.
    SparseMttkrp {
        /// Tensor mode sizes `[I, J, K]`.
        dims: [usize; 3],
        /// Decomposition rank.
        rank: usize,
    },
    /// `"chapel.kmeans"`: the canned Chapel k-means, compiled on each
    /// node. Params `[n, k, d, opt]` (`opt` 0 = generated, 1 = opt-1,
    /// 2 = opt-2); state as `kmeans`.
    ChapelKmeans {
        /// The program's declared dataset size (the kernel itself is
        /// shard-invariant).
        n: usize,
        /// Centroids.
        k: usize,
        /// Point width.
        d: usize,
        /// Code-generation strategy.
        opt: OptLevel,
    },
}

fn bad<T>(reason: impl Into<String>) -> Result<T, DistError> {
    Err(DistError::BadTask {
        reason: reason.into(),
    })
}

impl Task {
    /// Read a task name and its params: the registry's one match on
    /// names. Every param must be present and positive (trailing extras
    /// are ignored); an unknown name or a bad param is a typed
    /// [`DistError::BadTask`].
    pub fn parse(name: &str, params: &[i64]) -> Result<Task, DistError> {
        let p = |i: usize, what: &str| match params.get(i) {
            Some(&v) if v > 0 => Ok(v as usize),
            Some(&v) => bad(format!("{name}: {what} must be positive, got {v}")),
            None => bad(format!("{name}: missing param {i} ({what})")),
        };
        Ok(match name {
            "sum" => Task::Sum,
            "kmeans" => Task::Kmeans {
                k: p(0, "k")?,
                d: p(1, "d")?,
            },
            "pca.mean" => Task::PcaMean {
                rows: p(0, "rows")?,
            },
            "pca.cov" => Task::PcaCov {
                rows: p(0, "rows")?,
            },
            "sparse.kmeans" => Task::SparseKmeans {
                k: p(0, "k")?,
                cols: p(1, "cols")?,
            },
            "sparse.mttkrp" => Task::SparseMttkrp {
                dims: [p(0, "dims[0]")?, p(1, "dims[1]")?, p(2, "dims[2]")?],
                rank: p(3, "rank")?,
            },
            "chapel.kmeans" => Task::ChapelKmeans {
                n: p(0, "n")?,
                k: p(1, "k")?,
                d: p(2, "d")?,
                opt: match params.get(3) {
                    Some(&v) if (0..3).contains(&v) => OPT_LEVELS[v as usize],
                    Some(&v) => return bad(format!("{name}: opt level must be 0..=2, got {v}")),
                    None => return bad(format!("{name}: missing param 3 (opt level)")),
                },
            },
            other => {
                return bad(format!(
                    "unknown task `{other}` (built-ins: {BUILTIN_TASKS:?})"
                ))
            }
        })
    }

    /// The registry name; with [`Task::params`], the inverse of
    /// [`Task::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Task::Sum => "sum",
            Task::Kmeans { .. } => "kmeans",
            Task::PcaMean { .. } => "pca.mean",
            Task::PcaCov { .. } => "pca.cov",
            Task::SparseKmeans { .. } => "sparse.kmeans",
            Task::SparseMttkrp { .. } => "sparse.mttkrp",
            Task::ChapelKmeans { .. } => "chapel.kmeans",
        }
    }

    /// The params, in the order [`Task::parse`] reads them.
    pub fn params(&self) -> Vec<i64> {
        let params = match *self {
            Task::Sum => vec![],
            Task::Kmeans { k, d } => vec![k, d],
            Task::PcaMean { rows } | Task::PcaCov { rows } => vec![rows],
            Task::SparseKmeans { k, cols } => vec![k, cols],
            Task::SparseMttkrp { dims, rank } => vec![dims[0], dims[1], dims[2], rank],
            Task::ChapelKmeans { n, k, d, opt } => {
                vec![
                    n,
                    k,
                    d,
                    OPT_LEVELS.iter().position(|&o| o == opt).unwrap_or(0),
                ]
            }
        };
        params.into_iter().map(|v| v as i64).collect()
    }

    /// A cluster job of this task over `dataset`, every other setting at
    /// its default.
    pub fn cluster_config(&self, dataset: impl Into<std::path::PathBuf>) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.name(), dataset);
        config.params = self.params();
        config
    }

    /// The reduction-object layout: one summed group.
    pub fn layout(&self) -> Arc<RObjLayout> {
        let (group, cells) = match *self {
            Task::Sum => ("sum", 1),
            Task::Kmeans { k, d }
            | Task::ChapelKmeans { k, d, .. }
            | Task::SparseKmeans { k, cols: d } => ("newCent", k * (d + 1)),
            Task::PcaMean { rows } => ("mean", rows),
            Task::PcaCov { rows } => ("cov", rows * rows),
            Task::SparseMttkrp { dims, rank } => ("M", dims[0] * rank),
        };
        RObjLayout::new(vec![GroupSpec::new(group, cells, CombineOp::Sum)])
    }

    /// The values a round's broadcast state must hold, and the formula
    /// that names them; `None` for a stateless task, which ignores its
    /// state.
    fn state_shape(&self) -> Option<(usize, &'static str)> {
        match *self {
            Task::Kmeans { k, d } | Task::ChapelKmeans { k, d, .. } => Some((k * d, "k*d")),
            Task::SparseKmeans { k, cols } => Some((k * cols, "k*cols")),
            Task::PcaCov { rows } => Some((rows, "rows")),
            Task::Sum | Task::PcaMean { .. } | Task::SparseMttkrp { .. } => None,
        }
    }

    /// The length a round's broadcast state must have; `None` for a
    /// stateless task.
    pub fn state_len(&self) -> Option<usize> {
        self.state_shape().map(|(len, _)| len)
    }

    /// Check a round's broadcast state against [`Task::state_len`]: a
    /// wrong length is a [`DistError::BadTask`] naming the expected one.
    pub fn check_state(&self, state: &[f64]) -> Result<(), DistError> {
        match self.state_shape() {
            Some((want, formula)) if state.len() != want => bad(format!(
                "{}: state holds {} values, expected {formula} = {want}",
                self.name(),
                state.len()
            )),
            _ => Ok(()),
        }
    }

    /// The hand-written local-reduction kernel for one round over
    /// `state`, after [`Task::check_state`]. A kernel-IR task has no
    /// hand-written kernel (its loop is compiled per job by
    /// [`Task::prepare`]), so it answers [`DistError::BadTask`].
    pub fn kernel(&self, state: &[f64]) -> Result<TaskKernel, DistError> {
        self.check_state(state)?;
        let state = state.to_vec();
        Ok(match *self {
            Task::Sum => Box::new(|split: &Split<'_>, robj: &mut dyn RObjHandle| {
                for row in split.iter_rows() {
                    for &x in row {
                        robj.accumulate(0, 0, x);
                    }
                }
            }),
            Task::Kmeans { k, d } => Box::new(
                move |split: &Split<'_>, robj: &mut dyn RObjHandle| match robj.lend() {
                    Some(mut cells) => assign_points(split, &state, k, d, &mut cells),
                    None => assign_points(split, &state, k, d, robj),
                },
            ),
            Task::PcaMean { rows } => {
                Box::new(move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    for row in split.iter_rows() {
                        for (a, &x) in row.iter().enumerate().take(rows) {
                            robj.accumulate(0, a, x);
                        }
                    }
                })
            }
            Task::PcaCov { rows } => {
                Box::new(move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                    for row in split.iter_rows() {
                        for a in 0..rows {
                            let da = row[a] - state[a];
                            for b in 0..rows {
                                let db = row[b] - state[b];
                                robj.accumulate(0, a * rows + b, da * db);
                            }
                        }
                    }
                })
            }
            Task::SparseKmeans { k, cols } => Box::new(sparse_assign(state, k, cols)),
            Task::SparseMttkrp { dims, rank } => {
                // The closed-form factors are job constants, rebuilt on
                // the node — only the tensor quads travel through the
                // dataset.
                let b = cfr_sparse::synthetic_factor(dims[1], rank);
                let c = cfr_sparse::synthetic_factor(dims[2], rank);
                Box::new(mttkrp_kernel(0, rank, dims[0], b, c))
            }
            Task::ChapelKmeans { .. } => {
                return bad(format!(
                    "{}: a kernel-IR task binds its state to the loop it compiled",
                    self.name()
                ))
            }
        })
    }

    /// Coordinator-side outer-loop step: fold the globally combined
    /// object into the next round's state, whose length [`Task::check_state`]
    /// accepted. Returns `None` when the task carries no iterative state
    /// (the state is rebroadcast unchanged). The k-means family refines
    /// each centroid to the mean of its points; an empty cluster keeps
    /// its position.
    pub fn step(&self, state: &[f64], merged: &ReductionObject) -> Option<Vec<f64>> {
        let (k, d) = match *self {
            Task::Kmeans { k, d }
            | Task::ChapelKmeans { k, d, .. }
            | Task::SparseKmeans { k, cols: d } => (k, d),
            Task::Sum | Task::PcaMean { .. } | Task::PcaCov { .. } | Task::SparseMttkrp { .. } => {
                return None
            }
        };
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
        Some(next)
    }

    /// Prepare the task for one job. A `chapel.*` task compiles its
    /// Chapel program here, so a bad program is a typed
    /// [`DistError::BadTask`] at job setup. `backend` selects the
    /// execution path for those kernel-IR tasks (hand-written tasks
    /// ignore it); `recorder` (when given) receives the compile spans.
    pub(crate) fn prepare(
        self,
        backend: KernelBackend,
        recorder: Option<&Recorder>,
    ) -> Result<JobTask, DistError> {
        let chapel = match self {
            Task::ChapelKmeans { n, k, d, opt } => {
                let src = chapel_frontend::programs::kmeans(n, k, d);
                let program = cfr_core::CompiledProgram::compile(&src, opt, backend, recorder)
                    .map_err(|e| self.failed("compile", &e))?;
                let (_, compiled) = program.loops().next().ok_or_else(|| DistError::BadTask {
                    reason: format!("{}: reduction loop not detected", self.name()),
                })?;
                Some(compiled.clone())
            }
            _ => None,
        };
        Ok(JobTask {
            task: self,
            backend,
            chapel,
        })
    }

    fn failed(&self, stage: &str, e: &impl std::fmt::Display) -> DistError {
        DistError::BadTask {
            reason: format!("{}: {stage}: {e}", self.name()),
        }
    }
}

/// A task prepared for one job: what stays fixed across its rounds,
/// built once when a node sets up a session's job.
pub(crate) struct JobTask {
    task: Task,
    backend: KernelBackend,
    /// The translated loop of a `chapel.*` task.
    chapel: Option<cfr_core::CompiledLoop>,
}

impl JobTask {
    /// The local-reduction kernel for one round, capturing its
    /// broadcast `state` (its length is checked against the task). A
    /// kernel-IR task binds the state to its compiled loop, in the
    /// representation its opt level uses, so the job's
    /// [`KernelBackend`] decides whether the split loop runs on the
    /// kernel VM or natively; `recorder` receives the codegen spans and
    /// fallback instants of that choice.
    pub(crate) fn kernel(
        &self,
        state: &[f64],
        recorder: Option<&Recorder>,
    ) -> Result<TaskKernel, DistError> {
        let (Some(compiled), Task::ChapelKmeans { k, d, .. }) = (&self.chapel, self.task) else {
            return self.task.kernel(state);
        };
        self.task.check_state(state)?;
        let choice = compiled
            .job_state(vec![centroids_value(state, k, d)], None)
            .and_then(|s| compiled.runner(self.backend, s, recorder))
            .map_err(|e| self.task.failed("bind state", &e))?;
        let runner = choice.runner;
        Ok(Box::new(
            move |split: &Split<'_>, robj: &mut dyn RObjHandle| runner.run_split(split, robj),
        ))
    }
}

/// Rebuild the nested centroid structure the Chapel k-means program
/// reduces over (`[1..k] record Centroid { pos: [1..d] real; count:
/// int }`) from flat coordinates, counts reset to zero as in the
/// program's fresh `newCent` — the per-round state of `chapel.kmeans`
/// and the per-iteration state of the single-process translated driver.
pub fn centroids_value(flat: &[f64], k: usize, d: usize) -> Value {
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

/// The per-centroid point counts of a k-means family object's cells
/// (`k` groups of `d` coordinate sums then a count).
pub fn centroid_counts(cells: &[f64], k: usize, d: usize) -> Vec<f64> {
    (0..k).map(|c| cells[c * (d + 1) + d]).collect()
}

/// One split of k-means: each point's coordinates and a count fold into
/// its nearest of the `k` centroids `cents` (`d` values each). Generic
/// over the handle, so a boxed kernel that takes lent cells once per
/// split folds into them without a virtual call per update.
fn assign_points<H: RObjHandle + ?Sized>(
    split: &Split<'_>,
    cents: &[f64],
    k: usize,
    d: usize,
    robj: &mut H,
) {
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
            robj.accumulate(0, best * (d + 1) + j, x);
        }
        robj.accumulate(0, best * (d + 1) + d, 1.0);
    }
}

/// One round of sparse k-means over padded CSR rows: assign each row to
/// the centroid minimizing `‖c‖² − 2·⟨x, c⟩` (`‖x‖²` is row-constant and
/// cancels; stored entries only, ties to the lowest `c`), then
/// accumulate the stored entries and a count.
fn sparse_assign(
    cents: Vec<f64>,
    k: usize,
    cols: usize,
) -> impl Fn(&Split<'_>, &mut dyn RObjHandle) + Sync + Send {
    // ‖c‖² once per round, in ascending column order — the Chapel
    // oracle's order.
    let cnorm: Vec<f64> = (0..k)
        .map(|c| {
            cents[c * cols..(c + 1) * cols]
                .iter()
                .fold(0.0, |s, x| s + x * x)
        })
        .collect();
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
    }
}

/// The other two modes, in ascending order, of the mode being solved.
pub fn other_modes(mode: usize) -> (usize, usize) {
    match mode {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// The MTTKRP kernel for one mode over `[i, j, k, v]` quad rows:
/// `M[out, r] += v * f1[a, r] * f2[b, r]` where `out` is the solved
/// mode's coordinate and `(f1, f2)` are the other two factors in
/// ascending mode order — the multiplication order of the Chapel
/// oracle. Out-of-range coordinates are skipped, never a panic.
pub fn mttkrp_kernel(
    mode: usize,
    rank: usize,
    out_dim: usize,
    f1: Vec<f64>,
    f2: Vec<f64>,
) -> impl Fn(&Split<'_>, &mut dyn RObjHandle) + Sync + Send {
    let d1 = f1.len() / rank.max(1);
    let d2 = f2.len() / rank.max(1);
    move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            if row.len() < cfr_sparse::COO_UNIT {
                continue;
            }
            let c = [
                row[0].max(0.0) as usize,
                row[1].max(0.0) as usize,
                row[2].max(0.0) as usize,
            ];
            let v = row[3];
            let (m1, m2) = other_modes(mode);
            let (out, a, b) = (c[mode], c[m1], c[m2]);
            if out >= out_dim || a >= d1 || b >= d2 {
                continue;
            }
            for r in 0..rank {
                robj.accumulate(0, out * rank + r, v * f1[a * rank + r] * f2[b * rank + r]);
            }
        }
    }
}

#[cfg(test)]
mod tasks_tests {
    use super::*;
    use freeride::DataView;

    // The registry read as the old call sites read it, each through one
    // parsed `Task`.
    fn layout(task: &str, params: &[i64]) -> Result<Arc<RObjLayout>, DistError> {
        Task::parse(task, params).map(|t| t.layout())
    }

    fn kernel(
        task: &str,
        params: &[i64],
        state: &[f64],
        backend: KernelBackend,
        recorder: Option<&Recorder>,
    ) -> Result<TaskKernel, DistError> {
        Task::parse(task, params)?
            .prepare(backend, recorder)?
            .kernel(state, recorder)
    }

    fn step(
        task: &str,
        params: &[i64],
        state: &[f64],
        merged: &ReductionObject,
    ) -> Result<Option<Vec<f64>>, DistError> {
        Ok(Task::parse(task, params)?.step(state, merged))
    }

    #[test]
    fn parse_and_params_are_inverse() {
        let all = [
            ("sum", vec![]),
            ("kmeans", vec![3, 2]),
            ("pca.mean", vec![5]),
            ("pca.cov", vec![5]),
            ("sparse.kmeans", vec![4, 12]),
            ("sparse.mttkrp", vec![6, 3, 3, 2]),
            ("chapel.kmeans", vec![24, 3, 2, 1]),
        ];
        assert_eq!(all.len(), BUILTIN_TASKS.len());
        for (name, params) in all {
            let task = Task::parse(name, &params).unwrap();
            assert_eq!((task.name(), task.params()), (name, params.clone()));
            let config = task.cluster_config("x.frds");
            assert_eq!((config.task.as_str(), config.params), (name, params));
        }
    }

    #[test]
    fn state_length_is_checked_only_where_there_is_state() {
        let kmeans = Task::Kmeans { k: 3, d: 2 };
        assert_eq!(kmeans.state_len(), Some(6));
        let err = kmeans.check_state(&[0.0]).unwrap_err();
        assert!(
            err.to_string()
                .contains("kmeans: state holds 1 values, expected k*d = 6"),
            "{err}"
        );
        assert_eq!(Task::PcaCov { rows: 4 }.state_len(), Some(4));
        for stateless in [
            Task::Sum,
            Task::PcaMean { rows: 2 },
            Task::SparseMttkrp {
                dims: [2, 2, 2],
                rank: 1,
            },
        ] {
            assert_eq!(stateless.state_len(), None);
            stateless.check_state(&[1.0, 2.0, 3.0]).unwrap();
        }
    }

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
        k(&split, &mut robj.lend());
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

//! `cluster.kmeans` — the kernel of `kmeans.manual` on a two-node
//! loopback cluster, one thread per node, a checkpoint every round.
//! `dist` rounds, FRDM encode and merge, `ft` checkpoints and shard
//! reads do the extra work.

use std::path::{Path, PathBuf};

use cfr_apps::cluster::{kmeans_cluster_on_file, kmeans_cluster_on_file_ft, FtOptions, Nodes};
use cfr_apps::kmeans::{run_manual_on_file, KmeansParams};
use freeride::source::write_dataset;
use freeride_dist::{ClusterOutcome, Coordinator, LoopbackCluster};

use super::*;
use crate::reference;
use crate::stats::median;
use crate::trace::{maybe, At};

pub struct ClusterKmeans {
    path: PathBuf,
    rows: usize,
    seed: u64,
    /// A fresh checkpoint directory per job, under here.
    checkpoints: PathBuf,
    jobs: usize,
}

fn params() -> KmeansParams {
    KmeansParams::new(0, D, K, ITERS).threads(1)
}

fn cluster_output(outcome: &ClusterOutcome) -> Output {
    let cells = outcome.robj.group_slice(0);
    let counts = (0..K).map(|c| cells[c * (D + 1) + D]).collect();
    kmeans_output(outcome.state.clone(), counts)
}

/// `run_loopback` of the k-means task, stage by stage: spawn the node
/// agents, drive the rounds, join the agents.
fn staged_job(dataset: &Path, checkpoint_dir: PathBuf, at: At<'_>) -> Res<ClusterOutcome> {
    let mut config = kmeans_cluster_config(dataset, ITERS);
    config.checkpoint_dir = Some(checkpoint_dir);
    let cluster = maybe(at, "dist.spawn", |_| LoopbackCluster::spawn(2))?;
    let outcome = maybe(at, "dist.run", |_| {
        Coordinator::new(config).run(cluster.addrs())
    });
    maybe(at, "dist.join", |_| cluster.join())?;
    Ok(outcome?)
}

impl ClusterKmeans {
    fn fresh_checkpoint_dir(&mut self) -> PathBuf {
        self.jobs += 1;
        self.checkpoints.join(self.jobs.to_string())
    }
}

impl Workload for ClusterKmeans {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let rows = ctx.size(1_500_000, 20_000);
        let path = ctx.scratch.join("points.frds");
        write_dataset(&path, D, &kmeans_points(rows, ctx.seed))?;
        let mut w = ClusterKmeans {
            path,
            rows,
            seed: ctx.seed,
            checkpoints: ctx.scratch.join("checkpoints"),
            jobs: 0,
        };
        w.job()?;
        Ok(w)
    }

    fn job(&mut self) -> Res<Output> {
        let dir = self.fresh_checkpoint_dir();
        let ft = FtOptions::with_dir(&dir);
        let r = kmeans_cluster_on_file_ft(&params(), &self.path, &Nodes::Loopback(2), &ft)?;
        if r.stats.checkpoints_written != ITERS {
            return Err(format!(
                "{} checkpoints for {ITERS} rounds",
                r.stats.checkpoints_written
            )
            .into());
        }
        std::fs::remove_dir_all(&dir)?;
        Ok(kmeans_output(r.centroids, r.counts))
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        let data = kmeans_points(self.rows, self.seed);
        let (cents, counts) = reference::kmeans(&data, D, K, &kmeans_init(), ITERS);
        Ok(vec![kmeans_output(cents, counts)])
    }

    fn layers(&mut self, _ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        let dir = self.fresh_checkpoint_dir();
        let outcome = tracer.root("job", 0, |id| {
            staged_job(&self.path, dir, Some((tracer, id)))
        })?;
        let output = cluster_output(&outcome);
        m.set("ft.ckpt_bytes", outcome.stats.checkpoint_bytes as f64);

        // Checkpointing on and off in alternation, so drift hits both.
        let (mut with, mut without) = (Vec::new(), Vec::new());
        let mut plain = None;
        for _ in 0..3 {
            let (r, s) = timed(|| self.job());
            r?;
            with.push(s);
            let (r, s) =
                timed(|| kmeans_cluster_on_file(&params(), &self.path, &Nodes::Loopback(2)));
            plain = Some(r?);
            without.push(s);
        }
        let plain = plain.expect("three rounds ran");
        let two_s = median(&without);
        m.set("dist.round_ms", two_s * 1e3 / ITERS as f64);
        m.set("dist.bytes_sent", plain.stats.bytes_sent as f64);
        m.set("dist.bytes_recv", plain.stats.bytes_recv as f64);
        m.set("ft.ckpt_ms", (median(&with) - two_s) * 1e3 / ITERS as f64);

        let (one, one_s) =
            timed(|| kmeans_cluster_on_file(&params(), &self.path, &Nodes::Loopback(1)));
        let one = one?;
        kmeans_output(one.centroids, one.counts)
            .check(&output)
            .map_err(|e| format!("1 node vs 2 nodes: {e}"))?;
        let (local, local_s) = timed(|| run_manual_on_file(&params(), &self.path));
        local?;
        m.set("dist.scale_eff_2n", one_s / (2.0 * two_s));
        m.set("dist.over_local_x", one_s / local_s);
        Ok(Staged {
            output,
            jobs: 1,
            linearized_bytes: 0,
        })
    }
}

//! Differential gates for the sparse workload tier.
//!
//! The contract under test: sparse k-means and single-pass MTTKRP
//! accumulate **integer-valued** products into the reduction object,
//! so every cell is an exact integer sum in f64 and the result must be
//! **bit-identical** to the mini-Chapel interpreter oracle across
//!
//! * thread counts (1/2/4/8),
//! * every reduction-object sync scheme (full replication, full
//!   locking, bucket locking, atomic, and hybrid, plus the scheme
//!   the size rule chooses), and
//! * cluster shapes (1/2/4-node loopback, nnz-balanced shards,
//!   sidecar-weighted thread splits).
//!
//! CP-ALS is different by design: after the first Gauss–Jordan solve
//! the factors are fractional, so multi-sweep results are exact only
//! for a fixed thread count and tolerance-comparable across thread
//! counts — gated separately at the end.

use cfr_apps::cluster::{mttkrp_cluster, sparse_kmeans_cluster, Nodes};
use cfr_apps::{mttkrp, sparse_kmeans};
use chapel_frontend::programs;
use freeride::SyncScheme;
use linearize::{Linearizer, Shape};

fn oracle_2d(source: &str, global: &str, rows: usize, cols: usize) -> Vec<f64> {
    let interp = chapel_interp::Interpreter::run_source(source).unwrap();
    let value = interp.global(global).unwrap().to_linear().unwrap();
    Linearizer::new(&Shape::array(Shape::array(Shape::Real, cols), rows))
        .linearize(&value)
        .unwrap()
        .buffer
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
    }
}

/// Every scheme the engine supports, including a hybrid with a mixed
/// mask — schemes must never change results, only synchronization.
fn all_schemes(total_cells: usize) -> Vec<(SyncScheme, &'static str)> {
    vec![
        (SyncScheme::FullReplication, "full-replication"),
        (SyncScheme::FullLocking, "full-locking"),
        (SyncScheme::BucketLocking { stripes: 8 }, "bucket-locking"),
        (SyncScheme::Atomic, "atomic"),
        (
            SyncScheme::Hybrid {
                region_cells: total_cells.div_ceil(64).max(1),
                replicated: 0b1010_1010,
                stripes: 8,
            },
            "hybrid",
        ),
    ]
}

#[test]
fn sparse_kmeans_matches_oracle_across_threads_and_schemes() {
    let (rows, cols, w, k) = (48usize, 12usize, 4usize, 3usize);
    let want = oracle_2d(
        &programs::sparse_kmeans(rows, cols, w, k),
        "newCent",
        k,
        cols + 1,
    );
    for threads in [1usize, 2, 4, 8] {
        for (scheme, name) in all_schemes(k * (cols + 1)) {
            let mut p =
                sparse_kmeans::SparseKmeansParams::new(rows, cols, w, k, 1).threads(threads);
            p.config.scheme = scheme;
            let r = sparse_kmeans::run(&p).unwrap();
            assert_bits(&r.sums, &want, &format!("{threads} threads / {name}"));
        }
        // The inspector-planned scheme reproduces the oracle too.
        let p = sparse_kmeans::SparseKmeansParams::new(rows, cols, w, k, 1)
            .threads(threads)
            .with_inspect();
        let r = sparse_kmeans::run(&p).unwrap();
        assert!(r.plan.is_some());
        assert_bits(&r.sums, &want, &format!("{threads} threads / inspector"));
    }
}

#[test]
fn sparse_kmeans_multi_iteration_is_invariant() {
    // Later iterations cluster against *fractional* centroids, but the
    // accumulated cells stay integer sums of the unchanging data
    // values, so even iteration 3 is bitwise thread/scheme-invariant.
    let base =
        sparse_kmeans::run(&sparse_kmeans::SparseKmeansParams::new(60, 16, 5, 4, 3)).unwrap();
    for threads in [2usize, 8] {
        for (scheme, name) in all_schemes(4 * 17) {
            let mut p = sparse_kmeans::SparseKmeansParams::new(60, 16, 5, 4, 3).threads(threads);
            p.config.scheme = scheme;
            let r = sparse_kmeans::run(&p).unwrap();
            assert_bits(&r.sums, &base.sums, &format!("iter-3 {threads}t/{name}"));
            assert_eq!(r.centroids, base.centroids);
        }
    }
}

#[test]
fn sparse_kmeans_cluster_matches_single_process_bitwise() {
    let (rows, cols, w, k, iters) = (48usize, 12usize, 4usize, 3usize, 2usize);
    let local = sparse_kmeans::run(&sparse_kmeans::SparseKmeansParams::new(
        rows, cols, w, k, iters,
    ))
    .unwrap();
    for nodes in [1usize, 2, 4] {
        let p = sparse_kmeans::SparseKmeansParams::new(rows, cols, w, k, iters).threads(2);
        let c = sparse_kmeans_cluster(&p, &Nodes::Loopback(nodes)).unwrap();
        assert_bits(&c.sums, &local.sums, &format!("{nodes}-node sums"));
        assert_eq!(c.centroids, local.centroids, "{nodes}-node centroids");
        assert_eq!(c.counts, local.counts, "{nodes}-node counts");
    }
    // Shipping the inspector's plan over the wire changes nothing.
    let p = sparse_kmeans::SparseKmeansParams::new(rows, cols, w, k, iters)
        .threads(2)
        .with_inspect();
    let c = sparse_kmeans_cluster(&p, &Nodes::Loopback(2)).unwrap();
    assert!(c.plan.is_some());
    assert_bits(&c.sums, &local.sums, "inspected 2-node sums");
}

#[test]
fn mttkrp_matches_oracle_across_threads_and_schemes() {
    let (dims, nnz, hot, rank) = ([16usize, 4, 4], 40usize, 4usize, 3usize);
    let want = oracle_2d(
        &programs::sparse_mttkrp(dims, nnz, hot, rank),
        "M",
        dims[0],
        rank,
    );
    for threads in [1usize, 2, 4, 8] {
        for (scheme, name) in all_schemes(dims[0] * rank) {
            let mut p = mttkrp::MttkrpParams::new(dims, nnz, hot, rank).threads(threads);
            p.config.scheme = scheme;
            let r = mttkrp::run(&p).unwrap();
            assert_bits(&r.m, &want, &format!("{threads} threads / {name}"));
        }
    }
}

#[test]
fn mttkrp_cluster_matches_single_process_bitwise() {
    let (dims, nnz, hot, rank) = ([32usize, 8, 8], 200usize, 4usize, 4usize);
    let local = mttkrp::run(&mttkrp::MttkrpParams::new(dims, nnz, hot, rank)).unwrap();
    for nodes in [1usize, 2, 4] {
        let p = mttkrp::MttkrpParams::new(dims, nnz, hot, rank).threads(2);
        let c = mttkrp_cluster(&p, &Nodes::Loopback(nodes)).unwrap();
        assert_bits(&c.m, &local.m, &format!("{nodes}-node"));
    }
    // Inspector-planned scheme over the wire: identical again.
    let p = mttkrp::MttkrpParams::new(dims, nnz, hot, rank)
        .threads(2)
        .with_inspect();
    let c = mttkrp_cluster(&p, &Nodes::Loopback(2)).unwrap();
    assert!(c.plan.is_some());
    assert_bits(&c.m, &local.m, "inspected 2-node");
}

#[test]
fn size_rule_picks_scheme_per_workload_without_changing_results() {
    // A small k-means object replicates outright.
    let p = sparse_kmeans::SparseKmeansParams::new(40, 12, 4, 3, 1)
        .threads(4)
        .with_inspect();
    let small = sparse_kmeans::run(&p).unwrap().plan.unwrap();
    assert_eq!(small.scheme, SyncScheme::FullReplication);

    // A CP-ALS over a tensor with one wide mode puts 16 threads' copies
    // over the budget, so the rule shares one copy under Atomic.
    // Arithmetic only: no such tensor is built.
    let wide = mttkrp::MttkrpParams::new([4, 1 << 22, 4], 16, 1, 4).threads(16);
    let over = cfr_sparse::plan(&wide.plan_params(&[0, 1, 2]));
    assert_eq!(over.scheme, SyncScheme::Atomic);
    assert_ne!(
        cfr_sparse::scheme_name(small.scheme),
        cfr_sparse::scheme_name(over.scheme)
    );

    // Either verdict reproduces the forced-replication MTTKRP bitwise.
    let (dims, nnz, hot, rank) = ([32usize, 8, 8], 200usize, 4usize, 4usize);
    let base = mttkrp::run(&mttkrp::MttkrpParams::new(dims, nnz, hot, rank).threads(4)).unwrap();
    let chosen = mttkrp::run(
        &mttkrp::MttkrpParams::new(dims, nnz, hot, rank)
            .threads(4)
            .with_inspect(),
    )
    .unwrap();
    assert_eq!(chosen.plan.unwrap().scheme, SyncScheme::FullReplication);
    assert_bits(&chosen.m, &base.m, "size-rule verdict");
    let mut p = mttkrp::MttkrpParams::new(dims, nnz, hot, rank).threads(4);
    p.config.scheme = over.scheme;
    assert_bits(&mttkrp::run(&p).unwrap().m, &base.m, "over-budget verdict");
}

#[test]
fn cp_als_is_deterministic_and_tolerance_stable() {
    let p = mttkrp::MttkrpParams::new([24, 6, 6], 120, 4, 3);
    let a = mttkrp::cp_als(&p, 2).unwrap();
    let b = mttkrp::cp_als(&p, 2).unwrap();
    // Fixed thread count: exact repeatability.
    for m in 0..3 {
        assert_eq!(a.factors[m], b.factors[m], "mode {m} repeat");
    }
    // Across thread counts and schemes: 1e-9 relative tolerance.
    for threads in [2usize, 4] {
        for (scheme, name) in all_schemes(24 * 3) {
            let mut q = p.clone().threads(threads);
            q.config.scheme = scheme;
            let c = mttkrp::cp_als(&q, 2).unwrap();
            for m in 0..3 {
                for (x, y) in a.factors[m].iter().zip(&c.factors[m]) {
                    assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                        "{threads}t/{name} mode {m}: {x} vs {y}"
                    );
                }
            }
            assert!((a.fit - c.fit).abs() <= 1e-9, "{threads}t/{name} fit");
        }
    }
    // More sweeps never hurt the fit (monotone up to solver noise).
    let five = mttkrp::cp_als(&p, 5).unwrap();
    assert!(five.fit >= a.fit - 1e-9);
}

//! Backend differential tests: every translated application must
//! produce **bit-identical** results under the compiled backend and the
//! interpreter, across thread counts and sync schemes.
//!
//! Why bitwise comparison is sound here: the kernel itself is
//! deterministic per row under both backends (same f64 op sequence);
//! the only run-to-run variance in the whole pipeline is the
//! *accumulation order* into shared reduction-object cells, which the
//! dynamic split claiming makes nondeterministic at >1 thread. The
//! k-means / histogram / linreg datasets are integer-valued with sums
//! far below 2^53, so f64 accumulation is exact and order-independent —
//! any difference is a real backend divergence. PCA's covariance phase
//! subtracts a non-representable mean, so only its single-threaded runs
//! are compared bitwise (order variance there is a property of the
//! engine, not the backend).
//!
//! When `rustc` is unavailable the compiled backend falls back to the
//! interpreter by design; these tests then skip (with a notice) rather
//! than vacuously pass.

use cfr_apps::Version;
use cfr_apps::{histogram, kmeans, linreg, pca};
use freeride::{KernelBackend, SyncScheme};

fn have_rustc() -> bool {
    cfr_codegen::install();
    if cfr_codegen::rustc_available() {
        true
    } else {
        eprintln!("skipping: rustc unavailable — compiled backend falls back to interpreter");
        false
    }
}

fn schemes() -> Vec<SyncScheme> {
    vec![
        SyncScheme::FullReplication,
        SyncScheme::FullLocking,
        SyncScheme::BucketLocking { stripes: 8 },
        SyncScheme::Atomic,
    ]
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: interpreted {x} vs compiled {y}"
        );
    }
}

/// The dispatch layer really selects the compiled backend when rustc is
/// present (so the identity tests below compare two distinct paths).
#[test]
fn compiled_backend_is_selected() {
    if !have_rustc() {
        return;
    }
    use cfr_core::{Kernel, OptLevel, RegClass};
    let kernel = Kernel {
        code: Vec::new(),
        entry: 0,
        regs: vec![RegClass::I64; 2],
        paths: vec![],
        state_names: vec![],
        out_names: vec![],
        combine: freeride::CombineOp::Sum,
    };
    let choice = cfr_core::make_runner(
        KernelBackend::Compiled,
        &kernel,
        Vec::new(),
        Vec::new(),
        0,
        OptLevel::Generated,
        None,
    )
    .unwrap();
    assert_eq!(choice.backend, KernelBackend::Compiled);
    assert!(choice.fallback.is_none());
}

/// k-means across all three strategies, 1/2/4/8 threads, all sync
/// schemes. Iterative: also exercises per-iteration re-instantiation
/// against the process-wide artifact cache.
#[test]
fn kmeans_backends_bit_identical() {
    if !have_rustc() {
        return;
    }
    for version in [Version::Generated, Version::Opt1, Version::Opt2] {
        for threads in [1usize, 2, 4, 8] {
            for scheme in schemes() {
                let mut params = kmeans::KmeansParams::new(240, 3, 4, 2).threads(threads);
                params.config.scheme = scheme;
                let base = kmeans::run(&params, version).unwrap();
                params.config.backend = KernelBackend::Compiled;
                let compiled = kmeans::run(&params, version).unwrap();
                let what = format!("kmeans {version:?} t{threads} {scheme:?}");
                assert_bits_eq(&base.centroids, &compiled.centroids, &what);
                assert_bits_eq(&base.counts, &compiled.counts, &what);
            }
        }
    }
}

/// Histogram (integer counts — exact under every interleaving).
#[test]
fn histogram_backends_bit_identical() {
    if !have_rustc() {
        return;
    }
    for version in [Version::Generated, Version::Opt1, Version::Opt2] {
        for threads in [1usize, 2, 4, 8] {
            for scheme in schemes() {
                let mut params = histogram::HistogramParams::new(600, 8).threads(threads);
                params.config.scheme = scheme;
                let base = histogram::run(&params, version).unwrap();
                params.config.backend = KernelBackend::Compiled;
                let compiled = histogram::run(&params, version).unwrap();
                assert_bits_eq(
                    &base.hist,
                    &compiled.hist,
                    &format!("histogram {version:?} t{threads} {scheme:?}"),
                );
            }
        }
    }
}

/// Linear regression (integer sufficient statistics — exact).
#[test]
fn linreg_backends_bit_identical() {
    if !have_rustc() {
        return;
    }
    for threads in [1usize, 2, 4, 8] {
        for scheme in schemes() {
            let mut params = linreg::LinregParams::new(300).threads(threads);
            params.config.scheme = scheme;
            let base = linreg::run(&params, Version::Opt2).unwrap();
            params.config.backend = KernelBackend::Compiled;
            let compiled = linreg::run(&params, Version::Opt2).unwrap();
            let what = format!("linreg t{threads} {scheme:?}");
            assert_bits_eq(&base.sums, &compiled.sums, &what);
            assert_eq!(
                base.slope.to_bits(),
                compiled.slope.to_bits(),
                "{what} slope"
            );
        }
    }
}

/// PCA: bitwise on the single-threaded runs (every scheme); the mean
/// phase (exact integer sums) bitwise at every thread count.
#[test]
fn pca_backends_bit_identical() {
    if !have_rustc() {
        return;
    }
    for version in [Version::Generated, Version::Opt1, Version::Opt2] {
        for scheme in schemes() {
            let mut params = pca::PcaParams::new(40, 30).threads(1);
            params.config.scheme = scheme;
            let base = pca::run(&params, version).unwrap();
            params.config.backend = KernelBackend::Compiled;
            let compiled = pca::run(&params, version).unwrap();
            let what = format!("pca {version:?} t1 {scheme:?}");
            assert_bits_eq(&base.mean, &compiled.mean, &what);
            assert_bits_eq(&base.cov, &compiled.cov, &what);
        }
    }
    for threads in [2usize, 4, 8] {
        let mut params = pca::PcaParams::new(40, 30).threads(threads);
        let base = pca::run(&params, Version::Opt2).unwrap();
        params.config.backend = KernelBackend::Compiled;
        let compiled = pca::run(&params, Version::Opt2).unwrap();
        assert_bits_eq(&base.mean, &compiled.mean, &format!("pca mean t{threads}"));
    }
}

//! The live metrics hub is observation only: enabling it on an engine
//! with tracing off must leave every result bit-identical while the
//! hub records the engine's counters.

use freeride::{CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjHandle, RObjLayout, Split};

const D: usize = 4;
const K: usize = 4;

/// Small-integer coordinates: every cell sum is exact in f64, so the
/// centroids do not depend on the order the workers' copies combine in.
fn points(n: usize) -> Vec<f64> {
    (0..n * D).map(|i| ((i * 7919) % 1009) as f64).collect()
}

/// Three rounds of manual k-means; returns the final centroid bits.
fn kmeans(engine: &Engine, data: &[f64]) -> Vec<u64> {
    let view = DataView::new(data, D).unwrap();
    let layout = RObjLayout::new(vec![GroupSpec::new("newCent", K * (D + 1), CombineOp::Sum)]);
    let mut centroids = data[..K * D].to_vec();
    for _ in 0..3 {
        let cents = &centroids;
        let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                let dist =
                    |c: usize| -> f64 { (0..D).map(|j| (row[j] - cents[c * D + j]).powi(2)).sum() };
                let best = (0..K).min_by(|&a, &b| dist(a).total_cmp(&dist(b))).unwrap();
                for (j, &x) in row.iter().enumerate() {
                    robj.accumulate(0, best * (D + 1) + j, x);
                }
                robj.accumulate(0, best * (D + 1) + D, 1.0);
            }
        };
        let outcome = engine.run(view, &layout, &kernel);
        let cells = outcome.robj.group_slice(0);
        for c in 0..K {
            let count = cells[c * (D + 1) + D];
            if count > 0.0 {
                for j in 0..D {
                    centroids[c * D + j] = cells[c * (D + 1) + j] / count;
                }
            }
        }
    }
    centroids.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn enabling_the_metrics_hub_is_bit_identical_and_counts() {
    let data = points(2_000);
    let engine = Engine::new(JobConfig::with_threads(2));
    let hub = engine.recorder().hub().clone();
    assert!(!hub.is_enabled(), "tracing off starts with the hub off");

    let off = kmeans(&engine, &data);
    assert!(
        hub.snapshot().counters.is_empty(),
        "a disabled hub records nothing"
    );

    hub.set_enabled(true);
    let on = kmeans(&engine, &data);
    assert_eq!(on, off, "enabling the metrics hub changed the centroids");

    let counters = hub.snapshot().counters;
    assert_eq!(counters.get("engine.passes"), Some(&3));
    assert!(counters.get("engine.splits").copied().unwrap_or(0) > 0);
}

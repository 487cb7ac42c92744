//! Histogram — an extension application from the FREERIDE literature:
//! bucket counts over scalar data, the smallest possible generalized
//! reduction with an indirect (data-dependent) reduction-object index.

use std::time::Instant;

use cfr_core::OptLevel;
use chapel_frontend::programs;
use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjHandle, RObjLayout, RunStats, Split,
};

use crate::error::AppError;
use crate::timing::{AppTiming, Version};
use crate::{data, translated};

/// Parameters of a histogram run.
#[derive(Debug, Clone)]
pub struct HistogramParams {
    /// Number of samples.
    pub n: usize,
    /// Number of buckets.
    pub buckets: usize,
    /// FREERIDE job configuration.
    pub config: JobConfig,
}

impl HistogramParams {
    /// Construct with defaults.
    pub fn new(n: usize, buckets: usize) -> HistogramParams {
        HistogramParams {
            n,
            buckets,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> HistogramParams {
        self.config.threads = t;
        self
    }
}

/// Result of a histogram run.
#[derive(Debug, Clone)]
pub struct HistogramResult {
    /// Bucket counts.
    pub hist: Vec<f64>,
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Run the histogram in the requested version.
pub fn run(params: &HistogramParams, version: Version) -> Result<HistogramResult, AppError> {
    match version.translated() {
        Some(opt) => run_translated(params, opt),
        None => Ok(run_manual(params)),
    }
}

fn run_translated(params: &HistogramParams, opt: OptLevel) -> Result<HistogramResult, AppError> {
    let (n, buckets) = (params.n, params.buckets);
    let src = programs::histogram(n, buckets);
    let samples = || vec![data::histogram_nested(n)];
    let (hist, timing) = translated::run(&src, opt, &params.config, samples, |loops, passes| {
        let [c] = loops else {
            return Err(AppError::new("histogram has one reduction loop"));
        };
        Ok(passes.run(c, Vec::new())?.group_slice(0).to_vec())
    })?;
    Ok(HistogramResult { hist, timing })
}

fn run_manual(params: &HistogramParams) -> HistogramResult {
    let wall = Instant::now();
    let (n, buckets) = (params.n, params.buckets);
    let buffer = data::histogram_flat(n);
    let layout = RObjLayout::new(vec![GroupSpec::new("hist", buckets, CombineOp::Sum)]);
    let engine = Engine::new(params.config.clone());
    let view = DataView::new(&buffer, 1).expect("unit 1");
    let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            // Same bucket rule as the Chapel program: int(x*B)+1, capped.
            let mut b = (row[0] * buckets as f64).floor() as usize + 1;
            if b > buckets {
                b = buckets;
            }
            robj.accumulate(0, b - 1, 1.0);
        }
    };
    let outcome = engine.run(view, &layout, &kernel);
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };
    stats.absorb(&outcome.stats);
    HistogramResult {
        hist: outcome.robj.group_slice(0).to_vec(),
        timing: AppTiming {
            linearize_ns: 0,
            stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn all_versions_agree_and_count_everything() {
        let params = HistogramParams::new(500, 8).threads(2);
        let manual = run(&params, Version::Manual).unwrap();
        assert_eq!(manual.hist.iter().sum::<f64>(), 500.0);
        for v in [Version::Generated, Version::Opt1, Version::Opt2] {
            let r = run(&params, v).unwrap();
            assert_eq!(r.hist, manual.hist, "{}", v.label());
        }
    }

    #[test]
    fn matches_interpreter_oracle() {
        let (n, b) = (120usize, 5usize);
        let interp = chapel_interp::Interpreter::run_source(&programs::histogram(n, b)).unwrap();
        let oracle = interp.global("hist").unwrap().to_linear().unwrap();
        let oracle = linearize::Linearizer::new(&linearize::Shape::array(linearize::Shape::Int, b))
            .linearize(&oracle)
            .unwrap()
            .buffer;
        let r = run(&HistogramParams::new(n, b), Version::Generated).unwrap();
        assert_eq!(r.hist, oracle);
    }
}

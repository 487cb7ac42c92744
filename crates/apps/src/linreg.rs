//! Simple linear regression via sufficient statistics — an extension
//! application exercising the *zipped multi-array dataset* path: the
//! Chapel program reads two parallel arrays (`xs[i]`, `ys[i]`), which
//! the translator fuses into one two-slot-per-row FREERIDE dataset.

use std::time::Instant;

use cfr_core::OptLevel;
use chapel_frontend::programs;
use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjHandle, RObjLayout, RunStats, Split,
};
use linearize::Value;

use crate::error::AppError;
use crate::timing::{AppTiming, Version};
use crate::translated;

/// Parameters of a regression run.
#[derive(Debug, Clone)]
pub struct LinregParams {
    /// Number of samples.
    pub n: usize,
    /// FREERIDE job configuration.
    pub config: JobConfig,
}

impl LinregParams {
    /// Construct with defaults.
    pub fn new(n: usize) -> LinregParams {
        LinregParams {
            n,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> LinregParams {
        self.config.threads = t;
        self
    }
}

/// Result of a regression run.
#[derive(Debug, Clone)]
pub struct LinregResult {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// The four sufficient statistics `(Σx, Σy, Σx², Σxy)`.
    pub sums: [f64; 4],
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Run the regression in the requested version.
pub fn run(params: &LinregParams, version: Version) -> Result<LinregResult, AppError> {
    match version.translated() {
        Some(opt) => run_translated(params, opt),
        None => Ok(run_manual(params)),
    }
}

fn solve(n: usize, sx: f64, sy: f64, sxx: f64, sxy: f64) -> (f64, f64) {
    let nf = n as f64;
    let slope = (nf * sxy - sx * sy) / (nf * sxx - sx * sx);
    let intercept = (sy - slope * sx) / nf;
    (slope, intercept)
}

fn run_translated(params: &LinregParams, opt: OptLevel) -> Result<LinregResult, AppError> {
    let n = params.n;
    let src = programs::linear_regression(n);
    // Two parallel arrays zipped by the linearizer.
    let xs_ys = || {
        vec![
            Value::Array((1..=n).map(|i| Value::Real(i as f64)).collect()),
            Value::Array((1..=n).map(|i| Value::Real(3.0 * i as f64 + 1.0)).collect()),
        ]
    };
    let (sums, timing) = translated::run(&src, opt, &params.config, xs_ys, |loops, passes| {
        let [c] = loops else {
            return Err(AppError::new("regression has one reduction loop"));
        };
        // Four scalar outputs, one group each, in detection order:
        // sx, sy, sxx, sxy.
        let robj = passes.run(c, Vec::new())?;
        Ok([0, 1, 2, 3].map(|g| robj.get(g, 0)))
    })?;
    let [sx, sy, sxx, sxy] = sums;
    let (slope, intercept) = solve(n, sx, sy, sxx, sxy);
    Ok(LinregResult {
        slope,
        intercept,
        sums,
        timing,
    })
}

fn run_manual(params: &LinregParams) -> LinregResult {
    let wall = Instant::now();
    let n = params.n;
    let buffer = crate::data::linreg_flat(n);
    let layout = RObjLayout::new(vec![GroupSpec::new("stats", 4, CombineOp::Sum)]);
    let engine = Engine::new(params.config.clone());
    let view = DataView::new(&buffer, 2).expect("unit 2");
    let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            let (x, y) = (row[0], row[1]);
            robj.accumulate(0, 0, x);
            robj.accumulate(0, 1, y);
            robj.accumulate(0, 2, x * x);
            robj.accumulate(0, 3, x * y);
        }
    };
    let outcome = engine.run(view, &layout, &kernel);
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };
    stats.absorb(&outcome.stats);
    let sx = outcome.robj.get(0, 0);
    let sy = outcome.robj.get(0, 1);
    let sxx = outcome.robj.get(0, 2);
    let sxy = outcome.robj.get(0, 3);
    let (slope, intercept) = solve(n, sx, sy, sxx, sxy);
    LinregResult {
        slope,
        intercept,
        sums: [sx, sy, sxx, sxy],
        timing: AppTiming {
            linearize_ns: 0,
            stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod linreg_tests {
    use super::*;

    #[test]
    fn recovers_the_line_in_every_version() {
        let params = LinregParams::new(200).threads(2);
        for v in Version::ALL {
            let r = run(&params, v).unwrap();
            assert!(
                (r.slope - 3.0).abs() < 1e-9,
                "{}: slope {}",
                v.label(),
                r.slope
            );
            assert!(
                (r.intercept - 1.0).abs() < 1e-6,
                "{}: intercept {}",
                v.label(),
                r.intercept
            );
        }
    }

    #[test]
    fn sums_match_across_versions() {
        let params = LinregParams::new(64);
        let manual = run(&params, Version::Manual).unwrap();
        let gen = run(&params, Version::Generated).unwrap();
        for (a, b) in manual.sums.iter().zip(&gen.sums) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

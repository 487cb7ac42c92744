//! The FREERIDE application API — Table I of the paper.
//!
//! | Paper (C)                                   | Here                                        |
//! |---------------------------------------------|---------------------------------------------|
//! | `void (*reduction_t)(reduction_args_t*)`    | [`ReductionFn`] (field of [`Application`])   |
//! | `void (*combination_t)(void*)`              | [`CombinationFn`] (optional; default merge)  |
//! | `(*finalize_t)(void*)`                      | [`FinalizeFn`] (optional)                    |
//! | `int (*splitter_t)(void*, int, ...)`        | [`Splitter`] (default provided)              |
//! | `int reduction_object_alloc()`              | [`Runtime::reduction_object_alloc`]          |
//! | `void accumulate(int, int, void* value)`    | [`RObjHandle::accumulate`]                   |
//! | `void* get_intermediate_result(int,int,int)`| [`RObjHandle::get`]                          |
//!
//! The *functions defined by users* (reduction, combination, finalize)
//! are bundled into an [`Application`]; the *functions provided by the
//! middleware* (splitter, reduction-object allocation, accumulate,
//! get-intermediate-result) are methods of [`Runtime`] and
//! [`RObjHandle`].
//!
//! ```
//! use std::sync::Arc;
//! use freeride::{Application, GroupSpec, CombineOp, Runtime, JobConfig};
//!
//! // A "manual FR" application: global sum of every slot.
//! let mut rt = Runtime::initialize(JobConfig::with_threads(2));
//! let layout = rt.reduction_object_alloc(vec![GroupSpec::new("sum", 1, CombineOp::Sum)]);
//! rt.register(Application::new(Arc::new(|split, robj| {
//!     for row in split.iter_rows() {
//!         robj.accumulate(0, 0, row.iter().sum());
//!     }
//! })));
//! let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! let out = rt.execute(&data, 4).unwrap();
//! assert_eq!(out.robj.get(0, 0), 4950.0);
//! ```

use std::sync::Arc;

use crate::engine::{
    CombinationFn, Engine, FinalizeFn, JobConfig, JobOutcome, PassHooks, PassInput,
};
use crate::robj::{GroupSpec, RObjLayout, ReductionObject};
use crate::split::{DataView, Split, Splitter};
use crate::sync::RObjHandle;
use crate::FreerideError;

/// The user-supplied local reduction (`reduction_t`): processes one
/// split, updating the reduction object through the handle. Must be
/// order-independent across data instances.
pub type ReductionFn = Arc<dyn Fn(&Split<'_>, &mut dyn RObjHandle) + Send + Sync>;

/// A FREERIDE application: the three user-defined functions of Table I.
#[derive(Clone)]
pub struct Application {
    /// The local reduction.
    pub reduction: ReductionFn,
    /// Custom combination (`combination_t`); `None` uses the default
    /// cell-wise combine — "in our work, these default splitter and
    /// combination functions are used".
    pub combination: Option<CombinationFn>,
    /// Finalize (`finalize_t`); `None` skips post-processing.
    pub finalize: Option<FinalizeFn>,
}

impl Application {
    /// An application with only a local reduction (default combination,
    /// no finalize).
    pub fn new(reduction: ReductionFn) -> Application {
        Application {
            reduction,
            combination: None,
            finalize: None,
        }
    }

    /// Attach a custom combination function.
    pub fn with_combination(mut self, f: CombinationFn) -> Application {
        self.combination = Some(f);
        self
    }

    /// Attach a finalize function.
    pub fn with_finalize(mut self, f: FinalizeFn) -> Application {
        self.finalize = Some(f);
        self
    }

    fn hooks(&self) -> PassHooks<'_> {
        PassHooks {
            combination: self.combination.as_ref(),
            finalize: self.finalize.as_ref(),
        }
    }
}

/// The middleware runtime: owns the engine configuration, the reduction
/// object layout, and the registered application.
pub struct Runtime {
    engine: Engine,
    layout: Option<Arc<RObjLayout>>,
    app: Option<Application>,
}

impl Runtime {
    /// Initialise the middleware ("initialization of FREERIDE including
    /// initialization of the reduction dataset and the reduction
    /// object").
    pub fn initialize(config: JobConfig) -> Runtime {
        Runtime {
            engine: Engine::new(config),
            layout: None,
            app: None,
        }
    }

    /// `reduction_object_alloc`: declare the reduction object's groups;
    /// every element receives a unique `(group, index)` ID.
    pub fn reduction_object_alloc(&mut self, groups: Vec<GroupSpec>) -> Arc<RObjLayout> {
        let layout = RObjLayout::new(groups);
        self.layout = Some(layout.clone());
        layout
    }

    /// Register the application's user-defined functions.
    pub fn register(&mut self, app: Application) {
        self.app = Some(app);
    }

    /// Override the splitter (the default splitter is used otherwise).
    pub fn set_splitter(&mut self, splitter: Splitter) {
        self.engine.config.splitter = splitter;
    }

    /// The engine configuration (e.g. to change thread count between
    /// runs).
    pub fn config_mut(&mut self) -> &mut JobConfig {
        &mut self.engine.config
    }

    /// Run one reduction pass over `data` viewed as rows of `unit`
    /// slots.
    pub fn execute(&self, data: &[f64], unit: usize) -> Result<JobOutcome, FreerideError> {
        let app = self.app.as_ref().expect("no application registered");
        let layout = self
            .layout
            .as_ref()
            .expect("reduction object not allocated");
        let view = DataView::new(data, unit)?;
        let kernel = app.reduction.as_ref();
        self.engine
            .run_pass(PassInput::Rows(view), layout, &kernel, app.hooks())
    }

    /// The outer sequential loop: up to `iters` passes; after each pass
    /// `step` may update external state (e.g. centroids) and return
    /// `false` to stop early. Stats accumulate across passes.
    pub fn execute_iterations(
        &self,
        data: &[f64],
        unit: usize,
        iters: usize,
        mut step: impl FnMut(usize, &ReductionObject) -> bool,
    ) -> Result<JobOutcome, FreerideError> {
        let app = self.app.as_ref().expect("no application registered");
        let layout = self
            .layout
            .as_ref()
            .expect("reduction object not allocated");
        let view = DataView::new(data, unit)?;
        let kernel = app.reduction.as_ref();
        self.engine.run_iterations(
            PassInput::Rows(view),
            layout,
            0,
            iters,
            &kernel,
            app.hooks(),
            |it, robj| step(it, robj),
            |_, _| {},
        )
    }
}

#[cfg(test)]
mod api_tests {
    use super::*;
    use crate::robj::CombineOp;
    use crate::sync::SyncScheme;

    fn sum_app() -> Application {
        Application::new(Arc::new(|split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                robj.accumulate(0, 0, row.iter().sum());
            }
        }))
    }

    #[test]
    fn runtime_end_to_end() {
        let mut rt = Runtime::initialize(JobConfig::with_threads(3));
        rt.reduction_object_alloc(vec![GroupSpec::new("sum", 1, CombineOp::Sum)]);
        rt.register(sum_app());
        let data: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let out = rt.execute(&data, 3).unwrap();
        assert_eq!(out.robj.get(0, 0), data.iter().sum::<f64>());
    }

    #[test]
    fn runtime_iterative_with_early_stop() {
        let mut rt = Runtime::initialize(JobConfig::with_threads(2));
        rt.reduction_object_alloc(vec![GroupSpec::new("sum", 1, CombineOp::Sum)]);
        rt.register(sum_app());
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut seen = 0;
        let out = rt
            .execute_iterations(&data, 4, 10, |it, robj| {
                assert_eq!(robj.get(0, 0), data.iter().sum::<f64>());
                seen += 1;
                it < 1
            })
            .unwrap();
        assert_eq!(seen, 2);
        assert_eq!(out.stats.splits.len(), 4); // 2 iterations × 2 splits
    }

    #[test]
    fn runtime_with_finalize_and_scheme() {
        let mut rt = Runtime::initialize(JobConfig {
            threads: 2,
            scheme: SyncScheme::Atomic,
            ..Default::default()
        });
        rt.reduction_object_alloc(vec![GroupSpec::new("sum", 1, CombineOp::Sum)]);
        rt.register(sum_app().with_finalize(Arc::new(|r| {
            let v = r.get(0, 0);
            r.set(0, 0, v * 2.0);
        })));
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let out = rt.execute(&data, 2).unwrap();
        assert_eq!(out.robj.get(0, 0), 90.0);
    }

    #[test]
    fn bad_unit_is_an_error() {
        let mut rt = Runtime::initialize(JobConfig::default());
        rt.reduction_object_alloc(vec![GroupSpec::new("sum", 1, CombineOp::Sum)]);
        rt.register(sum_app());
        assert!(rt.execute(&[0.0; 10], 3).is_err());
    }
}

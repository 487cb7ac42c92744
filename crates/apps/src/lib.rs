//! cfr-apps — the data-mining applications of the paper's evaluation
//! (k-means and PCA) plus extension applications from the FREERIDE
//! literature (histogram, linear regression, kNN).
//!
//! Every application ships as four versions — `generated`, `opt-1`,
//! `opt-2` (through the full Chapel→FREERIDE translation pipeline), and
//! `manual FR` (hand-written against the FREERIDE API) — sharing one
//! driver, one dataset, and one result type, so the benchmark harness
//! can compare them exactly as the paper's figures do.
//!
//! ```
//! use cfr_apps::{kmeans, Version};
//!
//! let params = kmeans::KmeansParams::new(100, 3, 4, 2).threads(2);
//! let manual = kmeans::run(&params, Version::Manual).unwrap();
//! let opt2 = kmeans::run(&params, Version::Opt2).unwrap();
//! for (a, b) in manual.centroids.iter().zip(&opt2.centroids) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod data;
mod error;
pub mod histogram;
pub mod kmeans;
pub mod knn;
pub mod linreg;
pub mod mttkrp;
pub mod pca;
pub mod sparse_kmeans;
mod timing;
mod translated;

pub use error::AppError;
pub use timing::{AppTiming, Version};

//! Application-level errors.

use std::fmt;

/// Anything that can fail while driving an application.
#[derive(Debug)]
pub enum AppError {
    /// The translation pipeline failed.
    Core(cfr_core::CoreError),
    /// The FREERIDE runtime failed.
    Freeride(freeride::FreerideError),
    /// Linearization failed.
    Linearize(linearize::LinearizeError),
    /// The frontend failed.
    Frontend(chapel_frontend::FrontendError),
    /// The sparse tier failed (format, lowering, or planning).
    Sparse(cfr_sparse::SparseError),
    /// A driver-level problem (e.g. detection found nothing).
    Driver(String),
}

impl AppError {
    /// A driver-level error.
    pub fn new(msg: impl Into<String>) -> AppError {
        AppError::Driver(msg.into())
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Core(e) => write!(f, "{e}"),
            AppError::Freeride(e) => write!(f, "{e}"),
            AppError::Linearize(e) => write!(f, "{e}"),
            AppError::Frontend(e) => write!(f, "{e}"),
            AppError::Sparse(e) => write!(f, "{e}"),
            AppError::Driver(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<cfr_core::CoreError> for AppError {
    fn from(e: cfr_core::CoreError) -> Self {
        AppError::Core(e)
    }
}

impl From<freeride::FreerideError> for AppError {
    fn from(e: freeride::FreerideError) -> Self {
        AppError::Freeride(e)
    }
}

impl From<linearize::LinearizeError> for AppError {
    fn from(e: linearize::LinearizeError) -> Self {
        AppError::Linearize(e)
    }
}

impl From<chapel_frontend::FrontendError> for AppError {
    fn from(e: chapel_frontend::FrontendError) -> Self {
        AppError::Frontend(e)
    }
}

impl From<freeride_dist::DistError> for AppError {
    fn from(e: freeride_dist::DistError) -> Self {
        AppError::Driver(e.to_string())
    }
}

impl From<cfr_sparse::SparseError> for AppError {
    fn from(e: cfr_sparse::SparseError) -> Self {
        AppError::Sparse(e)
    }
}

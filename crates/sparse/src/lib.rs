//! Sparse & irregular workload tier for the Chapel → FREERIDE runtime.
//!
//! The paper's workloads are dense: every row has the same unit and
//! every update touches a statically known reduction-object cell. This
//! crate extends the stack to *irregular* workloads — sparse matrices
//! and tensors — where per-row work and the update footprint both
//! depend on the data:
//!
//! * [`format`] — the self-describing `FRSP` sidecar format holding
//!   exact CSR/COO index structure next to the padded `.frds` the
//!   engine scans; decoding is total (typed [`SparseError`], never a
//!   panic).
//! * [`linearize`] — lowering onto FREERIDE's dense 2-D view (padded
//!   CSR rows, COO quads) and **nnz-balanced** partitioning: weighted
//!   thread splits ([`csr_splitter`]) and node shard bounds
//!   ([`nnz_balanced_bounds`]) cut on the nonzero prefix sum, not row
//!   count.
//! * [`inspect`] — the inspector/executor pass: one scan over a
//!   shard's index pattern, then a per-region choice between
//!   replication, bucket locking, and the hybrid scheme
//!   ([`freeride::SyncScheme::Hybrid`]), recorded as `sparse.inspect`
//!   spans and `sparse.*` hub counters.
//! * [`synthetic`] — closed-form deterministic inputs shared with the
//!   mini-Chapel differential oracles.

pub mod error;
pub mod format;
pub mod inspect;
pub mod linearize;
pub mod synthetic;

pub use error::SparseError;
pub use format::{
    decode_frsp, encode_frsp, read_frsp, sidecar_path, write_frsp, CooTensor, CsrMatrix,
    SparseData, FRSP_MAGIC, FRSP_VERSION, KIND_COO, KIND_CSR,
};
pub use inspect::{
    inspect_padded, inspect_quads, plan, plan_padded_csr, plan_quads, scheme_name, IndexPattern,
    PlanParams, RegionDecision, SchemePlan,
};
pub use linearize::{
    coo_to_quads, csr_row_weights, csr_splitter, csr_to_padded, nnz_balanced_bounds, weight_prefix,
    write_coo_dataset, write_csr_dataset, COO_UNIT,
};
pub use synthetic::{synthetic_coo, synthetic_csr, synthetic_factor};

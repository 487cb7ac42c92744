//! Shared timing bookkeeping for application runs.

use std::time::Instant;

use freeride::RunStats;

/// Which implementation of an application ran — the four versions the
/// paper's evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Compiler-generated FREERIDE invocation, no optimizations.
    Generated,
    /// Strength reduction applied.
    Opt1,
    /// Strength reduction + selective linearization of hot state.
    Opt2,
    /// Hand-written against the FREERIDE API ("manual FR").
    Manual,
}

impl Version {
    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Version::Generated => "generated",
            Version::Opt1 => "opt-1",
            Version::Opt2 => "opt-2",
            Version::Manual => "manual FR",
        }
    }

    /// The translated versions (everything but manual).
    pub fn translated(&self) -> Option<cfr_core::OptLevel> {
        match self {
            Version::Generated => Some(cfr_core::OptLevel::Generated),
            Version::Opt1 => Some(cfr_core::OptLevel::Opt1),
            Version::Opt2 => Some(cfr_core::OptLevel::Opt2),
            Version::Manual => None,
        }
    }

    /// All four versions in the paper's plotting order.
    pub const ALL: [Version; 4] = [
        Version::Generated,
        Version::Opt1,
        Version::Opt2,
        Version::Manual,
    ];
}

/// Timing of one application run (possibly many engine iterations).
#[derive(Debug, Clone, Default)]
pub struct AppTiming {
    /// One-time dataset (and opt-2 state) linearization, ns. Zero for
    /// the manual version, which owns its flat data.
    pub linearize_ns: u64,
    /// Accumulated engine statistics across all iterations.
    pub stats: RunStats,
    /// Wall time of the whole run, ns.
    pub wall_ns: u64,
    /// Drained span trace of the run; `Some` when the job config asked
    /// for tracing ([`freeride::TraceLevel`] above `Off`), `None`
    /// otherwise.
    pub trace: Option<obs::Trace>,
    /// Snapshot of the metrics hub the run counted into (job totals
    /// such as `engine.passes`); `Some` when the hub was enabled, which
    /// it is whenever tracing is on.
    pub telemetry: Option<obs::MetricsSnapshot>,
}

impl AppTiming {
    /// The timing of a run that recorded into `rec` and started at
    /// `wall`: its drained spans when tracing was on, the snapshot of
    /// its hub when the hub was.
    pub fn recorded(
        linearize_ns: u64,
        stats: RunStats,
        wall: Instant,
        rec: &obs::Recorder,
    ) -> AppTiming {
        AppTiming {
            linearize_ns,
            stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            trace: (rec.level() != obs::TraceLevel::Off).then(|| rec.drain()),
            telemetry: rec.hub().is_enabled().then(|| rec.hub().snapshot()),
        }
    }

    /// Modeled parallel time at `threads` logical threads: sequential
    /// linearization + reduce makespan + combination (see DESIGN.md §5).
    pub fn modeled_ns(&self, threads: usize) -> u64 {
        self.linearize_ns + self.stats.modeled_parallel_ns(threads)
    }

    /// Modeled time with the parallel-linearization extension enabled
    /// (the linearization term divides across threads).
    pub fn modeled_parallel_linearize_ns(&self, threads: usize) -> u64 {
        self.linearize_ns / threads.max(1) as u64 + self.stats.modeled_parallel_ns(threads)
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Version::Generated.label(), "generated");
        assert_eq!(Version::Manual.label(), "manual FR");
        assert_eq!(Version::ALL.len(), 4);
    }

    #[test]
    fn translated_mapping() {
        assert!(Version::Manual.translated().is_none());
        assert_eq!(Version::Opt1.translated(), Some(cfr_core::OptLevel::Opt1));
    }
}

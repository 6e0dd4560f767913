//! The declarative Scenario API.
//!
//! This module turns the reproduction into a data-driven experiment
//! platform. Three pieces cooperate:
//!
//! 1. [`ScenarioSpec`] — a serde-serializable description of one experiment
//!    (platform, thermal package, workload, policy, schedule), optionally
//!    carrying [`SweepSpec`] axes that expand a single spec into a grid of
//!    concrete runs (e.g. threshold × package × policy). TOML and JSON specs
//!    round-trip. The workspace's `scenarios/` TOML files are the only
//!    definition of the paper's evaluation; this crate embeds them
//!    ([`shipped`]) so binaries run the same batch outside the repository.
//! 2. [`PolicyRegistry`] — a name → factory registry resolving the policy
//!    names specs use. The paper's four policies are built in; third-party
//!    policies register without touching core code.
//! 3. [`Runner`] — expands and executes a batch of scenarios (in parallel by
//!    default, one simulation per worker) and returns a [`BatchReport`] of
//!    structured [`RunReport`]s with JSON/CSV emission. Report order follows
//!    expansion order, so parallel and sequential execution produce
//!    byte-identical reports.
//!
//! Two further pieces make large sweeps cheap to re-run and distributable
//! across processes:
//!
//! 4. [`ScenarioHash`] + [`RunCache`] — a concrete (post-expansion) spec has
//!    a stable content hash of its semantic fields; a cache ([`FsCache`] on
//!    disk, [`MemCache`] in process) memoizes each run's report under that
//!    hash, so a warm re-run of a sweep performs zero simulations
//!    ([`Runner::with_cache`]).
//! 5. [`ShardPlan`] + [`PartialReport`] — a batch splits into `K` contiguous
//!    shards executed by independent workers ([`Runner::run_shard`]);
//!    [`PartialReport::merge`] reassembles the partials into a
//!    [`BatchReport`] byte-identical to a single-process run.
//! 6. [`expand_work`] + [`BatchAssembler`] (the [`queue`] module) — the
//!    lease-friendly view of the same expansion: an indexed work list plus an
//!    out-of-order, duplicate-tolerant collector. These are the building
//!    blocks of the `tbp-sweepd` coordinator/worker service
//!    (`docs/DISTRIBUTED.md`).
//!
//! The spec → expand → run → report pipeline, and where the cache and shard
//! layers sit in it, is drawn out in `docs/ARCHITECTURE.md`; the TOML schema
//! specs are written in is documented field by field in
//! `docs/SCENARIO_FORMAT.md`.
//!
//! # Example
//!
//! ```
//! use tbp_core::scenario::{Runner, ScenarioSpec, SweepSpec};
//! use tbp_thermal::package::PackageKind;
//!
//! # fn main() -> Result<(), tbp_core::SimError> {
//! // Figures 7+8 in four lines: three policies × four thresholds.
//! let spec = ScenarioSpec::new("fig7")
//!     .with_package(PackageKind::MobileEmbedded)
//!     .with_schedule(0.5, 1.0) // short for the doc test; the paper uses 8+20 s
//!     .with_sweep(
//!         SweepSpec::default()
//!             .with_policies(["thermal-balancing", "energy-balancing"])
//!             .with_thresholds([2.0, 4.0]),
//!     );
//! let batch = Runner::new().run_spec(&spec)?;
//! assert_eq!(batch.len(), 4);
//! println!("{}", batch.to_csv());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod hash;
pub mod queue;
pub mod registry;
pub mod runner;
pub mod shard;
pub mod spec;

pub use cache::{CacheMetrics, FsCache, MemCache, RunCache};
pub use hash::{canonical_json, ScenarioHash, HASH_DOMAIN, HASH_DOMAIN_PHASED};
pub use queue::{expand_work, BatchAssembler, WorkItem};
pub use registry::{PolicyFactory, PolicyRegistry};
pub use runner::{
    batch_digest, BatchReport, RunOutcome, RunReport, Runner, RunnerMetrics, RunnerStats,
    TableReport,
};
pub use shard::{PartialReport, ShardPlan};
pub use spec::{
    package_label, workload_kind_label, AnalysisKind, PhaseSpec, PlatformSpec, PolicySpec,
    ResolvedSchedule, ScenarioSpec, ScheduleSpec, SpecDelta, SweepSpec, TraceSpec, WorkloadDecl,
    WorkloadKind, DEFAULT_THRESHOLD, MAX_RUN_STEPS,
};

use crate::error::SimError;
use std::path::Path;

/// One `(file name, TOML text)` entry of [`SHIPPED_FILES`].
macro_rules! shipped_file {
    ($file:literal) => {
        (
            $file,
            include_str!(concat!("../../../../scenarios/", $file)),
        )
    };
}

/// Loads one scenario from a TOML file.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the file cannot be read or parsed; the
/// message reads `cannot load scenario <path>: <reason>`.
pub fn load_toml_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, SimError> {
    let path = path.as_ref();
    let failed = |reason: &dyn std::fmt::Display| {
        SimError::Spec(format!("cannot load scenario {}: {reason}", path.display()))
    };
    let text = std::fs::read_to_string(path).map_err(|e| failed(&e))?;
    ScenarioSpec::from_toml_str(&text).map_err(|e| match e {
        // Keep one `invalid scenario specification` prefix, not two.
        SimError::Spec(msg) => failed(&msg),
        other => failed(&other),
    })
}

/// Loads every `*.toml` scenario in a directory, sorted by file name (the
/// shipped files use numeric prefixes to fix the paper's order).
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the directory cannot be read or any file
/// fails to parse.
pub fn load_dir(path: impl AsRef<Path>) -> Result<Vec<ScenarioSpec>, SimError> {
    let path = path.as_ref();
    let entries = std::fs::read_dir(path)
        .map_err(|e| SimError::Spec(format!("cannot read {}: {e}", path.display())))?;
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files.into_iter().map(load_toml_file).collect()
}

/// The workspace's `scenarios/*.toml` files, embedded at compile time as
/// `(file name, TOML text)` pairs in file-name order — the order
/// [`load_dir`] returns them in.
pub const SHIPPED_FILES: [(&str, &str); 10] = [
    shipped_file!("10_table1_power.toml"),
    shipped_file!("20_table2_mapping.toml"),
    shipped_file!("30_fig2_migration_cost.toml"),
    shipped_file!("40_threshold_sweep_mobile.toml"),
    shipped_file!("50_threshold_sweep_hiperf.toml"),
    shipped_file!("60_migration_rate.toml"),
    shipped_file!("70_queue_capacity.toml"),
    shipped_file!("80_video_analytics.toml"),
    shipped_file!("90_dag_sweep.toml"),
    shipped_file!("95_phased_reconfig.toml"),
];

/// The paper's evaluation: the embedded [`SHIPPED_FILES`], parsed.
///
/// Equal by value to `load_dir("scenarios")` at the workspace root (a test
/// pins this), so a binary running outside the repository executes exactly
/// the batch the files on disk describe.
pub fn shipped() -> Vec<ScenarioSpec> {
    SHIPPED_FILES
        .iter()
        .map(|(file, text)| {
            ScenarioSpec::from_toml_str(text)
                .unwrap_or_else(|e| panic!("embedded scenario {file} is invalid: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_scenarios_cover_the_evaluation() {
        let specs = shipped();
        assert_eq!(specs.len(), SHIPPED_FILES.len());
        let runs: usize = specs.iter().map(|s| s.expand().len()).sum();
        // 3 analytic tables + 2×(3 policies × 4 thresholds) + 2×4 migration
        // rates + 9 queue sizes, then 3 video + 6 DAG runs + 1 phased run.
        assert_eq!(runs, 3 + 24 + 8 + 9 + 3 + 6 + 1);
    }
}

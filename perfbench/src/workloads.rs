//! The benchmark's workloads: each one is generated from the seed and handed
//! to the program only as a list of `ScenarioSpec`s.

use std::path::Path;
use std::time::Instant;

use tbp_core::scenario::{
    expand_work, PlatformSpec, ScenarioSpec, ScheduleSpec, SweepSpec, WorkItem, WorkloadDecl,
    WorkloadKind,
};
use tbp_thermal::package::PackageKind;
use tbp_thermal::solver::SolverKind;

/// Factor by which `paper-batch` lengthens each shipped scenario's measured
/// window, so one batch runs for seconds instead of milliseconds.
pub const PAPER_STRETCH: f64 = 6.0;

/// Policies the generated sweeps choose from (every built-in policy).
const POLICIES: [&str; 4] = [
    "thermal-balancing",
    "stop-and-go",
    "energy-balancing",
    "dvfs-only",
];

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The shipped `scenarios/*.toml`, measured window stretched, run the way
    /// `reproduce_all` runs them: default `Runner`, one lane, no cache.
    PaperBatch,
    /// A policy × threshold sweep on a 32-core high-performance package with
    /// RK4 at 50 ms steps, run through 8-lane `LaneBatch`es.
    ManycoreLanes,
    /// Many short paper-platform runs through an `FsCache` with traces and
    /// live metrics on: one cold pass, then warm passes of cache hits.
    CachedSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBatch,
        Workload::ManycoreLanes,
        Workload::CachedSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper-batch",
            Workload::ManycoreLanes => "manycore-lanes",
            Workload::CachedSweep => "cached-sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Lanes per `LaneBatch` the workload's `Runner` uses.
    pub fn lanes(self) -> usize {
        match self {
            Workload::ManycoreLanes => 8,
            Workload::PaperBatch | Workload::CachedSweep => 1,
        }
    }
}

/// The specs of one workload and its expanded work list, with the time each
/// set-up phase took.
pub struct Setup {
    /// The specs handed to the `Runner`.
    pub specs: Vec<ScenarioSpec>,
    /// Their expansion, in report order.
    pub work: Vec<WorkItem>,
    /// Seconds spent producing and parsing the specs.
    pub load_s: f64,
    /// Seconds spent expanding them.
    pub expand_s: f64,
}

/// Loads (paper-batch) or generates (the others) a workload's specs for
/// `seed`, parses them back from TOML text as a user's files would be, and
/// expands them.
///
/// # Errors
///
/// A missing scenario directory, an unreadable or invalid file, or a
/// generated spec that does not survive its TOML round trip.
pub fn setup(workload: Workload, root: &Path, seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let specs = match workload {
        Workload::PaperBatch => paper_specs(root, seed)?,
        Workload::ManycoreLanes => reparse(manycore_specs(seed))?,
        Workload::CachedSweep => reparse(cached_sweep_specs(seed))?,
    };
    let load_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let work = expand_work(&specs);
    let expand_s = started.elapsed().as_secs_f64();
    Ok(Setup {
        specs,
        work,
        load_s,
        expand_s,
    })
}

/// The shipped scenarios, in file-name order (as `reproduce_all` loads
/// them), with the measured window stretched by [`PAPER_STRETCH`] and every
/// `[workload] seed` replaced by `seed`.
fn paper_specs(root: &Path, seed: u64) -> Result<Vec<ScenarioSpec>, String> {
    let dir = root.join("scenarios");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no scenario files in {}", dir.display()));
    }
    let mut specs = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut spec = ScenarioSpec::from_toml_str(&text)
            .map_err(|e| format!("parse {}: {e}", path.display()))?;
        if spec.analysis.is_none() {
            let duration = spec.schedule().duration.as_secs() * PAPER_STRETCH;
            spec.schedule
                .get_or_insert_with(ScheduleSpec::default)
                .duration = Some(duration);
        }
        if let Some(workload) = spec.workload.as_mut().filter(|w| w.seed.is_some()) {
            workload.seed = Some(seed);
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// One 32-core, RK4, 50 ms spec sweeping all four policies over eight
/// distinct seed-drawn thresholds: 32 runs sharing one platform fingerprint,
/// so an 8-lane runner cuts them into four full chunks, two per thread.
pub fn manycore_specs(seed: u64) -> Vec<ScenarioSpec> {
    let mut rng = SplitMix64(seed ^ 0x6d61_6e79_636f_7265);
    let thresholds = distinct_thresholds(&mut rng, 8);
    let mut spec = ScenarioSpec::new("manycore-lanes")
        .with_description("32-core RK4 policy x threshold sweep for the lane engine")
        .with_package(PackageKind::HighPerformance)
        .with_sweep(
            SweepSpec::default()
                .with_policies(POLICIES)
                .with_thresholds(thresholds),
        );
    spec.platform = Some(PlatformSpec {
        cores: Some(32),
        solver: Some(SolverKind::RungeKutta4),
        ..PlatformSpec::default()
    });
    spec.schedule = Some(ScheduleSpec {
        warmup: Some(10.0),
        duration: Some(90.0),
        time_step_ms: Some(50.0),
        policy_period_ms: Some(100.0),
        trace_interval_ms: None,
    });
    vec![spec]
}

/// Three specs (SDR, fork-join DAG, video analytics) of short runs on the
/// paper platform, each sweeping three policies × four thresholds × eight
/// workload seeds, all drawn from `seed`: 288 runs of 2400 steps.
pub fn cached_sweep_specs(seed: u64) -> Vec<ScenarioSpec> {
    let mut rng = SplitMix64(seed ^ 0x6361_6368_6564);
    [
        WorkloadKind::Sdr,
        WorkloadKind::Dag,
        WorkloadKind::VideoAnalytics,
    ]
    .into_iter()
    .map(|kind| {
        let thresholds = distinct_thresholds(&mut rng, 4);
        let seeds: Vec<u64> = (0..8).map(|_| rng.next() % 1_000_000).collect();
        let mut spec = ScenarioSpec::new(format!(
            "cached-{}",
            tbp_core::scenario::workload_kind_label(kind)
        ))
        .with_workload(WorkloadDecl::of_kind(kind))
        .with_schedule(2.0, 10.0)
        .with_sweep(
            SweepSpec::default()
                .with_policies(POLICIES[..3].iter().copied())
                .with_thresholds(thresholds)
                .with_seeds(seeds),
        );
        spec.description = Some("short run for the cache and trace paths".to_string());
        spec
    })
    .collect()
}

/// Renders each spec as TOML and parses it back — the load path of a user's
/// scenario file — checking that nothing was lost on the way.
fn reparse(specs: Vec<ScenarioSpec>) -> Result<Vec<ScenarioSpec>, String> {
    specs
        .into_iter()
        .map(|spec| {
            let parsed = ScenarioSpec::from_toml_str(&spec.to_toml_string())
                .map_err(|e| format!("generated spec `{}`: {e}", spec.name))?;
            if parsed != spec {
                return Err(format!(
                    "generated spec `{}` changed in its TOML round trip",
                    spec.name
                ));
            }
            Ok(parsed)
        })
        .collect()
}

/// `count` distinct thresholds from the 0.5 °C .. 6.0 °C grid in 0.25 °C
/// steps, in ascending order.
fn distinct_thresholds(rng: &mut SplitMix64, count: usize) -> Vec<f64> {
    let mut grid: Vec<f64> = (2..=24).map(|i| f64::from(i) * 0.25).collect();
    let mut picked = Vec::with_capacity(count);
    for _ in 0..count {
        let index = (rng.next() % grid.len() as u64) as usize;
        picked.push(grid.swap_remove(index));
    }
    picked.sort_by(f64::total_cmp);
    picked
}

/// The SplitMix64 generator: a fixed, portable stream per seed.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next value of the stream.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_workloads_are_seed_deterministic() {
        assert_eq!(manycore_specs(5), manycore_specs(5));
        assert_eq!(cached_sweep_specs(5), cached_sweep_specs(5));
        assert_ne!(cached_sweep_specs(5), cached_sweep_specs(6));
    }

    #[test]
    fn manycore_fills_two_threads_with_full_eight_lane_chunks() {
        let work = expand_work(&manycore_specs(1));
        assert_eq!(work.len(), 32);
    }

    #[test]
    fn thresholds_are_distinct() {
        let mut rng = SplitMix64(9);
        let picked = distinct_thresholds(&mut rng, 8);
        let mut deduped = picked.clone();
        deduped.dedup();
        assert_eq!(picked, deduped);
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

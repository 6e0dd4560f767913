//! Integration tests of the persistence-and-distribution layer: content-hash
//! stability, cache semantics (cold → warm equality, zero warm simulations)
//! and shard-merge determinism.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use tbp_core::scenario::{
    load_dir, CacheMetrics, FsCache, MemCache, PartialReport, PlatformSpec, RunCache, Runner,
    ScenarioHash, ScenarioSpec, ShardPlan, SweepSpec, WorkloadDecl, WorkloadKind,
};
use tbp_core::SimError;

use tbp_os::migration::MigrationStrategy;
use tbp_thermal::package::PackageKind;

/// A self-cleaning temp directory for filesystem caches.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tbp-scenario-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn grid_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec::new(name).with_schedule(0.5, 1.0).with_sweep(
        SweepSpec::default()
            .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
            .with_policies(["thermal-balancing", "stop-and-go"])
            .with_thresholds([1.0, 3.0]),
    )
}

#[test]
fn hash_is_stable_across_field_reordering() {
    // The same scenario written twice: tables and keys in different orders.
    let a = ScenarioSpec::from_toml_str(
        r#"
        name = "order-a"
        package = "HighPerformance"

        [policy]
        name = "stop-and-go"
        threshold = 2.0

        [schedule]
        warmup = 1.0
        duration = 2.0

        [workload]
        queue_capacity = 11
        prefill = 5
        "#,
    )
    .expect("valid TOML");
    let b = ScenarioSpec::from_toml_str(
        r#"
        package = "HighPerformance"
        name = "order-b"

        [workload]
        prefill = 5
        queue_capacity = 11

        [schedule]
        duration = 2.0
        warmup = 1.0

        [policy]
        threshold = 2.0
        name = "stop-and-go"
        "#,
    )
    .expect("valid TOML");
    assert_eq!(
        ScenarioHash::of(&a).unwrap(),
        ScenarioHash::of(&b).unwrap(),
        "field order (and the scenario name) must not change the hash"
    );
    // Hashing is also stable across serialization round-trips.
    let round_tripped = ScenarioSpec::from_toml_str(&a.to_toml_string()).unwrap();
    assert_eq!(
        ScenarioHash::of(&a).unwrap(),
        ScenarioHash::of(&round_tripped).unwrap()
    );
}

#[test]
fn hash_changes_on_any_semantic_field_change() {
    let base = ScenarioSpec::new("base")
        .with_package(PackageKind::MobileEmbedded)
        .with_policy("thermal-balancing", 3.0)
        .with_workload(WorkloadDecl::sdr_with_queue(11))
        .with_schedule(1.0, 2.0);
    let variants: Vec<ScenarioSpec> = vec![
        base.clone().with_package(PackageKind::HighPerformance),
        base.clone().with_policy("stop-and-go", 3.0),
        base.clone().with_policy("thermal-balancing", 2.0),
        base.clone().with_workload(WorkloadDecl::sdr_with_queue(7)),
        base.clone().with_workload(WorkloadDecl {
            kind: Some(WorkloadKind::Synthetic),
            ..WorkloadDecl::default()
        }),
        base.clone().with_schedule(0.5, 2.0),
        base.clone().with_schedule(1.0, 4.0),
        {
            let mut spec = base.clone();
            spec.platform = Some(PlatformSpec {
                cores: Some(4),
                ..PlatformSpec::default()
            });
            spec
        },
        {
            let mut spec = base.clone();
            spec.platform = Some(PlatformSpec {
                arm11: Some(true),
                ..PlatformSpec::default()
            });
            spec
        },
        {
            let mut spec = base.clone();
            spec.platform = Some(PlatformSpec {
                dvfs: Some(false),
                ..PlatformSpec::default()
            });
            spec
        },
        {
            let mut spec = base.clone();
            spec.platform = Some(PlatformSpec {
                migration: Some(MigrationStrategy::TaskRecreation),
                ..PlatformSpec::default()
            });
            spec
        },
        {
            let mut spec = base.clone();
            let mut schedule = spec.schedule.clone().unwrap();
            schedule.time_step_ms = Some(2.5);
            spec.schedule = Some(schedule);
            spec
        },
    ];
    let base_hash = ScenarioHash::of(&base).unwrap();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    seen.insert(base_hash.to_hex());
    for variant in &variants {
        let hash = ScenarioHash::of(variant).unwrap();
        assert_ne!(
            hash, base_hash,
            "variant must hash differently: {variant:?}"
        );
        assert!(
            seen.insert(hash.to_hex()),
            "two distinct variants collided: {variant:?}"
        );
    }
    // Defaulted-but-absent and explicitly-set sections are distinct specs.
    let explicit = base.clone().with_schedule(8.0, 20.0);
    assert_ne!(ScenarioHash::of(&explicit).unwrap(), base_hash);
}

#[test]
fn sweep_carrying_specs_refuse_to_hash() {
    let spec = grid_spec("swept");
    assert!(matches!(spec.content_hash(), Err(SimError::Spec(_))));
    for case in spec.expand() {
        case.content_hash().expect("expanded cases are concrete");
    }
}

#[test]
fn cold_then_warm_runs_are_byte_identical_and_simulate_nothing() {
    let tmp = TempDir::new("cold-warm");
    let spec = grid_spec("cache");
    let cache = Arc::new(FsCache::open(&tmp.0).expect("cache opens"));

    let cold_runner = Runner::new().with_cache_arc(cache.clone());
    let cold = cold_runner.run_spec(&spec).expect("cold batch runs");
    let cold_stats = cold_runner.stats();
    assert_eq!(cold.len(), 8);
    assert_eq!(cold_stats.simulated, 8, "cold run simulates every case");
    assert_eq!(cache.len(), 8, "every report is persisted");

    // A *fresh* runner over the same directory: everything comes from disk.
    let warm_runner = Runner::new().with_cache_arc(cache.clone());
    let warm = warm_runner.run_spec(&spec).expect("warm batch runs");
    let warm_stats = warm_runner.stats();
    assert_eq!(warm_stats.simulated, 0, "warm run must not simulate");
    assert_eq!(warm_stats.analytic, 0);
    assert_eq!(warm_stats.cache_hits, 8);
    assert_eq!(warm.to_json(), cold.to_json(), "reports are byte-identical");
    assert_eq!(warm.to_csv(), cold.to_csv());
}

#[test]
fn torn_cache_entry_is_quarantined_and_resimulates_byte_identically() {
    let tmp = TempDir::new("torn-entry");
    let spec = grid_spec("torn");
    let registry = tbp_obs::MetricsRegistry::new();
    let open = |registry: &tbp_obs::MetricsRegistry| {
        Arc::new(
            FsCache::open(&tmp.0)
                .expect("cache opens")
                .with_metrics(CacheMetrics::register(registry)),
        )
    };

    let cold_runner = Runner::new().with_cache_arc(open(&registry));
    let cold = cold_runner.run_spec(&spec).expect("cold batch runs");
    assert_eq!(cold_runner.stats().simulated, 8);

    // Tear one entry in half — what a crash mid-`store` on a filesystem
    // without atomic rename (or a torn copy between hosts) leaves behind.
    let mut entries: Vec<_> = std::fs::read_dir(&tmp.0)
        .expect("cache dir lists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    let victim = entries.first().expect("cache has entries").clone();
    let intact = std::fs::read_to_string(&victim).expect("entry reads");
    std::fs::write(&victim, &intact[..intact.len() / 2]).expect("entry tears");

    let warm_runner = Runner::new().with_cache_arc(open(&registry));
    let warm = warm_runner
        .run_spec(&spec)
        .expect("warm batch survives the torn entry");
    let stats = warm_runner.stats();
    assert_eq!(stats.simulated, 1, "only the torn scenario re-simulates");
    assert_eq!(stats.cache_hits, 7);
    assert_eq!(warm.to_json(), cold.to_json(), "output is byte-identical");
    assert_eq!(warm.to_csv(), cold.to_csv());

    let snapshot = registry.snapshot(0.0);
    assert_eq!(snapshot.counter("cache.load_corrupt"), Some(1));
    let quarantined: Vec<_> = std::fs::read_dir(&tmp.0)
        .expect("cache dir lists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "corrupt"))
        .collect();
    assert_eq!(quarantined.len(), 1, "torn entry moved to <hash>.corrupt");

    // The re-simulation restored the entry: a third run is fully warm.
    let third_runner = Runner::new().with_cache_arc(open(&registry));
    let third = third_runner.run_spec(&spec).expect("third batch runs");
    assert_eq!(third_runner.stats().simulated, 0);
    assert_eq!(third.to_json(), cold.to_json());
}

#[test]
fn deeply_nested_cache_entry_is_quarantined_and_misses() {
    // Nesting far past the JSON decoder's depth cap: a decoder that recursed
    // once per level would overflow the stack and abort the process here.
    let tmp = TempDir::new("deep-entry");
    let registry = tbp_obs::MetricsRegistry::new();
    let cache = FsCache::open(&tmp.0)
        .expect("cache opens")
        .with_metrics(CacheMetrics::register(&registry));
    let key = ScenarioHash::of(&ScenarioSpec::new("deep")).unwrap();
    let entry = tmp.0.join(format!("{}.json", key.to_hex()));
    std::fs::write(&entry, "[".repeat(100_000)).expect("entry writes");

    assert!(cache.load(&key).is_none(), "a too-deep entry is a miss");
    assert!(!entry.exists(), "the entry left its slot");
    assert!(tmp.0.join(format!("{}.corrupt", key.to_hex())).exists());
    assert_eq!(
        registry.snapshot(0.0).counter("cache.load_corrupt"),
        Some(1)
    );
}

#[test]
fn warm_cache_rerun_of_every_shipped_scenario_performs_zero_simulations() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let specs: Vec<ScenarioSpec> = load_dir(&dir)
        .expect("scenarios/ loads")
        .into_iter()
        .map(|spec| {
            if spec.analysis.is_some() {
                spec
            } else {
                // Shorten the paper's 8 s + 20 s schedule; the cache semantics
                // under test are schedule-independent.
                spec.with_schedule(0.2, 0.5)
            }
        })
        .collect();
    assert_eq!(
        specs.len(),
        10,
        "seven paper scenarios, two cross-workload ones, one phased"
    );

    let cache = Arc::new(MemCache::new());
    let cold_runner = Runner::new().with_cache_arc(cache.clone());
    let cold = cold_runner.run(&specs).expect("cold paper batch runs");
    assert!(cold_runner.stats().simulated > 0);
    assert!(cold_runner.stats().analytic > 0);

    let warm_runner = Runner::new().with_cache_arc(cache);
    let warm = warm_runner.run(&specs).expect("warm paper batch runs");
    let stats = warm_runner.stats();
    assert_eq!(
        (stats.simulated, stats.analytic),
        (0, 0),
        "a warm re-run of the shipped scenarios must execute nothing"
    );
    assert_eq!(stats.cache_hits, cold.len() as u64);
    assert_eq!(warm.to_json(), cold.to_json());
}

#[test]
fn renaming_a_scenario_reuses_its_cached_runs() {
    let cache = Arc::new(MemCache::new());
    let original = grid_spec("old-name");
    let runner = Runner::new().with_cache_arc(cache.clone());
    runner.run_spec(&original).expect("cold batch runs");

    let mut renamed = original.clone();
    renamed.name = "new-name".to_string();
    let warm_runner = Runner::new().with_cache_arc(cache);
    let warm = warm_runner.run_spec(&renamed).expect("renamed batch runs");
    assert_eq!(warm_runner.stats().simulated, 0);
    assert!(warm
        .reports
        .iter()
        .all(|r| r.group == "new-name" && r.scenario.starts_with("new-name[")));
}

#[test]
fn shard_merge_is_byte_identical_to_a_single_process_run() {
    let specs = [
        grid_spec("shard-grid"),
        ScenarioSpec::new("shard-solo")
            .with_package(PackageKind::HighPerformance)
            .with_policy("dvfs-only", 2.0)
            .with_schedule(0.5, 1.0),
    ];
    let single = Runner::new()
        .run(&specs)
        .expect("single-process batch runs");
    assert_eq!(single.len(), 9);

    // Three independent workers, each with its own runner (as separate
    // processes would have), collected out of order.
    let mut partials: Vec<PartialReport> = [3usize, 1, 2]
        .iter()
        .map(|&index| {
            Runner::new()
                .run_shard(&specs, ShardPlan::new(index, 3).unwrap())
                .expect("shard runs")
        })
        .collect();
    assert_eq!(
        partials.iter().map(|p| p.reports.len()).sum::<usize>(),
        single.len()
    );
    // Partials survive their on-disk JSON form.
    partials = partials
        .iter()
        .map(|p| PartialReport::from_json_str(&p.to_json()).expect("partial round-trips"))
        .collect();
    let merged = PartialReport::merge(partials).expect("complete set merges");
    assert_eq!(merged.to_json(), single.to_json());
    assert_eq!(merged.to_csv(), single.to_csv());
}

#[test]
fn partials_from_different_batches_refuse_to_merge() {
    // The same scenario at two durations — the classic mixed-TBP_DURATION
    // mistake. Each worker believes it ran shard i of 2 of "the" batch.
    let short = grid_spec("mixed");
    let long = grid_spec("mixed").with_schedule(0.5, 2.0);
    let p1 = Runner::new()
        .run_shard(std::slice::from_ref(&short), ShardPlan::new(1, 2).unwrap())
        .expect("shard of the short batch runs");
    let p2 = Runner::new()
        .run_shard(std::slice::from_ref(&long), ShardPlan::new(2, 2).unwrap())
        .expect("shard of the long batch runs");
    let err = PartialReport::merge(vec![p1, p2]).unwrap_err();
    assert!(err.to_string().contains("different batch"), "{err}");
}

#[test]
fn shards_sharing_a_cache_make_the_full_batch_free() {
    let tmp = TempDir::new("shard-cache");
    let spec = grid_spec("shard-warm");
    let cache = Arc::new(FsCache::open(&tmp.0).expect("cache opens"));

    // Two shard workers populate a common cache directory...
    for index in 1..=2 {
        Runner::new()
            .with_cache_arc(cache.clone())
            .run_shard(
                std::slice::from_ref(&spec),
                ShardPlan::new(index, 2).unwrap(),
            )
            .expect("shard runs");
    }
    // ...after which the unsharded batch is answered entirely from disk.
    let runner = Runner::new().with_cache_arc(cache);
    let warm = runner.run_spec(&spec).expect("warm batch runs");
    assert_eq!(runner.stats().simulated, 0);
    assert_eq!(runner.stats().cache_hits, warm.len() as u64);
    let uncached = Runner::new().run_spec(&spec).expect("reference batch runs");
    assert_eq!(warm.to_json(), uncached.to_json());
}

// ---------------------------------------------------------------------------
// Property tests: shard plans and partial-report merging under randomised
// shard counts, arrival orders and cache states (PR 7 satellite).
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shard ranges partition `0..total` contiguously, in order, for every
    /// shard count — including `k = 1` (the degenerate single-shard plan)
    /// and `k > total` (trailing shards come out empty).
    #[test]
    fn shard_ranges_partition_any_batch(total in 0usize..40, k in 1usize..12) {
        let mut next = 0usize;
        for index in 1..=k {
            let range = ShardPlan::new(index, k).unwrap().range(total);
            prop_assert_eq!(range.start, next, "gap or overlap at shard {}/{}", index, k);
            prop_assert!(range.end >= range.start);
            next = range.end;
        }
        prop_assert_eq!(next, total, "shards must cover the whole batch");
    }

    /// Merging a complete set of partials is byte-identical to the single
    /// process run for any shard count and any arrival order. `k = 1`
    /// exercises the single-partial merge; `k` beyond the run count (the
    /// grid expands to 8 runs) exercises empty shards; the rotation models
    /// out-of-order arrival from racing workers.
    #[test]
    fn sharded_merge_matches_single_run_bytes(k in 1usize..=10, rot in 0usize..10) {
        let spec = grid_spec("prop-shard");
        let single = Runner::new()
            .run_spec(&spec)
            .expect("single-process batch runs");
        let mut partials: Vec<PartialReport> = (1..=k)
            .map(|index| {
                Runner::new()
                    .run_shard(
                        std::slice::from_ref(&spec),
                        ShardPlan::new(index, k).unwrap(),
                    )
                    .expect("shard runs")
            })
            .collect();
        partials.rotate_left(rot % k);
        let merged = PartialReport::merge(partials).expect("complete set merges");
        prop_assert_eq!(merged.to_csv(), single.to_csv());
        prop_assert_eq!(merged.to_json(), single.to_json());
    }

    /// A shard answered entirely from a warm cache merges byte-identically
    /// with cold shards: cache hits relabel stored reports instead of
    /// simulating, and the merge cannot tell the difference.
    #[test]
    fn all_cache_hit_shard_merges_like_a_cold_one(warm_index in 1usize..=3) {
        let spec = grid_spec("prop-warm-shard");
        let k = 3usize;
        let cache: Arc<MemCache> = Arc::new(MemCache::new());
        let plan = ShardPlan::new(warm_index, k).unwrap();

        // Populate the cache with exactly the warm shard's slice...
        Runner::new()
            .with_cache_arc(cache.clone())
            .run_shard(std::slice::from_ref(&spec), plan)
            .expect("cold populating shard runs");

        // ...then produce that shard again purely from cache.
        let warm_runner = Runner::new().with_cache_arc(cache);
        let warm = warm_runner
            .run_shard(std::slice::from_ref(&spec), plan)
            .expect("warm shard runs");
        prop_assert_eq!(warm_runner.stats().misses(), 0);
        prop_assert!(warm_runner.stats().cache_hits > 0);

        let partials: Vec<PartialReport> = (1..=k)
            .map(|index| {
                if index == warm_index {
                    warm.clone()
                } else {
                    Runner::new()
                        .run_shard(
                            std::slice::from_ref(&spec),
                            ShardPlan::new(index, k).unwrap(),
                        )
                        .expect("cold shard runs")
                }
            })
            .collect();
        let merged = PartialReport::merge(partials).expect("mixed set merges");
        let single = Runner::new().run_spec(&spec).expect("reference runs");
        prop_assert_eq!(merged.to_csv(), single.to_csv());
    }

    /// JSON round-tripping a partial (the on-disk worker hand-off format)
    /// never changes the merged bytes.
    #[test]
    fn partial_json_roundtrip_preserves_merge_bytes(k in 1usize..=4) {
        let spec = grid_spec("prop-roundtrip");
        let partials: Vec<PartialReport> = (1..=k)
            .map(|index| {
                let p = Runner::new()
                    .run_shard(
                        std::slice::from_ref(&spec),
                        ShardPlan::new(index, k).unwrap(),
                    )
                    .expect("shard runs");
                PartialReport::from_json_str(&p.to_json()).expect("partial round-trips")
            })
            .collect();
        let merged = PartialReport::merge(partials).expect("round-tripped set merges");
        let single = Runner::new().run_spec(&spec).expect("reference runs");
        prop_assert_eq!(merged.to_csv(), single.to_csv());
    }
}

// ---------------------------------------------------------------------------
// Decoder fuzzing of stored entries: real encoded reports, damaged, fed
// through `FsCache::load`. Every input must load or miss; a panic or an
// abort (stack overflow) fails the property.
// ---------------------------------------------------------------------------

/// The stored bytes of every entry of one small cold batch.
fn stored_entries() -> &'static [Vec<u8>] {
    static ENTRIES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    ENTRIES.get_or_init(|| {
        let tmp = TempDir::new("fuzz-corpus");
        let cache = Arc::new(FsCache::open(&tmp.0).expect("cache opens"));
        Runner::new()
            .with_cache_arc(cache)
            .run_spec(&grid_spec("fuzz"))
            .expect("corpus batch runs");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&tmp.0)
            .expect("cache dir lists")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read(p).expect("entry reads"))
            .collect()
    })
}

/// Applies mutation `kind` to `bytes`, using `a`/`b` as positions: a
/// flipped bit, a truncation, nesting spliced in (up to far past the
/// decoder's depth cap), or a slice of the entry copied elsewhere.
fn damage(bytes: &[u8], kind: u8, a: u64, b: u64, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = (a % bytes.len() as u64) as usize;
    match kind {
        0 => out[at] ^= 1 << bit,
        1 => out.truncate(at),
        2 => {
            // From ~10 levels (bit 7) to ~200 000 (bit 0).
            let depth = (b % 200_000) as usize >> (2 * bit);
            let open: &[u8] = if b >> 63 == 0 { b"[" } else { b"{\"k\":" };
            out.splice(at..at, open.repeat(depth));
        }
        _ => {
            let from = (b % bytes.len() as u64) as usize;
            let len = (usize::from(bit) * 37).min(bytes.len() - from);
            out.splice(at..at, bytes[from..from + len].iter().copied());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_cache_entries_load_or_miss_never_panic(
        entry in 0usize..8,
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
        bit in 0u8..8,
    ) {
        let entries = stored_entries();
        let damaged = damage(&entries[entry % entries.len()], kind, a, b, bit);
        let tmp = TempDir::new("fuzz-load");
        let cache = FsCache::open(&tmp.0).expect("cache opens");
        let key = ScenarioHash::of(&ScenarioSpec::new("fuzz")).unwrap();
        let path = tmp.0.join(format!("{}.json", key.to_hex()));
        std::fs::write(&path, &damaged).expect("entry writes");
        let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.load(&key)));
        prop_assert!(
            loaded.is_ok(),
            "mutation {kind} panicked; input:\n{}",
            String::from_utf8_lossy(&damaged)
        );
        prop_assert!(
            loaded.unwrap().is_some() || !path.exists(),
            "a miss must quarantine the damaged entry"
        );
    }
}

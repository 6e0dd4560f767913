//! Integration tests of the declarative Scenario API: serde round-trips
//! (TOML and JSON), validation at the spec boundary, sweep-axis expansion,
//! registry resolution errors, the determinism of the parallel batch runner,
//! and the shipped scenarios' output pinned to committed golden files.

use std::path::{Path, PathBuf};

use tbp_core::policy::DvfsOnlyPolicy;
use tbp_core::scenario::{
    load_dir, shipped, PolicyRegistry, Runner, ScenarioSpec, SpecDelta, SweepSpec, WorkloadDecl,
};
use tbp_core::SimError;
use tbp_obs::{TraceReader, TrackKind};

use tbp_thermal::package::PackageKind;

/// How to rewrite the golden files after an intended output change.
const BLESS: &str = "cargo test -p tbp-core --test scenario_api -- --ignored bless_golden_files";

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn full_spec() -> ScenarioSpec {
    ScenarioSpec::new("round-trip")
        .with_description("every section populated")
        .with_package(PackageKind::HighPerformance)
        .with_policy("stop-and-go", 2.5)
        .with_workload(WorkloadDecl::sdr_with_queue(11))
        .with_schedule(1.5, 3.0)
        .with_sweep(
            SweepSpec::default()
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_thresholds([1.0, 2.0])
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_queue_capacities([4, 11]),
        )
}

#[test]
fn toml_round_trip_preserves_every_field() {
    let spec = full_spec();
    let text = spec.to_toml_string();
    let back = ScenarioSpec::from_toml_str(&text).expect("serialized spec parses");
    assert_eq!(back, spec);
    // And a second serialization is textually stable.
    assert_eq!(back.to_toml_string(), text);
}

#[test]
fn json_round_trip_preserves_every_field() {
    let spec = full_spec();
    let text = spec.to_json_string();
    let back = ScenarioSpec::from_json_str(&text).expect("serialized spec parses");
    assert_eq!(back, spec);
}

#[test]
fn shipped_scenario_files_parse_and_round_trip() {
    let specs = load_dir(workspace().join("scenarios")).expect("scenarios/ directory loads");
    assert_eq!(
        specs.len(),
        10,
        "seven paper scenarios, two cross-workload ones, one phased"
    );
    for spec in &specs {
        let text = spec.to_toml_string();
        let back = ScenarioSpec::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("round-trip of `{}` failed: {e}", spec.name));
        assert_eq!(
            &back, spec,
            "round-trip of `{}` changed the spec",
            spec.name
        );
    }
}

/// The embedded copies are the files on disk, in the same order, so a
/// binary running outside the repository runs the same batch.
#[test]
fn embedded_scenarios_equal_the_scenario_directory() {
    let on_disk = load_dir(workspace().join("scenarios")).expect("scenarios/ directory loads");
    assert_eq!(
        shipped(),
        on_disk,
        "SHIPPED_FILES must embed every scenarios/*.toml file"
    );
}

/// The shipped batch as `TBP_DURATION=2 reproduce_all --csv` prints it:
/// every simulated scenario's measured window set to 2 s.
fn shipped_csv_at_two_seconds() -> String {
    let specs: Vec<ScenarioSpec> = shipped()
        .into_iter()
        .map(|spec| match spec.analysis {
            Some(_) => spec,
            None => {
                let warmup = spec.schedule().warmup.as_secs();
                spec.with_schedule(warmup, 2.0)
            }
        })
        .collect();
    let batch = Runner::new().run(&specs).expect("shipped batch runs");
    batch.to_csv()
}

/// `<hash>  <scenario>` for every expanded run of the shipped files.
fn shipped_hashes() -> String {
    shipped()
        .iter()
        .flat_map(ScenarioSpec::expand)
        .map(|case| {
            let hash = case.content_hash().expect("expanded runs hash");
            format!("{}  {}\n", hash.to_hex(), case.name)
        })
        .collect()
}

fn golden_path(file: &str) -> PathBuf {
    workspace().join("tests/golden").join(file)
}

/// The shipped phased scenario's trace as `TBP_DURATION=3 run_scenario
/// scenarios/95_phased_reconfig.toml --trace-dir <dir>` writes it: a 5 s run
/// whose window includes the threshold retune at t = 4 s.
fn phased_trace_at_three_seconds() -> Vec<u8> {
    let spec = shipped()
        .into_iter()
        .find(|spec| spec.name == "phased-reconfig")
        .expect("the phased scenario ships");
    let warmup = spec.schedule().warmup.as_secs();
    let spec = spec.with_schedule(warmup, 3.0);
    // One directory per caller: the check and the bless may run side by side.
    let dir = std::env::temp_dir().join(format!(
        "tbp-golden-trace-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Runner::new()
        .with_trace_dir(&dir)
        .run(&[spec])
        .expect("phased run completes");
    let bytes = std::fs::read(dir.join("phased-reconfig.tbptrace")).expect("trace file reads");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Compares `actual` with the committed golden file, naming the first byte
/// (and line) that differs and the command that regenerates the file.
fn check_golden(file: &str, actual: &[u8]) {
    let path = golden_path(file);
    let expected = std::fs::read(&path).unwrap_or_default();
    let first_diff = expected
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    let line = 1 + actual[..first_diff].iter().filter(|&&b| b == b'\n').count();
    assert!(
        expected == actual,
        "{} differs from this build's output (first difference at byte {first_diff}, \
         line {line}); if the change is intended, regenerate the golden files with \
         `{BLESS}` and commit them",
        path.display(),
    );
}

#[test]
fn shipped_batch_csv_matches_the_golden_file() {
    check_golden(
        "reproduce_all_d2.csv",
        shipped_csv_at_two_seconds().as_bytes(),
    );
}

/// Pins the trace format, the sampled tracks and the reconfig event records
/// to committed bytes, not only to agreement between two runs.
#[test]
fn phased_trace_matches_the_golden_file() {
    let trace = phased_trace_at_three_seconds();
    let data = TraceReader::read(&trace).expect("trace decodes");
    let events = data.track(TrackKind::Reconfig, 0).expect("reconfig track");
    assert_eq!(
        events.labels,
        ["threshold=3"],
        "the window holds the retune"
    );
    check_golden("phased_reconfig_d3.tbptrace", &trace);
}

/// A change to a scenario file, to the spec's defaults or to the hash domain
/// shows up here.
#[test]
fn shipped_scenario_hashes_match_the_golden_file() {
    check_golden("scenario_hashes.txt", shipped_hashes().as_bytes());
}

/// Rewrites the golden files from this build. Run it only after an intended
/// output change, then review and commit the diff.
#[test]
#[ignore = "rewrites tests/golden; run explicitly to bless an intended change"]
fn bless_golden_files() {
    std::fs::create_dir_all(golden_path("")).expect("golden directory creates");
    std::fs::write(
        golden_path("reproduce_all_d2.csv"),
        shipped_csv_at_two_seconds(),
    )
    .expect("CSV writes");
    std::fs::write(golden_path("scenario_hashes.txt"), shipped_hashes()).expect("hashes write");
    std::fs::write(
        golden_path("phased_reconfig_d3.tbptrace"),
        phased_trace_at_three_seconds(),
    )
    .expect("trace writes");
}

/// Every invalid value is rejected at the spec boundary with a
/// `SimError::Spec` naming its field: at load, by the runner for specs that
/// never went through a parser, and by live reconfiguration deltas.
#[test]
fn invalid_values_are_rejected_at_the_spec_boundary() {
    let policy = "name = \"dvfs-only\"\nthreshold";
    let cases = [
        ("[policy]", format!("{policy} = nan"), "policy.threshold"),
        ("[policy]", format!("{policy} = -1.0"), "policy.threshold"),
        (
            "[sweep]",
            "thresholds = [1.0, inf]".into(),
            "sweep.thresholds",
        ),
        ("[schedule]", "warmup = -1.0".into(), "schedule.warmup"),
        ("[schedule]", "duration = -1.0".into(), "schedule.duration"),
        ("[schedule]", "duration = nan".into(), "schedule.duration"),
        (
            "[schedule]",
            "time_step_ms = 0.0".into(),
            "schedule.time_step_ms",
        ),
        (
            "[schedule]",
            "policy_period_ms = nan".into(),
            "schedule.policy_period_ms",
        ),
        (
            "[schedule]",
            "trace_interval_ms = -5.0".into(),
            "schedule.trace_interval_ms",
        ),
        (
            "[schedule]",
            "trace_interval_ms = 100.0".into(),
            "[trace] interval_ms",
        ),
        ("[trace]", "interval_ms = -1.0".into(), "interval_ms"),
        ("[trace]", "interval_ms = nan".into(), "interval_ms"),
        (
            "[trace]",
            "tracks = [\"temperatures\", \"nope\"]".into(),
            "`nope`",
        ),
        ("[schedule]", "duration = 1e9".into(), "steps"),
        (
            "[[phases]]",
            "at = 1.0\nthreshold = nan".into(),
            "`threshold`",
        ),
        (
            "[[phases]]",
            "at = 1.0\npolicy_period_ms = -10.0".into(),
            "`policy_period_ms`",
        ),
        (
            "[[phases]]",
            "at = 1.0\nsensor_period_ms = inf".into(),
            "`sensor_period_ms`",
        ),
    ];
    let expect_spec_error = |result: Result<(), SimError>, field: &str, what: &str| match result {
        Err(SimError::Spec(msg)) => {
            assert!(msg.contains(field), "{what}: `{msg}` names no {field}")
        }
        other => panic!("{what}: expected a spec error naming {field}, got {other:?}"),
    };
    for (table, body, field) in cases {
        let section = format!("{table}\n{body}");
        let text = format!("name = \"bad\"\n{section}\n");
        expect_spec_error(
            ScenarioSpec::from_toml_str(&text).map(drop),
            field,
            &format!("loading {section:?}"),
        );
        // A spec that bypasses the parser is still stopped before it runs.
        let raw: ScenarioSpec = toml::from_str(&text).expect("the TOML itself is well formed");
        expect_spec_error(
            Runner::new().run_spec(&raw).map(drop),
            field,
            &format!("running {section:?}"),
        );
    }
    // JSON input goes through the same checks.
    let json = ScenarioSpec::new("bad")
        .with_schedule(1.0, -1.0)
        .to_json_string();
    expect_spec_error(
        ScenarioSpec::from_json_str(&json).map(drop),
        "schedule.duration",
        "JSON",
    );
    // A zero threshold is a valid band.
    let zeros = "name = \"ok\"\n[policy]\nname = \"dvfs-only\"\nthreshold = 0.0\n";
    ScenarioSpec::from_toml_str(zeros).expect("zero threshold is valid");
    // Live deltas reject the same knobs before touching the simulation.
    let mut sim = ScenarioSpec::new("live")
        .with_schedule(0.0, 0.1)
        .build()
        .expect("simulation builds");
    expect_spec_error(
        sim.apply_delta(&SpecDelta::new().with_threshold(f64::NAN)),
        "`threshold`",
        "delta",
    );
    assert_eq!(
        sim.summary().reconfigs,
        0,
        "a rejected delta changes nothing"
    );
}

#[test]
fn third_party_workloads_run_from_toml_through_the_runner() {
    use tbp_streaming::workloads::{
        GeneratedWorkload, SyntheticGenerator, WorkloadGenerator, WorkloadParams, WorkloadRegistry,
    };
    struct Renamed;
    impl WorkloadGenerator for Renamed {
        fn name(&self) -> &str {
            "my-workload"
        }
        fn generate(
            &self,
            params: &WorkloadParams,
        ) -> Result<GeneratedWorkload, tbp_streaming::StreamError> {
            SyntheticGenerator.generate(params)
        }
    }
    let spec = ScenarioSpec::from_toml_str(
        r#"
        name = "custom"

        [workload]
        generator = "my-workload"
        seed = 5

        [schedule]
        warmup = 0.2
        duration = 0.4
        "#,
    )
    .expect("valid TOML");
    // Without the hook the name does not resolve…
    let err = Runner::new().run_spec(&spec).unwrap_err();
    assert!(err.to_string().contains("my-workload"), "{err}");
    // …with it, the scenario runs and the report carries the custom label.
    let mut registry = WorkloadRegistry::with_builtins();
    registry.register(Renamed);
    let batch = Runner::new()
        .with_workload_registry(registry)
        .run_spec(&spec)
        .expect("custom workload runs");
    assert_eq!(batch.reports[0].workload.as_deref(), Some("my-workload"));
}

#[test]
fn cross_workload_sweeps_run_and_label_their_reports() {
    use tbp_core::scenario::WorkloadKind;
    let spec = ScenarioSpec::new("matrix")
        .with_schedule(0.3, 0.6)
        .with_sweep(
            SweepSpec::default()
                .with_workloads([
                    WorkloadKind::Sdr,
                    WorkloadKind::Synthetic,
                    WorkloadKind::VideoAnalytics,
                    WorkloadKind::Dag,
                ])
                .with_policies(["thermal-balancing", "dvfs-only"]),
        );
    let batch = Runner::new().run_spec(&spec).expect("matrix runs");
    assert_eq!(batch.len(), 8);
    let labels: Vec<&str> = batch
        .reports
        .iter()
        .filter_map(|r| r.workload.as_deref())
        .collect();
    assert_eq!(
        labels,
        vec![
            "sdr",
            "sdr",
            "synthetic",
            "synthetic",
            "video-analytics",
            "video-analytics",
            "dag",
            "dag"
        ]
    );
    // Pipeline workloads deliver frames; the flat synthetic one does not.
    for report in &batch.reports {
        let summary = report.summary().expect("simulation outcome");
        match report.workload.as_deref() {
            Some("synthetic") => assert_eq!(summary.qos.frames_delivered, 0),
            _ => assert!(summary.qos.frames_delivered > 0),
        }
    }
    // The workload column lands in the CSV.
    let csv = batch.to_csv();
    assert!(csv.lines().next().unwrap().contains(",workload,"));
    assert!(csv.contains("video-analytics"));
}

#[test]
fn sweep_expansion_counts_multiply_across_axes() {
    let spec = full_spec();
    // 2 packages × 2 policies × 2 thresholds × 2 queues.
    assert_eq!(spec.expand().len(), 16);
    let sweep = spec.sweep.clone().unwrap();
    assert_eq!(sweep.cardinality(), 16);

    let figures = shipped();
    let threshold_sweeps: Vec<_> = figures
        .iter()
        .filter(|s| s.name.starts_with("threshold-sweep"))
        .collect();
    assert_eq!(threshold_sweeps.len(), 2);
    for spec in threshold_sweeps {
        // Three policies × four thresholds.
        assert_eq!(spec.expand().len(), 3 * 4);
    }
}

#[test]
fn unknown_policy_is_a_structured_error() {
    let spec = ScenarioSpec::new("bad").with_policy("does-not-exist", 1.0);
    match Runner::new().run_spec(&spec) {
        Err(SimError::UnknownPolicy { name, known }) => {
            assert_eq!(name, "does-not-exist");
            assert!(known.contains(&"thermal-balancing".to_string()));
        }
        Err(other) => panic!("expected UnknownPolicy, got {other:?}"),
        Ok(_) => panic!("unknown policy must not run"),
    }
}

#[test]
fn third_party_policies_run_through_a_custom_registry() {
    let mut registry = PolicyRegistry::with_builtins();
    registry.register("noop", |_| Ok(Box::new(DvfsOnlyPolicy::new())));
    let spec = ScenarioSpec::new("custom")
        .with_package(PackageKind::HighPerformance)
        .with_policy("noop", 2.0)
        .with_schedule(0.5, 1.0);
    let batch = Runner::new()
        .with_registry(registry)
        .run_spec(&spec)
        .expect("custom policy runs");
    let summary = batch.reports[0].summary().expect("simulation outcome");
    assert_eq!(summary.policy, "dvfs-only");
    assert_eq!(summary.migration.migrations, 0);
}

#[test]
fn parallel_and_sequential_batches_are_byte_identical() {
    // A threshold × policy × package grid, kept short: 2 × 2 × 2 = 8 runs.
    let spec = ScenarioSpec::new("determinism")
        .with_schedule(0.5, 1.0)
        .with_sweep(
            SweepSpec::default()
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_thresholds([1.0, 3.0]),
        );
    let parallel = Runner::new().run_spec(&spec).expect("parallel batch runs");
    let sequential = Runner::sequential()
        .run_spec(&spec)
        .expect("sequential batch runs");
    assert_eq!(parallel.len(), 8);
    assert_eq!(parallel, sequential);
    assert_eq!(parallel.to_json(), sequential.to_json());
    assert_eq!(parallel.to_csv(), sequential.to_csv());
    // Reports come back in expansion order, not completion order.
    assert_eq!(
        parallel.reports[0].scenario,
        "determinism[mobile/thermal-balancing/t1]"
    );
    assert_eq!(
        parallel.reports[7].scenario,
        "determinism[hiperf/stop-and-go/t3]"
    );
}

#[test]
fn batch_reports_round_trip_through_json() {
    let spec = ScenarioSpec::new("report-serde")
        .with_package(PackageKind::HighPerformance)
        .with_policy("dvfs-only", 2.0)
        .with_schedule(0.5, 1.0);
    let batch = Runner::new().run_spec(&spec).expect("batch runs");
    let json = batch.to_json();
    let back: tbp_core::scenario::BatchReport =
        serde_json::from_str(&json).expect("batch JSON parses");
    assert_eq!(back, batch);
}

//! Output checks: committed reference outputs for the default seed and work
//! counts that must repeat exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed whose outputs are pinned under `reference/`.
pub const DEFAULT_SEED: u64 = 1;

/// Counts no seed can move: seeds pick thresholds, policies and workload
/// content, never a platform, a step size, a duration or the number of
/// runs. Every run checks these against the reference, whatever its seed,
/// so a change in the work done per step (a doubled RC sub-step, say) fails
/// on every seed, not just the default one.
pub const SEED_FREE_COUNTS: [&str; 4] = [
    "sim.steps",
    "thermal.substeps",
    "scenario.cache_hits",
    "scenario.cache_misses",
];

/// Deterministic work counts of one batch, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Where a workload's reference files live.
pub fn reference_dir(bench_dir: &Path) -> PathBuf {
    bench_dir.join("reference")
}

/// Compares a batch CSV against the expected one row by row. Returns the
/// number of rows that differ (a missing or extra row counts as differing)
/// and a description of the first.
pub fn diff_rows(expected: &str, actual: &str) -> (u64, Option<String>) {
    let expected: Vec<&str> = expected.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    let mut differing = 0;
    let mut first = None;
    for row in 0..expected.len().max(actual.len()) {
        let (want, got) = (expected.get(row), actual.get(row));
        if want != got {
            differing += 1;
            first.get_or_insert_with(|| {
                format!(
                    "row {row}: expected `{}`, got `{}`",
                    want.unwrap_or(&"<none>"),
                    got.unwrap_or(&"<none>")
                )
            });
        }
    }
    (differing, first)
}

/// Renders counts as `name value` lines.
pub fn counts_text(counts: &Counts) -> String {
    counts
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// Checks `counts` against the committed `name value` lines: every count
/// measured here must be listed there with the same value. Returns one line
/// per disagreement.
pub fn diff_counts(reference: &str, counts: &Counts) -> Vec<String> {
    let pinned: BTreeMap<&str, &str> = reference
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    counts
        .iter()
        .filter_map(|(name, value)| match pinned.get(name) {
            Some(want) if *want == value.to_string() => None,
            Some(want) => Some(format!("count {name}: expected {want}, got {value}")),
            None => Some(format!("count {name}: no reference value")),
        })
        .collect()
}

/// 64-bit FNV-1a digest of `bytes`, as 16 hex digits (for fingerprints).
pub fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "scenario,sigma\nfig7[t1],0.25\nfig7[t2],0.5\n";

    #[test]
    fn identical_outputs_pass() {
        assert_eq!(diff_rows(CSV, CSV), (0, None));
    }

    #[test]
    fn an_altered_row_is_rejected() {
        let altered = CSV.replace("0.5", "0.50001");
        let (differing, first) = diff_rows(CSV, &altered);
        assert_eq!(differing, 1);
        assert!(first.expect("a description").starts_with("row 2:"));
        assert_ne!(digest(CSV.as_bytes()), digest(altered.as_bytes()));
    }

    #[test]
    fn missing_and_extra_rows_are_rejected() {
        assert_eq!(diff_rows(CSV, "scenario,sigma\nfig7[t1],0.25\n").0, 1);
        assert_eq!(diff_rows(CSV, &format!("{CSV}fig7[t3],1\n")).0, 1);
    }

    #[test]
    fn counts_round_trip_and_catch_changed_work() {
        let mut counts = Counts::new();
        counts.insert("sim.steps", 1200);
        counts.insert("os.migrations", 7);
        let text = counts_text(&counts);
        assert!(diff_counts(&text, &counts).is_empty());
        counts.insert("sim.steps", 2400);
        assert_eq!(diff_counts(&text, &counts).len(), 1);
        counts.insert("thermal.substeps", 1);
        assert_eq!(diff_counts(&text, &counts).len(), 2);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}

//! The scan engine: file discovery, rule dispatch, suppression filtering,
//! and the two `--update-*` writers.

use std::path::Path;

use crate::baseline::{Baseline, BaselineDelta};
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::rules;
use crate::source::SourceFile;

/// The result of one workspace scan.
#[derive(Debug)]
pub struct Scan {
    /// Workspace-relative paths of every `.rs` file scanned, sorted.
    pub files: Vec<String>,
    /// All findings after suppression filtering, sorted by position.
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings inline directives suppressed.
    pub suppressed: usize,
}

/// Scans the workspace rooted at `root` with `config`.
pub fn scan(root: &Path, config: &LintConfig) -> Result<Scan, String> {
    let mut rel_files = Vec::new();
    for inc in &config.include {
        let inc = inc.trim_end_matches('/');
        if !root.join(inc).exists() {
            return Err(format!(
                "include root `{inc}` does not exist under {}",
                root.display()
            ));
        }
        collect_rs(root, inc, config, &mut rel_files)?;
    }
    rel_files.sort();
    rel_files.dedup();
    let mut diags = Vec::new();
    let mut suppressed = 0usize;
    for rel in &rel_files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let file = SourceFile::new(rel.clone(), text);
        let mut file_diags = Vec::new();
        rules::no_alloc::check(&file, config, &mut file_diags);
        rules::determinism::check(&file, config, &mut file_diags);
        rules::unsafe_audit::check(&file, config, &mut file_diags);
        rules::exit_code::check(&file, config, &mut file_diags);
        // Directive problems are findings too; `is_suppressed` refuses to
        // suppress them, so they always survive the filter below.
        file_diags.extend(file.suppression_diags.iter().cloned());
        for d in file_diags {
            if file.is_suppressed(&d) {
                suppressed += 1;
            } else {
                diags.push(d);
            }
        }
    }
    rules::no_alloc::check_paths(&rel_files, config, &mut diags);
    rules::domain_drift::check(root, config, &mut diags);
    diags.sort();
    Ok(Scan {
        files: rel_files,
        diagnostics: diags,
        suppressed,
    })
}

/// Whether `rel` falls under one of the configured exclude prefixes.
fn excluded(rel: &str, config: &LintConfig) -> bool {
    config.exclude.iter().any(|ex| {
        let ex = ex.trim_end_matches('/');
        rel == ex || rel.starts_with(&format!("{ex}/"))
    })
}

/// Recursively collects `.rs` files under `rel`, depth-first in sorted
/// order. Hidden entries and `target/` directories are always skipped.
fn collect_rs(
    root: &Path,
    rel: &str,
    config: &LintConfig,
    out: &mut Vec<String>,
) -> Result<(), String> {
    if excluded(rel, config) {
        return Ok(());
    }
    let full = root.join(rel);
    let meta = std::fs::metadata(&full).map_err(|e| format!("cannot stat {rel}: {e}"))?;
    if meta.is_file() {
        if rel.ends_with(".rs") {
            out.push(rel.to_string());
        }
        return Ok(());
    }
    let mut names = Vec::new();
    let entries = std::fs::read_dir(&full).map_err(|e| format!("cannot read dir {rel}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read dir {rel}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        names.push(name);
    }
    names.sort();
    for name in names {
        collect_rs(root, &format!("{rel}/{name}"), config, out)?;
    }
    Ok(())
}

/// Loads the configured baseline and compares the scan against it.
pub fn compare_baseline(
    root: &Path,
    config: &LintConfig,
    scan: &Scan,
) -> Result<(Baseline, BaselineDelta), String> {
    let baseline = Baseline::load(&root.join(&config.baseline))?;
    let delta = baseline.compare(&scan.diagnostics);
    Ok((baseline, delta))
}

/// Rewrites the baseline to capture the scan exactly.
pub fn update_baseline(root: &Path, config: &LintConfig, scan: &Scan) -> Result<(), String> {
    let baseline = Baseline::capture(&scan.diagnostics);
    let path = root.join(&config.baseline);
    std::fs::write(&path, baseline.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Re-fingerprints every configured domain and rewrites the manifest.
/// Refuses if any domain cannot be extracted — a manifest that silently
/// drops a domain would disable the rule for it.
pub fn update_manifest(root: &Path, config: &LintConfig) -> Result<(), String> {
    let (fps, errs) = rules::domain_drift::compute_fingerprints(root, config);
    if !errs.is_empty() {
        let lines: Vec<String> = errs.iter().map(|d| d.to_string()).collect();
        return Err(format!("cannot regenerate manifest:\n{}", lines.join("\n")));
    }
    let path = root.join(&config.manifest);
    std::fs::write(&path, rules::domain_drift::render_manifest(&fps))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclude_prefixes_match_whole_components() {
        let mut cfg = LintConfig::from_str("", "test").unwrap();
        cfg.exclude = vec!["crates/lint/tests/fixtures".to_string()];
        assert!(excluded("crates/lint/tests/fixtures", &cfg));
        assert!(excluded("crates/lint/tests/fixtures/dirty/hot.rs", &cfg));
        assert!(!excluded("crates/lint/tests/fixtures_other/x.rs", &cfg));
    }
}

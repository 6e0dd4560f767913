//! `unsafe-audit`: every `unsafe` site carries a safety argument.
//!
//! The tree's only non-test `unsafe` is the two calls from
//! `ThermalLaneKernel::advance` into its `#[target_feature]` (AVX2,
//! AVX-512F) copies of the integrator, and their soundness rests on an
//! invariant (the CPU feature was detected) that lives far from the call
//! sites. This rule makes the argument travel with the code: each `unsafe`
//! block, fn, impl or trait must have a `// SAFETY: …` comment immediately
//! above it (attributes and blank lines may intervene), a trailing
//! `// SAFETY:` on the same line, or — for `unsafe fn`/`unsafe impl`/
//! `unsafe trait` — a doc comment with a `# Safety` section.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "unsafe-audit";

/// Whether a comment's text satisfies the audit.
fn is_safety_comment(text: &str) -> bool {
    text.contains("SAFETY") || text.contains("# Safety")
}

/// Runs the rule over one file.
pub fn check(file: &SourceFile, _config: &LintConfig, out: &mut Vec<Diagnostic>) {
    for n in 0..file.code.len() {
        if file.code_text(n) != Some("unsafe") {
            continue;
        }
        let tok = *file.code_tok(n).expect("index in range");
        // What follows `unsafe` shapes the message only; the requirement is
        // identical for every form.
        let form = match file.code_text(n + 1) {
            Some("fn") => "unsafe fn",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            _ => "unsafe block",
        };
        if covered(file, tok.line) {
            continue;
        }
        out.push(Diagnostic::new(
            RULE,
            &file.rel_path,
            tok.line,
            tok.col,
            format!(
                "{form} without a `// SAFETY:` comment (or `# Safety` doc \
                 section) stating why the invariants hold"
            ),
            format!("{form} unaudited"),
        ));
    }
}

/// Whether an `unsafe` on `line` has a safety comment in scope: on the same
/// line, or in the contiguous run of comment/attribute/blank lines above.
fn covered(file: &SourceFile, line: u32) -> bool {
    // `Some(true)` = a qualifying comment on the line; `Some(false)` =
    // comments present but none qualify; `None` = no comments at all.
    let comment_on = |l: u32| -> Option<bool> {
        let info = file.lines.get(l as usize)?;
        if info.comments.is_empty() {
            return None;
        }
        Some(
            info.comments
                .iter()
                .any(|&i| is_safety_comment(file.tok_text(i))),
        )
    };
    if comment_on(line) == Some(true) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let Some(info) = file.lines.get(l as usize) else {
            break;
        };
        match comment_on(l) {
            Some(true) => return true,
            Some(false) => {
                // A comment line that is not a safety comment: keep walking
                // (doc paragraphs above `# Safety` lines, rule prose, …).
                if info.first_code.is_some() {
                    // Trailing comment on a code line ends the run.
                    return false;
                }
                continue;
            }
            None => {}
        }
        match info.first_code {
            None => continue, // blank line
            Some(i) => {
                // Attribute lines (`#[target_feature(...)]`) continue the
                // run; any other code ends it.
                if file.tok_text(i) == "#" {
                    continue;
                }
                return false;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let cfg = LintConfig::from_str("", "test").unwrap();
        let file = SourceFile::new("u.rs".to_string(), src.to_string());
        let mut out = Vec::new();
        check(&file, &cfg, &mut out);
        out
    }

    #[test]
    fn bare_unsafe_block_is_flagged() {
        let hits = run("fn f(p: *const u8) { let b = unsafe { *p }; }\n");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("unsafe block"));
    }

    #[test]
    fn safety_comment_above_covers() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: p is valid for reads by contract.\n    let b = unsafe { *p };\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn trailing_safety_comment_covers() {
        let src = "fn f(p: *const u8) { let b = unsafe { *p }; // SAFETY: contract\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn attributes_and_blanks_do_not_break_the_run() {
        let src = "// SAFETY: feature checked by caller.\n#[target_feature(enable = \"avx2\")]\n\nunsafe fn k() {}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn doc_safety_section_covers_unsafe_fn() {
        let src = "/// Does things.\n///\n/// # Safety\n///\n/// Caller checks the CPU feature.\nunsafe fn k() {}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn plain_code_line_ends_the_search() {
        let src = "// SAFETY: too far away\nlet x = 1;\nlet b = unsafe { f() };\n";
        let hits = run(src);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn unsafe_impl_requires_audit() {
        let hits = run("unsafe impl Send for X {}\n");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("unsafe impl"));
        assert!(
            run("// SAFETY: X owns no thread-local state.\nunsafe impl Send for X {}\n").is_empty()
        );
    }

    #[test]
    fn safety_in_string_does_not_cover() {
        let hits = run("fn f() { let s = \"SAFETY: no\"; unsafe { g() } }\n");
        assert_eq!(hits.len(), 1);
    }
}

//! The benchmark's result line and the grammar its names follow.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Runs attempted (batch cases, cache hits and cross-path re-runs).
    pub attempted: u64,
    /// Runs that errored or failed an output check.
    pub failed: u64,
    /// Every output check that failed, one line each.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a failed check that spoiled `runs` runs.
    pub fn fail(&mut self, runs: u64, problem: impl Into<String>) {
        self.failed += runs;
        self.problems.push(problem.into());
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result as one JSON object.
    ///
    /// # Errors
    ///
    /// A metric whose name or unit breaks the grammar, a duplicate name, or
    /// a value that is not finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(m.name) {
                return Err(format!("metric name `{}` breaks the name grammar", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!(
                    "unit `{}` of `{}` breaks the unit grammar",
                    m.unit, m.name
                ));
            }
            if self.metrics[..i].iter().any(|other| other.name == m.name) {
                return Err(format!("metric `{}` reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A metric or workload name: a letter or digit, then up to 63 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Escapes `text` for a JSON string.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "scenario.cache_hit_ratio",
            "hit_us_p99",
            "0x",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metric("batch_s", 1.25, "s");
        outcome.metric("steps_per_s", 1e6, "1/s");
        assert_eq!(
            outcome.to_json().expect("valid"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"batch_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"steps_per_s\": {\"value\": 1000000, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn bad_metrics_are_refused() {
        let mut outcome = Outcome::default();
        outcome.metric("bad name", 1.0, "s");
        assert!(outcome.to_json().is_err());
        let mut outcome = Outcome::default();
        outcome.metric("x", f64::NAN, "s");
        assert!(outcome.to_json().is_err());
        let mut outcome = Outcome::default();
        outcome.metric("x", 1.0, "s");
        outcome.metric("x", 2.0, "s");
        assert!(outcome.to_json().is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        assert!(outcome.correct());
        outcome.fail(2, "row 3 differs");
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

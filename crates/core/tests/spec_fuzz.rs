//! Decoder fuzzing of the scenario TOML boundary.
//!
//! Each case takes one shipped scenario text, damages it (a flipped bit, a
//! truncation or two swapped lines) and pushes it through the whole path a
//! scenario file takes: parse → [`ScenarioSpec::expand`] →
//! [`ScenarioSpec::build`] → 50 simulation steps. Every stage must answer
//! with `Ok` or a typed [`SimError`]; a panic anywhere fails the property
//! and prints the damaged text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use tbp_core::scenario::{ScenarioSpec, SHIPPED_FILES};
use tbp_core::SimError;

/// Expanded runs built and stepped per damaged input (sweeps can expand to
/// dozens; the first few exercise the same decoder paths).
const RUNS_PER_INPUT: usize = 3;

/// Steps each built simulation takes.
const STEPS: usize = 50;

/// Applies mutation `kind` to `text`, using `a`/`b` as positions.
fn damage(text: &str, kind: u8, a: u64, b: u64, bit: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match kind {
        0 => {
            let at = (a % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
        }
        1 => bytes.truncate((a % bytes.len() as u64) as usize),
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            let n = lines.len() as u64;
            lines.swap((a % n) as usize, (b % n) as usize);
            return lines.join("\n");
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs the damaged text through every stage; `Err` is a typed rejection.
fn decode_build_step(text: &str) -> Result<(), SimError> {
    let spec = ScenarioSpec::from_toml_str(text)?;
    for case in spec.expand().into_iter().take(RUNS_PER_INPUT) {
        let mut sim = case.build()?;
        for _ in 0..STEPS {
            sim.step()?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_shipped_specs_never_panic(
        file in 0..SHIPPED_FILES.len(),
        kind in 0u8..3,
        a in any::<u64>(),
        b in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (name, text) = SHIPPED_FILES[file];
        let damaged = damage(text, kind, a, b, bit);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_build_step(&damaged)));
        prop_assert!(
            outcome.is_ok(),
            "{name} damaged by mutation {kind} panicked; input:\n{damaged}"
        );
    }
}

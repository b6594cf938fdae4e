//! Output checks. Each is an invariant that holds for any correct version
//! of the program — equalities between two independent computations of
//! the same result, conservation laws, plan feasibility and regime guards
//! — so none pins report bytes, and a change that keeps the library
//! correct keeps every check passing.

use wsp_model::{Plan, PlanChecker, Warehouse};
use wsp_sim::SimCounters;

/// Two renderings of the same result must be byte-identical.
///
/// # Errors
///
/// Names the first differing byte offset.
pub fn same_bytes(what: &str, expected: &str, actual: &str) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(actual.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    Err(format!(
        "{what}: renderings differ at byte {at} ({} vs {} bytes)",
        expected.len(),
        actual.len()
    ))
}

/// Task conservation: `injected == completed + in_flight + queued`.
///
/// # Errors
///
/// The counter values that broke it.
pub fn conserved(tick: u64, c: &SimCounters) -> Result<(), String> {
    if c.conserved() {
        Ok(())
    } else {
        Err(format!(
            "tick {tick}: injected {} != completed {} + in_flight {} + queued {}",
            c.injected, c.completed, c.in_flight, c.queued
        ))
    }
}

/// The executed trajectories must pass the independent plan checker, and
/// its delivery count must match the simulator's.
///
/// # Errors
///
/// The checker's explanation or the delivery mismatch.
pub fn plan_feasible(warehouse: &Warehouse, plan: &Plan, delivered: u64) -> Result<(), String> {
    let stats = PlanChecker::new(warehouse)
        .check(plan)
        .map_err(|e| format!("executed plan infeasible: {e}"))?;
    let checked: u64 = stats.delivered.iter().sum();
    if checked == delivered {
        Ok(())
    } else {
        Err(format!(
            "plan checker counts {checked} deliveries, the simulator {delivered}"
        ))
    }
}

/// A condition that must hold — an equality of two computations, or a
/// regime guard that fails when a run measured something other than its
/// workload.
///
/// # Errors
///
/// `why`, when the condition fails.
pub fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// Records `result`'s failure in `slot` unless an earlier one is there:
/// a run reports the first failure of each check.
pub fn keep_first(slot: &mut Option<String>, result: Result<(), String>) {
    if slot.is_none() {
        *slot = result.err();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_byte_fails_the_identity_check() {
        let body = "{\n  \"agents\": 12,\n  \"ticks\": 2000\n}\n";
        assert!(same_bytes("body", body, body).is_ok());
        let mut corrupted = body.as_bytes().to_vec();
        corrupted[14] ^= 1;
        let corrupted = String::from_utf8(corrupted).unwrap();
        let err = same_bytes("body", body, &corrupted).unwrap_err();
        assert!(err.contains("byte 14"), "{err}");
        assert!(same_bytes("body", body, &body[..body.len() - 1]).is_err());
    }

    #[test]
    fn a_non_conserving_counter_set_fails() {
        let mut c = SimCounters {
            injected: 10,
            completed: 6,
            in_flight: 3,
            queued: 1,
            ..SimCounters::default()
        };
        assert!(conserved(5, &c).is_ok());
        c.completed += 1;
        assert!(conserved(5, &c).unwrap_err().contains("tick 5"));
    }

    #[test]
    fn failed_conditions_report_their_reason() {
        assert!(ensure(true, || unreachable!()).is_ok());
        assert_eq!(
            ensure(false, || "no faults fired".to_string()),
            Err("no faults fired".to_string())
        );
    }
}

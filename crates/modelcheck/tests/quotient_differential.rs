//! Differential guarantees for the symmetry quotient: a quotiented sweep
//! must reach the **same verdict** as the plain sweep on every harness —
//! same completeness, same violation presence, same lowest violating combo
//! — while visiting no more (and on symmetric systems strictly fewer)
//! states, and its full-space estimate must reproduce the plain sweep's
//! state total **exactly** on complete runs. These are the invariants that
//! make the quotient a pure accounting change, never a verdict change.

use std::sync::Arc;

use fa_core::SnapshotProcess;
use fa_memory::Wiring;
use fa_modelcheck::checks::{
    check_consensus_safety_with, check_renaming_with, check_snapshot_task_coarse_with,
    check_snapshot_task_with, CheckConfig, TaskCheckReport,
};
use fa_modelcheck::{Explorer, McState, StateView};

fn plain() -> CheckConfig {
    CheckConfig::serial()
}

fn quotiented() -> CheckConfig {
    CheckConfig::serial().with_quotient()
}

/// Asserts the quotiented report reaches the plain report's verdict: same
/// combo accounting, same completeness, same lowest violating combo (the
/// `combos` field *is* `best + 1`), and no more states. On complete runs the
/// quotient's full-space estimate must equal the plain total exactly.
fn assert_same_verdict(plain: &TaskCheckReport, quot: &TaskCheckReport) {
    assert_eq!(quot.combos, plain.combos, "attempted combos diverge");
    assert_eq!(quot.total_combos, plain.total_combos, "sweep sizes diverge");
    assert_eq!(quot.complete, plain.complete, "completeness diverges");
    assert_eq!(
        quot.violation.is_some(),
        plain.violation.is_some(),
        "violation presence diverges: plain={:?} quot={:?}",
        plain.violation,
        quot.violation
    );
    assert!(
        quot.total_states <= plain.total_states,
        "quotient explored more states ({} > {})",
        quot.total_states,
        plain.total_states
    );
    assert!(plain.quotient.is_none(), "plain reports carry no stats");
    let stats = quot
        .quotient
        .as_ref()
        .expect("quotiented reports carry stats");
    if plain.complete {
        assert_eq!(
            stats.full_states_estimate, plain.total_states as u64,
            "complete runs reconstruct the full total exactly"
        );
    }
}

#[test]
fn equal_inputs_fine_sweep_shrinks_and_reconstructs_exactly() {
    let p = check_snapshot_task_with(&[5, 5], 500_000, &plain()).unwrap();
    let q = check_snapshot_task_with(&[5, 5], 500_000, &quotiented()).unwrap();
    assert!(p.report.complete && p.report.violation.is_none());
    assert_same_verdict(&p.report, &q.report);
    assert!(
        q.report.total_states < p.report.total_states,
        "two equal processors must share orbits ({} vs {})",
        q.report.total_states,
        p.report.total_states
    );
}

#[test]
fn distinct_inputs_have_a_trivial_group_and_identical_reports() {
    // Distinct inputs leave only the identity symmetry: the quotient is a
    // no-op and every plain field must come back byte-identical.
    let p = check_snapshot_task_with(&[1, 2], 500_000, &plain()).unwrap();
    let q = check_snapshot_task_with(&[1, 2], 500_000, &quotiented()).unwrap();
    assert_same_verdict(&p.report, &q.report);
    assert_eq!(q.report.total_states, p.report.total_states);
    assert_eq!(q.report.violation, p.report.violation);
    let stats = q.report.quotient.as_ref().unwrap();
    assert_eq!(stats.full_states_estimate, p.report.total_states as u64);
    assert!((stats.orbit_factor() - 1.0).abs() < 1e-9);
}

#[test]
fn equal_inputs_coarse_sweep_beats_the_two_x_bar() {
    // The E18-class shape scaled to test time: a fully symmetric coarse
    // sweep, state-capped identically on both sides (the n=3 space does not
    // exhaust at test-sized caps). Row orbits and the combo quotient
    // compound, so the measured factor must clear the acceptance bar even
    // on the capped prefix.
    let p = check_snapshot_task_coarse_with(&[7, 7, 7], 3_000, &plain()).unwrap();
    let q = check_snapshot_task_coarse_with(&[7, 7, 7], 3_000, &quotiented()).unwrap();
    assert_same_verdict(&p.report, &q.report);
    let stats = q.report.quotient.as_ref().unwrap();
    assert!(
        stats.combos_explored < q.report.combos,
        "the combo quotient must skip symmetric combos"
    );
    let factor = stats.orbit_factor();
    assert!(factor > 2.0, "orbit factor {factor:.2} ≤ 2");
}

#[test]
fn mixed_input_classes_quotient_by_the_partial_group() {
    // [1, 1, 2]: only the p0↔p1 swap survives — still a sound quotient.
    let p = check_snapshot_task_coarse_with(&[1, 1, 2], 3_000, &plain()).unwrap();
    let q = check_snapshot_task_coarse_with(&[1, 1, 2], 3_000, &quotiented()).unwrap();
    assert_same_verdict(&p.report, &q.report);
}

#[test]
fn renaming_sweep_matches_under_quotient() {
    let p = check_renaming_with(&[3, 3], 500_000, &plain()).unwrap();
    let q = check_renaming_with(&[3, 3], 500_000, &quotiented()).unwrap();
    assert_same_verdict(&p.report, &q.report);
}

#[test]
fn consensus_sweeps_match_under_quotient() {
    // Distinct inputs (trivial group) and equal inputs (full group), both
    // depth/state capped — verdicts must match even on incomplete runs.
    for inputs in [[7u32, 9], [5, 5]] {
        let p = check_consensus_safety_with(&inputs, 20_000, 24, &plain()).unwrap();
        let q = check_consensus_safety_with(&inputs, 20_000, 24, &quotiented()).unwrap();
        assert_same_verdict(&p.report, &q.report);
    }
}

#[test]
fn quotiented_sweeps_are_byte_identical_across_jobs() {
    // Worker-count independence survives the quotient: one fixed `{:?}`
    // rendering (stats included) for every worker count.
    let reference = format!(
        "{:?}",
        check_snapshot_task_coarse_with(&[7, 7, 7], 3_000, &quotiented())
            .unwrap()
            .report
    );
    let configs = [1, 2, 4].map(|jobs| CheckConfig::default().with_jobs(jobs).with_quotient());
    for config in &configs {
        let report = check_snapshot_task_coarse_with(&[7, 7, 7], 3_000, config)
            .unwrap()
            .report;
        assert_eq!(format!("{report:?}"), reference, "{config:?}");
    }
}

#[test]
fn reconstructed_counterexample_replays_to_the_reported_state() {
    // Explorer-level: on a fully symmetric system with a tripping
    // invariant, the quotiented run must hand back a *real* (unquotiented)
    // counterexample — replaying its schedule from the initial state lands
    // exactly on the reported state, and the invariant fails there with the
    // reported message.
    let n = 3;
    let procs: Vec<SnapshotProcess<u32>> = (0..n).map(|_| SnapshotProcess::new(9, n)).collect();
    let wirings: Vec<Arc<Wiring>> = (0..n).map(|_| Arc::new(Wiring::identity(n))).collect();
    let invariant = |s: &StateView<'_, SnapshotProcess<u32>>| {
        let outs = s.first_outputs().iter().flatten().count();
        if outs > 0 {
            Err(format!("saw {outs} outputs"))
        } else {
            Ok(())
        }
    };
    let explorer =
        Explorer::new(procs.clone(), n, Default::default(), wirings.clone()).with_quotient();
    let report = explorer.run(invariant);
    let v = report.violation.expect("the invariant must trip");

    let mut state = McState::initial(procs, n, Default::default());
    for &p in &v.schedule {
        state = state
            .step(p, &wirings)
            .expect("the schedule only steps live processors");
    }
    assert_eq!(state, v.state, "schedule replay diverges from the state");
    let outs = state.first_outputs().iter().flatten().count();
    assert_eq!(format!("saw {outs} outputs"), v.message);
}

#[test]
fn quotiented_violation_verdict_matches_plain_at_explorer_level() {
    // Same system, plain vs quotient: violation presence and first-failure
    // depth (schedule length) must match even though the counterexample
    // itself may be a different orbit member.
    let n = 3;
    let procs: Vec<SnapshotProcess<u32>> = (0..n).map(|_| SnapshotProcess::new(9, n)).collect();
    let wirings: Vec<Arc<Wiring>> = (0..n).map(|_| Arc::new(Wiring::identity(n))).collect();
    let invariant = |s: &StateView<'_, SnapshotProcess<u32>>| {
        let outs = s.first_outputs().iter().flatten().count();
        if outs > 0 {
            Err(format!("saw {outs} outputs"))
        } else {
            Ok(())
        }
    };
    let base = Explorer::new(procs.clone(), n, Default::default(), wirings.clone());
    let p = base.run(invariant);
    let q = base.with_quotient().run(invariant);
    let (pv, qv) = (p.violation.unwrap(), q.violation.unwrap());
    assert_eq!(
        pv.schedule.len(),
        qv.schedule.len(),
        "failure depth diverges"
    );
    assert_eq!(pv.message, qv.message);
    assert!(q.states <= p.states);
    assert!(q.full_states_estimate.is_some());
    assert!(p.full_states_estimate.is_none());
}

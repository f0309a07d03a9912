//! Differential guarantees for the flat-arena hot path: the arena BFS must
//! report **identically** to the legacy Arc-based BFS it replaced, and a
//! sweep's `TaskCheckReport` must be byte-identical (`{:?}`) across every
//! strategy and worker count. These are the invariants that make the arena a
//! pure representation change — same states, same order, same verdicts.

use std::sync::Arc;

use fa_core::{ConsensusProcess, SnapshotProcess};
use fa_memory::{ProcId, Wiring};
use fa_modelcheck::checks::{
    check_consensus_safety_with, check_snapshot_task_coarse_with, check_snapshot_task_with,
    CheckConfig,
};
use fa_modelcheck::{ArenaTables, ExploreReport, Explorer, McState, StateView, StrategyKind};
use proptest::prelude::*;

/// Asserts two exploration reports are the same verdict: same state count,
/// terminal count, completeness, and (when violating) the same
/// counterexample state, schedule, and message.
fn assert_reports_identical<P>(arena: &ExploreReport<P>, arc: &ExploreReport<P>)
where
    P: fa_memory::Process + Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Value: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Output: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    assert_eq!(arena.states, arc.states, "state counts diverge");
    assert_eq!(
        arena.terminal_states, arc.terminal_states,
        "terminal counts diverge"
    );
    assert_eq!(arena.complete, arc.complete, "completeness diverges");
    match (&arena.violation, &arc.violation) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.state, b.state, "counterexample states diverge");
            assert_eq!(a.schedule, b.schedule, "counterexample schedules diverge");
            assert_eq!(a.message, b.message, "violation messages diverge");
        }
        (a, b) => panic!("violation presence diverges: arena={a:?} arc={b:?}"),
    }
}

fn snapshot_explorer(coarse: bool) -> Explorer<SnapshotProcess<u32>> {
    let n = 2;
    let procs: Vec<SnapshotProcess<u32>> = [1u32, 2]
        .iter()
        .map(|&x| SnapshotProcess::new(x, n))
        .collect();
    let wirings = vec![
        Arc::new(Wiring::identity(n)),
        Arc::new(Wiring::from_perm(vec![1, 0]).unwrap()),
    ];
    let e = Explorer::new(procs, n, Default::default(), wirings);
    if coarse {
        e.with_coarse_scans()
    } else {
        e
    }
}

#[test]
fn arena_matches_arc_on_the_snapshot_system() {
    for coarse in [false, true] {
        let explorer = snapshot_explorer(coarse);
        let arena = explorer.run(|_| Ok(()));
        let arc = explorer.run_arc(|_| Ok(()));
        assert_reports_identical(&arena, &arc);
        assert!(arena.complete, "n=2 snapshot space is exhaustible");
        assert!(arena.states > 100, "nontrivial space: {}", arena.states);
    }
}

#[test]
fn arena_matches_arc_on_a_violating_invariant() {
    // A deliberately failing invariant: the first counterexample (state,
    // BFS schedule, message) must be the same object on both paths.
    let explorer = snapshot_explorer(false);
    let invariant_msg = |outputs: usize| format!("saw {outputs} outputs");
    let arena = explorer.run(|s| {
        let outs = s.first_outputs().iter().flatten().count();
        if outs > 0 {
            Err(invariant_msg(outs))
        } else {
            Ok(())
        }
    });
    let arc = explorer.run_arc(|s: &McState<SnapshotProcess<u32>>| {
        let outs = s.first_outputs().iter().flatten().count();
        if outs > 0 {
            Err(invariant_msg(outs))
        } else {
            Ok(())
        }
    });
    assert_reports_identical(&arena, &arc);
    assert!(arena.violation.is_some(), "the invariant must trip");
}

#[test]
fn arena_matches_arc_on_the_consensus_system() {
    // Unbounded timestamp space: both paths stop at the same caps with the
    // same visited prefix.
    let n = 2;
    let procs: Vec<ConsensusProcess<u32>> = [7u32, 9]
        .iter()
        .map(|&x| ConsensusProcess::new(x, n))
        .collect();
    let wirings = vec![Wiring::identity(n), Wiring::identity(n)];
    let explorer = Explorer::new(procs, n, Default::default(), wirings)
        .with_max_states(20_000)
        .with_max_depth(40);
    let arena = explorer.run(|_| Ok(()));
    let arc = explorer.run_arc(|_| Ok(()));
    assert_reports_identical(&arena, &arc);
}

/// The state caps at the edges of a space of `k` reachable states — the
/// smallest cap, one short, exact, one over — plus fifteen caps spread
/// through the space. Terminal states sit deep in the BFS, so only the
/// caps that stop with terminals still queued test the drain's counting.
fn cap_edges(k: usize) -> Vec<usize> {
    let mut caps = vec![1, k - 1, k, k + 1];
    caps.extend((1..16).map(|j| k * j / 16));
    caps
}

/// An invariant that trips on the first state in which some process has
/// produced an output — deep enough that small caps never reach it.
fn no_outputs(s: &StateView<'_, SnapshotProcess<u32>>) -> Result<(), String> {
    match s.first_outputs().iter().flatten().count() {
        0 => Ok(()),
        outs => Err(format!("saw {outs} outputs")),
    }
}

#[test]
fn arena_matches_arc_at_the_state_cap_edges() {
    // The arena BFS stops expanding once a new successor is refused at the
    // cap and only drains the queue for terminal counts; the Arc engine
    // still expands to the end. Both must report the same thing.
    let explorer = snapshot_explorer(false);
    let k = explorer.run(|_| Ok(())).states;
    for cap in cap_edges(k) {
        let capped = snapshot_explorer(false).with_max_states(cap);
        let arena = capped.run(|_| Ok(()));
        assert_reports_identical(&arena, &capped.run_arc(|_| Ok(())));
        assert_eq!(arena.states, cap.min(k), "cap {cap}");
        assert_eq!(
            arena.complete,
            cap >= k,
            "cap {cap}: exact fill is complete"
        );

        let arena = capped.run(no_outputs);
        let arc = capped.run_arc(|s: &McState<SnapshotProcess<u32>>| {
            match s.first_outputs().iter().flatten().count() {
                0 => Ok(()),
                outs => Err(format!("saw {outs} outputs")),
            }
        });
        assert_reports_identical(&arena, &arc);
    }
    let full = explorer.run(no_outputs);
    assert!(full.violation.is_some(), "the invariant must trip uncapped");
    assert!(
        snapshot_explorer(false)
            .with_max_states(1)
            .run(no_outputs)
            .violation
            .is_none(),
        "the invariant must not trip at cap 1"
    );
}

/// The symmetric snapshot system (equal inputs, identity wirings), whose
/// quotient group swaps the two processes.
fn symmetric_snapshot_explorer() -> Explorer<SnapshotProcess<u32>> {
    let procs: Vec<SnapshotProcess<u32>> = [5u32, 5]
        .iter()
        .map(|&x| SnapshotProcess::new(x, 2))
        .collect();
    let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
    Explorer::new(procs, 2, Default::default(), wirings)
}

#[test]
fn spill_and_quotient_match_the_unbudgeted_arena_at_the_cap_edges() {
    let assert_same = |budgeted: &ExploreReport<SnapshotProcess<u32>>,
                       plain: &ExploreReport<SnapshotProcess<u32>>| {
        assert_reports_identical(budgeted, plain);
        assert_eq!(budgeted.full_states_estimate, plain.full_states_estimate);
    };
    let mut reachable = Vec::new();
    for quotient in [false, true] {
        let base = || {
            let e = symmetric_snapshot_explorer();
            if quotient {
                e.with_quotient()
            } else {
                e
            }
        };
        let k = base().run(|_| Ok(())).states;
        reachable.push(k);
        for cap in cap_edges(k) {
            for invariant in [|_: &StateView<'_, _>| Ok(()), no_outputs] {
                let plain = base().with_max_states(cap).run(invariant);
                let spilled = base()
                    .with_max_states(cap)
                    .with_visited_budget(0)
                    .run(invariant);
                assert_same(&spilled, &plain);
                if plain.violation.is_none() {
                    assert_eq!(plain.complete, cap >= k, "quotient {quotient}, cap {cap}");
                }
            }
        }
    }
    assert!(
        reachable[1] < reachable[0],
        "the quotient group is nontrivial"
    );
}

#[test]
fn sweep_reports_are_byte_identical_across_jobs_and_strategies() {
    // The E13-style guarantee, extended to the strategy factory: the full
    // `{:?}` rendering of a TaskCheckReport is one fixed byte string no
    // matter how the sweep was executed.
    let configs = [
        CheckConfig::default()
            .with_jobs(1)
            .with_strategy(StrategyKind::Auto),
        CheckConfig::default()
            .with_jobs(4)
            .with_strategy(StrategyKind::Auto),
        CheckConfig::default()
            .with_jobs(4)
            .with_strategy(StrategyKind::Serial),
        CheckConfig::default()
            .with_jobs(1)
            .with_strategy(StrategyKind::WorkerPool),
        CheckConfig::default()
            .with_jobs(4)
            .with_strategy(StrategyKind::WorkerPool),
    ];

    let fine_ref = format!(
        "{:?}",
        check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::serial())
            .unwrap()
            .report
    );
    let coarse_ref = format!(
        "{:?}",
        check_snapshot_task_coarse_with(&[1, 2, 3], 4_000, &CheckConfig::serial())
            .unwrap()
            .report
    );
    let consensus_ref = format!(
        "{:?}",
        check_consensus_safety_with(&[3, 5], 5_000, 24, &CheckConfig::serial())
            .unwrap()
            .report
    );
    for config in &configs {
        let fine = check_snapshot_task_with(&[1, 2], 500_000, config).unwrap();
        assert_eq!(format!("{:?}", fine.report), fine_ref, "{config:?}");
        let coarse = check_snapshot_task_coarse_with(&[1, 2, 3], 4_000, config).unwrap();
        assert_eq!(format!("{:?}", coarse.report), coarse_ref, "{config:?}");
        let consensus = check_consensus_safety_with(&[3, 5], 5_000, 24, config).unwrap();
        assert_eq!(
            format!("{:?}", consensus.report),
            consensus_ref,
            "{config:?}"
        );
    }
}

/// Drives the snapshot system down a random schedule, encoding every state
/// reached; each row must decode back to exactly the state it encoded.
fn roundtrip_along_schedule(inputs: (u32, u32), schedule: Vec<u8>) {
    let n = 2;
    let procs: Vec<SnapshotProcess<u32>> = [inputs.0, inputs.1]
        .iter()
        .map(|&x| SnapshotProcess::new(x, n))
        .collect();
    let wirings = vec![
        Arc::new(Wiring::identity(n)),
        Arc::new(Wiring::from_perm(vec![1, 0]).unwrap()),
    ];
    let mut state = McState::initial(procs, n, Default::default());
    let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(n, n, u32::MAX);
    type RowAndState = (Box<[u32]>, McState<SnapshotProcess<u32>>);
    let mut rows: Vec<RowAndState> = Vec::new();
    let row = tables.encode(&state).unwrap();
    rows.push((row, state.clone()));
    for pick in schedule {
        let live = state.live();
        if live.is_empty() {
            break;
        }
        let p = live[pick as usize % live.len()];
        state = state.step(p, &wirings).unwrap();
        let row = tables.encode(&state).unwrap();
        rows.push((row, state.clone()));
    }
    // Decode *after* all interning: later interns must never disturb the
    // meaning of earlier rows (ids are append-only).
    for (row, expect) in &rows {
        assert_eq!(&tables.decode(row), expect);
    }
}

proptest! {
    #[test]
    fn arena_rows_round_trip_through_the_tables(
        a in 0u32..5,
        b in 0u32..5,
        schedule in proptest::collection::vec(0u8..2, 0..25),
    ) {
        roundtrip_along_schedule((a, b), schedule);
    }
}

#[test]
fn encoding_is_injective_along_an_execution() {
    // Same schedule twice: identical states encode to identical rows
    // (id assignment is deterministic in first-touch order).
    let run = || {
        let procs: Vec<SnapshotProcess<u32>> = [4u32, 6]
            .iter()
            .map(|&x| SnapshotProcess::new(x, 2))
            .collect();
        let wirings = vec![Arc::new(Wiring::identity(2)), Arc::new(Wiring::identity(2))];
        let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(2, 2, u32::MAX);
        let mut state = McState::initial(procs, 2, Default::default());
        let mut rows = vec![tables.encode(&state).unwrap()];
        for _ in 0..12 {
            let live = state.live();
            let Some(&p) = live.first() else { break };
            state = state.step(p, &wirings).unwrap();
            rows.push(tables.encode(&state).unwrap());
        }
        rows
    };
    assert_eq!(run(), run());
}

#[test]
fn solo_schedule_reaches_halt_with_sentinel_rows() {
    // Run p0 solo to halt; its pending slot in the final row must be the
    // halted sentinel, observable through decode as `pending: None`.
    let procs: Vec<SnapshotProcess<u32>> = [1u32, 2]
        .iter()
        .map(|&x| SnapshotProcess::new(x, 2))
        .collect();
    let wirings = vec![Arc::new(Wiring::identity(2)), Arc::new(Wiring::identity(2))];
    let mut state = McState::initial(procs, 2, Default::default());
    let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(2, 2, u32::MAX);
    for _ in 0..200 {
        if !state.live().contains(&ProcId(0)) {
            break;
        }
        state = state.step(ProcId(0), &wirings).unwrap();
    }
    assert!(
        !state.live().contains(&ProcId(0)),
        "p0 halts solo (wait-free)"
    );
    let row = tables.encode(&state).unwrap();
    let decoded = tables.decode(&row);
    assert_eq!(decoded, state);
    assert!(
        decoded.pending[0].is_none(),
        "halted pending decodes to None"
    );
}

//! The known-bad control: Chandra's decision rule ported verbatim (E13)
//! lets two anonymous processors disagree. A run whose model checker stops
//! finding that disagreement is reporting a false "no violation" and fails.

use fa_core::ConsensusProcess;
use fa_memory::{ProcId, Wiring};
use fa_modelcheck::{step_block, ExploreReport, Explorer, McState};

type Naive = ConsensusProcess<u32>;

/// Exploration depth of the control.
pub const DEPTH: usize = 200;

fn processes() -> Vec<Naive> {
    vec![
        ConsensusProcess::with_naive_unseen_rule(1, 2),
        ConsensusProcess::with_naive_unseen_rule(2, 2),
    ]
}

fn identity_wirings() -> Vec<Wiring> {
    vec![Wiring::identity(2); 2]
}

/// Two decided processors that decided differently.
fn disagreement(outputs: &[Option<u32>]) -> Option<String> {
    let decided: Vec<(usize, u32)> = outputs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.map(|d| (i, d)))
        .collect();
    decided.windows(2).find(|w| w[0].1 != w[1].1).map(|w| {
        format!(
            "disagreement: p{} decided {}, p{} decided {}",
            w[0].0, w[0].1, w[1].0, w[1].1
        )
    })
}

/// Explores the naive-rule system: n=2, identity wirings, coarse scans,
/// depth 200, agreement invariant.
pub fn explore() -> ExploreReport<Naive> {
    Explorer::new(processes(), 2, Default::default(), identity_wirings())
        .with_coarse_scans()
        .with_max_depth(DEPTH)
        .run(|s| disagreement(&s.first_outputs()).map_or(Ok(()), Err))
}

/// Checks the control's report: a disagreement must be found, and its
/// schedule must replay through `step_block` from the initial state to a
/// state that disagrees. Returns the schedule length.
pub fn verify(report: &ExploreReport<Naive>) -> Result<usize, String> {
    let v = report
        .violation
        .as_ref()
        .ok_or("control reported no violation: the naive consensus rule must disagree")?;
    if !v.message.starts_with("disagreement") {
        return Err(format!(
            "control violation is not a disagreement: {}",
            v.message
        ));
    }
    let wirings = identity_wirings();
    let mut state = McState::initial(processes(), 2, Default::default());
    for &ProcId(p) in &v.schedule {
        if state.pending[p].is_none() {
            return Err(format!(
                "control schedule steps halted p{p}: it does not replay"
            ));
        }
        state = step_block(&state, ProcId(p), &wirings);
    }
    disagreement(&state.first_outputs())
        .map(|_| v.schedule.len())
        .ok_or_else(|| "control schedule replays to a state without disagreement".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_naive_rule_is_caught_and_its_schedule_replays() {
        assert!(verify(&explore()).is_ok());
    }

    #[test]
    fn a_silenced_control_fails() {
        let silenced = ExploreReport::<Naive> {
            states: 1,
            terminal_states: 0,
            complete: true,
            violation: None,
            full_states_estimate: None,
            spilled_shards: 0,
        };
        assert!(verify(&silenced).is_err());
    }

    #[test]
    fn the_disagreement_only_counts_two_different_decisions() {
        assert_eq!(disagreement(&[None, None]), None);
        assert_eq!(disagreement(&[Some(1), Some(1)]), None);
        assert!(disagreement(&[Some(1), Some(2)]).is_some());
    }
}

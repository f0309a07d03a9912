//! One verification through the public API, as a user of `fa-modelcheck`
//! issues it, plus the set-up work that precedes its exploration.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fa_modelcheck::canon::combo_reps;
use fa_modelcheck::checks::check_snapshot_task_coarse_with;
use fa_modelcheck::wirings::ComboTable;
use fa_modelcheck::{Canonicalizer, ExploreReport};
use fa_modelcheck::{CheckConfig, CheckpointConfig, ExplorerTelemetry};
use fa_obs::MetricRegistry;

use fa_core::SnapshotProcess;

use crate::workload::{snapshot_invariant, Inputs, Verdict, Workload};

/// What the program computes before the first state is explored: the
/// combo table (sweeps), the combo-class representatives (quotiented
/// sweep) and the symmetry group (single combo). The harness builds its
/// own copies, so only the representatives are kept — to tell explored
/// combos from the ones a quotiented sweep maps onto them.
#[derive(Debug)]
pub struct Setup {
    pub reps: Option<Vec<usize>>,
}

/// Runs the workload's set-up calls once.
pub fn setup(workload: Workload, inputs: &Inputs) -> Setup {
    let n = workload.n();
    if workload == Workload::SingleComboN5 {
        black_box(Canonicalizer::for_system(
            &inputs.classes(),
            &inputs.single_combo(),
        ));
        return Setup { reps: None };
    }
    black_box(ComboTable::new(n, n));
    Setup {
        reps: (workload == Workload::QuotientN4)
            .then(|| combo_reps(n, n, &inputs.classes()))
            .flatten(),
    }
}

/// Times [`setup`] repeatedly — at least 3 and at most 200 times, for at
/// most ~0.1 s beyond the third — and returns every sample in seconds plus
/// the last result.
pub fn timed_setups(workload: Workload, inputs: &Inputs) -> (Vec<f64>, Setup) {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let s = black_box(setup(workload, black_box(inputs)));
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 200 || (samples.len() >= 3 && started.elapsed().as_secs_f64() > 0.1) {
            return (samples, s);
        }
    }
}

/// The `CheckConfig` of a sweep: the program default (jobs = available
/// parallelism, `auto` strategy) plus the workload's own flags.
pub fn sweep_config(workload: Workload, checkpoint: Option<&Path>) -> CheckConfig {
    let mut config = CheckConfig::default();
    if workload.quotient() {
        config = config.with_quotient();
    }
    if let Some(b) = workload.budget() {
        config = config.with_visited_budget(b);
    }
    if let Some(dir) = checkpoint {
        config = config.with_checkpoint(CheckpointConfig::new(dir));
    }
    config
}

/// One verification with state cap `cap` (the workload's own, except when
/// warming up): the sweep harness for the n=4 workloads (with a checkpoint
/// journal in `checkpoint` when given), `Explorer::run` for the single
/// combo. Returns the gated verdict and the wall time from the
/// public call to its verdict.
pub fn verify(
    workload: Workload,
    inputs: &Inputs,
    setup: &Setup,
    cap: usize,
    checkpoint: Option<&Path>,
    telemetry: Option<&Arc<MetricRegistry>>,
) -> Result<(Verdict, Duration), String> {
    if workload == Workload::SingleComboN5 {
        let mut explorer = inputs
            .explorer(workload, inputs.single_combo())
            .with_max_states(cap);
        if let Some(reg) = telemetry {
            explorer = explorer.with_telemetry(ExplorerTelemetry::from_registry(reg));
        }
        let values = &inputs.values;
        let t = Instant::now();
        let report = explorer.run(|s| snapshot_invariant(s, values));
        let wall = t.elapsed();
        return Ok((single_verdict(workload, &report), wall));
    }
    let mut config = sweep_config(workload, checkpoint);
    if let Some(reg) = telemetry {
        config = config.with_telemetry(Arc::clone(reg));
    }
    let t = Instant::now();
    let outcome = check_snapshot_task_coarse_with(&inputs.values, cap, &config)?;
    let wall = t.elapsed();
    let report = &outcome.report;
    let explored = |i: usize| setup.reps.as_ref().is_none_or(|r| r[i] == i);
    let per_combo = &outcome.telemetry.per_combo_states;
    let short_combos = (0..per_combo.len())
        .filter(|&i| explored(i) && per_combo[i] != cap)
        .count();
    let verdict = match &report.quotient {
        Some(q) => Verdict {
            violation: report.violation.clone(),
            combos: q.combos_explored,
            swept: report.combos,
            total_combos: report.total_combos,
            states: q.canonical_states as u64,
            covered: q.full_states_estimate,
            spilled_shards: q.spilled_shards,
            short_combos,
        },
        None => Verdict {
            violation: report.violation.clone(),
            combos: report.combos,
            swept: report.combos,
            total_combos: report.total_combos,
            states: report.total_states as u64,
            covered: report.total_states as u64,
            spilled_shards: 0,
            short_combos,
        },
    };
    Ok((verdict, wall))
}

/// The gated verdict of one single-combo exploration.
pub fn single_verdict(workload: Workload, report: &ExploreReport<SnapshotProcess<u32>>) -> Verdict {
    Verdict {
        violation: report.violation.as_ref().map(|v| v.message.clone()),
        combos: 1,
        swept: 1,
        total_combos: 1,
        states: report.states as u64,
        covered: report.full_states_estimate.unwrap_or(report.states as u64),
        spilled_shards: report.spilled_shards,
        short_combos: usize::from(report.states != workload.cap()),
    }
}

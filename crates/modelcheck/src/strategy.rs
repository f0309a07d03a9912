//! Pluggable execution strategies for wiring-combination sweeps.
//!
//! A sweep is a loop over independent combo explorations with one shared
//! rule: the report must cover exactly the serial prefix `0..=B`, where `B`
//! is the lowest violating combo index (all combos when none violates).
//! [`ExploreStrategy`] abstracts *how* that prefix gets explored —
//! [`Serial`] walks it in order on the calling thread, [`WorkerPool`] fans
//! combos across a scoped thread pool with atomic claiming and
//! lowest-violation tracking (the PR 2 sweep executor, absorbed here) — so
//! future schedulers (e.g. a speculative Block-STM-style executor) slot in
//! behind [`StrategyKind`] without touching any harness call site.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-combination result handed back by a sweep worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComboOutcome {
    /// Distinct states the combo's exploration visited.
    pub states: usize,
    /// Whether the combo's reachable space was fully explored.
    pub complete: bool,
    /// Estimated full-space state count when the exploration ran with the
    /// symmetry quotient (`None` otherwise). Exact on complete runs.
    pub full_states_est: Option<u64>,
    /// Visited shards spilled to the disk tier (0 without a budget).
    pub spilled_shards: usize,
    /// Formatted violation found in this combo, if any.
    pub violation: Option<String>,
}

/// One combo exploration: invoked with the combo index and a `stop` probe
/// the exploration polls (returning `true` makes it abort early — used to
/// cancel combos made redundant by a lower-indexed violation). Must be
/// deterministic per index when `stop` stays `false`.
pub type ComboRunner<'a> = dyn Fn(usize, &(dyn Fn() -> bool + Sync)) -> ComboOutcome + Sync + 'a;

/// How a sweep's combo explorations are executed.
///
/// # Contract
///
/// Let `B` be the lowest index for which the runner reports a violation
/// (`total` when none does). An implementation must return one slot per
/// combo such that every slot in `0..=B.min(total-1)` is `Some` and holds a
/// run that was **never aborted** (its `stop` probe never fired) — those are
/// exactly the combos a serial sweep explores, which is what makes assembled
/// reports byte-identical across strategies and worker counts. Slots above
/// `B` may be `None` (skipped) or hold aborted runs; assembly ignores them.
pub trait ExploreStrategy: std::fmt::Debug {
    /// Strategy name, for diagnostics and CLI surfaces.
    fn name(&self) -> &'static str;

    /// Executes `run_combo` over combos `0..total` under the contract above.
    fn run(&self, total: usize, run_combo: &ComboRunner<'_>) -> Vec<Option<ComboOutcome>>;
}

/// In-order exploration on the calling thread, stopping at the first
/// violating combo. The reference implementation of the contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serial;

impl ExploreStrategy for Serial {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run(&self, total: usize, run_combo: &ComboRunner<'_>) -> Vec<Option<ComboOutcome>> {
        let mut slots: Vec<Option<ComboOutcome>> = (0..total).map(|_| None).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            let outcome = run_combo(i, &|| false);
            let violated = outcome.violation.is_some();
            *slot = Some(outcome);
            if violated {
                break;
            }
        }
        slots
    }
}

/// Scoped worker pool with atomic combo claiming: workers pull indices from
/// a shared counter, lower a shared *best* (lowest violating index) with
/// `fetch_min` on violations, and skip or abort combos above it. A combo
/// below the final best is never skipped nor aborted (best never rises), so
/// the contract's prefix is always fully explored.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    /// Worker threads to spawn (at least 1).
    pub jobs: usize,
}

impl ExploreStrategy for WorkerPool {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn run(&self, total: usize, run_combo: &ComboRunner<'_>) -> Vec<Option<ComboOutcome>> {
        let jobs = self.jobs.max(1).min(total.max(1));
        let next = AtomicUsize::new(0);
        // Lowest combo index with a violation found so far (MAX = none yet).
        let best = AtomicUsize::new(usize::MAX);
        let slots: Vec<OnceLock<ComboOutcome>> = (0..total).map(|_| OnceLock::new()).collect();

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    // A violation at a lower index makes this combo
                    // irrelevant.
                    if i > best.load(Ordering::Relaxed) {
                        continue;
                    }
                    let stop = || i > best.load(Ordering::Relaxed);
                    let outcome = run_combo(i, &stop);
                    if outcome.violation.is_some() {
                        best.fetch_min(i, Ordering::Relaxed);
                    }
                    let _ = slots[i].set(outcome);
                });
            }
        });

        slots.into_iter().map(OnceLock::into_inner).collect()
    }
}

/// Factory selector for an [`ExploreStrategy`] — the knob
/// [`crate::CheckConfig`] carries, so harness call sites never name a
/// concrete executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategyKind {
    /// [`Serial`] when one worker is requested, [`WorkerPool`] otherwise.
    #[default]
    Auto,
    /// Always [`Serial`], regardless of the job count.
    Serial,
    /// Always [`WorkerPool`] (with however many jobs are configured, even
    /// one).
    WorkerPool,
}

impl StrategyKind {
    /// Builds the selected strategy for a sweep that will use `jobs` worker
    /// threads.
    #[must_use]
    pub fn build(self, jobs: usize) -> Box<dyn ExploreStrategy + Send + Sync> {
        match self {
            StrategyKind::Auto if jobs <= 1 => Box::new(Serial),
            StrategyKind::Auto | StrategyKind::WorkerPool => Box::new(WorkerPool { jobs }),
            StrategyKind::Serial => Box::new(Serial),
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(StrategyKind::Auto),
            "serial" => Ok(StrategyKind::Serial),
            "pool" | "worker-pool" => Ok(StrategyKind::WorkerPool),
            other => Err(format!(
                "unknown strategy {other:?} (expected auto, serial, or pool)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic runner: combo `i` "explores" `i + 1` states and violates
    /// exactly on the indices in `violations`. Counts aborted runs so tests
    /// can assert the prefix contract.
    fn runner(
        violations: &'static [usize],
    ) -> impl Fn(usize, &(dyn Fn() -> bool + Sync)) -> ComboOutcome + Sync {
        move |i, stop| {
            let aborted = stop();
            ComboOutcome {
                states: i + 1,
                complete: !aborted,
                full_states_est: None,
                spilled_shards: 0,
                violation: (!aborted && violations.contains(&i)).then(|| format!("combo {i}")),
            }
        }
    }

    fn assembled_prefix(slots: &[Option<ComboOutcome>]) -> Vec<ComboOutcome> {
        let first = slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|o| o.violation.is_some()))
            .map_or(slots.len(), |b| b + 1);
        slots[..first]
            .iter()
            .map(|s| s.clone().expect("prefix combos are always explored"))
            .collect()
    }

    #[test]
    fn serial_stops_at_the_first_violation() {
        let slots = Serial.run(10, &runner(&[4, 7]));
        assert!(slots[..=4].iter().all(Option::is_some));
        assert!(slots[5..].iter().all(Option::is_none));
        assert_eq!(
            slots[4].as_ref().unwrap().violation.as_deref(),
            Some("combo 4")
        );
    }

    #[test]
    fn pool_matches_serial_prefix_for_all_job_counts() {
        for violations in [&[][..], &[0][..], &[4, 7][..], &[9][..]] {
            let reference = assembled_prefix(&Serial.run(10, &runner(violations)));
            for jobs in [1, 2, 4, 8] {
                let slots = WorkerPool { jobs }.run(10, &runner(violations));
                assert_eq!(
                    assembled_prefix(&slots),
                    reference,
                    "jobs={jobs}, violations={violations:?}"
                );
            }
        }
    }

    #[test]
    fn pool_prefix_is_never_aborted() {
        for _ in 0..20 {
            let slots = WorkerPool { jobs: 8 }.run(16, &runner(&[5]));
            for slot in assembled_prefix(&slots) {
                assert!(slot.complete, "prefix combos must never be aborted");
            }
        }
    }

    #[test]
    fn factory_selects_by_kind_and_jobs() {
        assert_eq!(StrategyKind::Auto.build(1).name(), "serial");
        assert_eq!(StrategyKind::Auto.build(4).name(), "pool");
        assert_eq!(StrategyKind::Serial.build(4).name(), "serial");
        assert_eq!(StrategyKind::WorkerPool.build(1).name(), "pool");
        assert_eq!(
            "pool".parse::<StrategyKind>().unwrap(),
            StrategyKind::WorkerPool
        );
        assert_eq!(
            "serial".parse::<StrategyKind>().unwrap(),
            StrategyKind::Serial
        );
        assert!("bogus".parse::<StrategyKind>().is_err());
        // Sweeps parallelise across combos only; `intra[:N]` is no strategy.
        assert!("intra".parse::<StrategyKind>().is_err());
        assert!("intra:2".parse::<StrategyKind>().is_err());
    }
}

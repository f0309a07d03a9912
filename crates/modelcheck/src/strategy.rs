//! The sweep executor for wiring-combination sweeps.
//!
//! A sweep is a loop over independent combo explorations with one shared
//! rule: the report must cover exactly the serial prefix `0..=B`, where `B`
//! is the lowest violating combo index (all combos when none violates).
//! [`WorkerPool`] explores that prefix by fanning combos across a scoped
//! thread pool with atomic claiming and lowest-violation tracking; with one
//! job it walks the combos in index order and stops after the first
//! violation, exactly as a serial loop would.

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

/// Scoped worker pool with atomic combo claiming: workers pull indices from
/// a shared counter, lower a shared *best* (lowest violating index) with
/// `fetch_min` on violations, and skip or abort combos above it. A combo
/// below the final best is never skipped nor aborted (best never rises), so
/// the serial prefix is always fully explored.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    /// Worker threads to spawn (at least 1).
    pub jobs: usize,
}

impl WorkerPool {
    /// Executes `run_combo` over combos `0..total`.
    ///
    /// Let `B` be the lowest index for which the runner reports a violation
    /// (`total` when none does). Every slot in `0..=B.min(total-1)` is
    /// `Some` and holds a run that was **never aborted** (its `stop` probe
    /// never fired) — exactly the combos a serial sweep explores, which is
    /// what makes assembled reports byte-identical across worker counts.
    /// Slots above `B` may be `None` (skipped) or hold aborted runs;
    /// assembly ignores them.
    #[must_use]
    pub fn run(&self, total: usize, run_combo: &ComboRunner<'_>) -> Vec<Option<ComboOutcome>> {
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

/// Former executor selector, now a one-variant alias for [`WorkerPool`].
/// Kept only because the benchmark harness (`perfbench`) still calls
/// `StrategyKind::Auto.build(jobs).run(..)`; it goes with the next change
/// to the benchmark, which calls [`WorkerPool`] directly.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum StrategyKind {
    /// The worker pool.
    Auto,
}

impl StrategyKind {
    /// The worker pool with `jobs` threads.
    #[must_use]
    pub fn build(self, jobs: usize) -> WorkerPool {
        WorkerPool { jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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

    /// The in-order reference the pool must reproduce: explore combos on
    /// the calling thread, stopping after the first violation.
    fn serial_reference(total: usize, run_combo: &ComboRunner<'_>) -> Vec<Option<ComboOutcome>> {
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
    fn one_job_runs_exactly_the_prefix_in_order() {
        let calls = Mutex::new(Vec::new());
        let inner = runner(&[4, 7]);
        let slots = WorkerPool { jobs: 1 }.run(10, &|i, stop| {
            calls.lock().unwrap().push(i);
            inner(i, stop)
        });
        assert_eq!(calls.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
        assert!(slots[..=4]
            .iter()
            .all(|s| s.as_ref().is_some_and(|o| o.complete)));
        assert!(slots[5..].iter().all(Option::is_none));
        assert_eq!(
            slots[4].as_ref().unwrap().violation.as_deref(),
            Some("combo 4")
        );
    }

    #[test]
    fn pool_matches_serial_prefix_for_all_job_counts() {
        for violations in [&[][..], &[0][..], &[4, 7][..], &[9][..]] {
            let reference = assembled_prefix(&serial_reference(10, &runner(violations)));
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
        let rounds = if cfg!(miri) { 2 } else { 20 };
        for _ in 0..rounds {
            let slots = WorkerPool { jobs: 8 }.run(16, &runner(&[5]));
            for slot in assembled_prefix(&slots) {
                assert!(slot.complete, "prefix combos must never be aborted");
            }
        }
    }

    #[test]
    fn strategy_kind_shim_builds_the_pool() {
        for jobs in [1, 2, 4] {
            let built = StrategyKind::Auto.build(jobs);
            assert_eq!(built.jobs, jobs);
            // Without violations every slot is deterministic; with them,
            // only the assembled prefix is.
            assert_eq!(
                built.run(10, &runner(&[])),
                WorkerPool { jobs }.run(10, &runner(&[]))
            );
            assert_eq!(
                assembled_prefix(&built.run(10, &runner(&[4, 7]))),
                assembled_prefix(&WorkerPool { jobs }.run(10, &runner(&[4, 7])))
            );
        }
    }
}

//! Breadth-first exhaustive exploration of a fixed system.
//!
//! Since the flat-arena migration the hot path works entirely in interned id
//! space (see [`crate::arena`]): a visited state is one row of `u32` slot
//! ids, a BFS step copies the parent row and rewrites at most three words,
//! and invariants observe states through the zero-materialization
//! [`StateView`]. The `Arc`-walking representation ([`McState`]) remains the
//! *semantic* definition of a state — violations, replays, and the
//! simulation/atomicity layers still use it — and the pre-arena BFS is kept
//! verbatim as [`Explorer::run_until_arc`], the differential baseline the
//! tests and benches compare against.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use fa_memory::{Action, ProcId, Process, StepInput, Wiring};

use crate::arena::{ArenaTables, SlotInterner, StateView, HALTED};
use crate::canon::{compose, invert, Canonicalizer};
use crate::checkpoint::crash_point;
use crate::store::{InMemoryVisited, TieredVisited, VisitedStore};
use crate::telemetry::ExplorerTelemetry;

/// A process's poised-action slot: `None` once the process has halted.
pub type PendingAction<P> = Option<Arc<Action<<P as Process>::Value, <P as Process>::Output>>>;

/// Legacy BFS arena entry: the state, its parent link (arena index plus the
/// process scheduled to reach it), and its depth.
type ArcArenaEntry<P> = (McState<P>, Option<(usize, ProcId)>, usize);

/// A global state of the model: register contents, process states, each
/// process's poised action, and the outputs produced so far.
///
/// Wirings are *not* part of the state — they are fixed per exploration; the
/// outer loop quantifies over them (see [`crate::wirings`]).
///
/// Every slot is individually reference-counted: stepping a state
/// shallow-clones the slot vectors (pointer copies) and deep-clones only the
/// one register/process/output slot the step mutates. The breadth-first hot
/// path no longer stores these at all (it stores id rows, see
/// [`crate::arena`]); `McState` is the materialized form used by violations,
/// replays, random walks, and the atomicity checker.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct McState<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Register contents in ground-truth order.
    pub memory: Vec<Arc<P::Value>>,
    /// Process states.
    pub procs: Vec<Arc<P>>,
    /// Poised action of each process; `None` once halted.
    pub pending: Vec<PendingAction<P>>,
    /// Outputs produced so far, per process, in order.
    pub outputs: Vec<Arc<Vec<P::Output>>>,
}

impl<P> McState<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Builds the initial state: every process poised on its first action,
    /// all registers holding `init`.
    pub fn initial(mut procs: Vec<P>, m: usize, init: P::Value) -> Self {
        let pending: Vec<PendingAction<P>> = procs
            .iter_mut()
            .map(|p| Some(Arc::new(p.step(StepInput::Start))))
            .collect();
        let n = procs.len();
        // All registers (and all empty output logs) deliberately share one
        // allocation each; steps copy-on-write the slot they mutate.
        let init = Arc::new(init);
        let no_outputs: Arc<Vec<P::Output>> = Arc::new(Vec::new());
        McState {
            memory: vec![init; m],
            procs: procs.into_iter().map(Arc::new).collect(),
            pending,
            outputs: vec![no_outputs; n],
        }
    }

    /// Whether every process has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.pending.iter().all(Option::is_none)
    }

    /// The live (non-halted) processes.
    #[must_use]
    pub fn live(&self) -> Vec<ProcId> {
        (0..self.procs.len())
            .filter(|&i| self.pending[i].is_some())
            .map(ProcId)
            .collect()
    }

    /// First output of each process (the one-shot task reading).
    #[must_use]
    pub fn first_outputs(&self) -> Vec<Option<P::Output>> {
        self.outputs.iter().map(|os| os.first().cloned()).collect()
    }

    /// The successor state reached by letting process `p` take its poised
    /// step, or `None` if `p` has halted.
    ///
    /// Accepts any slice of wiring handles (`&[Wiring]` or `&[Arc<Wiring>]`),
    /// so callers holding shared combos need not clone permutations.
    #[must_use]
    pub fn step<W: Borrow<Wiring>>(&self, p: ProcId, wirings: &[W]) -> Option<Self> {
        let action = self.pending[p.0].clone()?;
        let mut next = self.clone();
        match &*action {
            Action::Read { local } => {
                let g = wirings[p.0].borrow().global(*local);
                // Hand the process a shared handle to the register cell, not a
                // deep clone. The version is always 0 here: the model checker
                // must never let processes observe write multiplicity.
                let value = fa_memory::Versioned::from_shared(Arc::clone(&next.memory[g.0]), 0);
                let mut proc = (*next.procs[p.0]).clone();
                next.pending[p.0] = Some(Arc::new(proc.step(StepInput::ReadValue(value))));
                next.procs[p.0] = Arc::new(proc);
            }
            Action::Write { local, value } => {
                let g = wirings[p.0].borrow().global(*local);
                next.memory[g.0] = Arc::new(value.clone());
                let mut proc = (*next.procs[p.0]).clone();
                next.pending[p.0] = Some(Arc::new(proc.step(StepInput::Wrote)));
                next.procs[p.0] = Arc::new(proc);
            }
            Action::Output(o) => {
                let mut outs = (*next.outputs[p.0]).clone();
                outs.push(o.clone());
                next.outputs[p.0] = Arc::new(outs);
                let mut proc = (*next.procs[p.0]).clone();
                next.pending[p.0] = Some(Arc::new(proc.step(StepInput::OutputRecorded)));
                next.procs[p.0] = Arc::new(proc);
            }
            Action::Halt => {
                next.pending[p.0] = None;
            }
        }
        Some(next)
    }
}

/// Executes one PlusCal-label-granularity block of processor `p`: a single
/// write or output, or a complete scan (maximal run of consecutive reads).
///
/// Public so counterexample schedules found under
/// [`Explorer::with_coarse_scans`] can be replayed at the same granularity
/// they were produced at.
///
/// # Panics
///
/// Panics if `p` has halted in `state`.
pub fn step_block<P, W>(state: &McState<P>, p: ProcId, wirings: &[W]) -> McState<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
    W: Borrow<Wiring>,
{
    let was_read = matches!(state.pending[p.0].as_deref(), Some(Action::Read { .. }));
    let mut next = state.step(p, wirings).expect("live process steps");
    if was_read {
        while matches!(next.pending[p.0].as_deref(), Some(Action::Read { .. })) {
            next = next.step(p, wirings).expect("scan continues");
        }
    }
    next
}

/// The per-slot interning tables of the *legacy* (`Arc`-walking) BFS and its
/// key codec. A state's key is one `u32` per slot in slot order
/// (`memory ++ procs ++ pending ++ outputs`) — the exact row layout the
/// arena path stores directly; the legacy path derives it per state from the
/// `Arc` graph. Retained for [`Explorer::run_until_arc`].
#[derive(Debug)]
struct StateInterners<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    memory: SlotInterner<P::Value>,
    procs: SlotInterner<P>,
    pending: SlotInterner<Action<P::Value, P::Output>>,
    outputs: SlotInterner<Vec<P::Output>>,
}

impl<P> StateInterners<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    fn new(id_cap: u32) -> Self {
        StateInterners {
            memory: SlotInterner::new("memory", id_cap),
            procs: SlotInterner::new("procs", id_cap),
            pending: SlotInterner::new("pending", id_cap),
            outputs: SlotInterner::new("outputs", id_cap),
        }
    }

    /// Entries across all four slot tables — the live size of the interned
    /// value universe this exploration has touched.
    fn len_total(&self) -> usize {
        self.memory.len() + self.procs.len() + self.pending.len() + self.outputs.len()
    }

    /// The interned key of `state`. Given the `parent` state and its key,
    /// slots sharing the parent's allocation (`Arc::ptr_eq`) reuse the
    /// parent's id without rehashing — a BFS step rewrites at most three
    /// slots, so keying a successor costs one memcpy of the key plus deep
    /// hashes of only the slots the step actually changed.
    fn key(
        &mut self,
        state: &McState<P>,
        parent: Option<(&McState<P>, &[u32])>,
    ) -> Result<Box<[u32]>, crate::arena::IdSpaceExhausted> {
        let m = state.memory.len();
        let n = state.procs.len();
        let mut key = match parent {
            Some((_, pk)) => pk.to_vec(),
            None => vec![0u32; m + 3 * n],
        };
        for (i, cell) in state.memory.iter().enumerate() {
            if parent.map_or(true, |(ps, _)| !Arc::ptr_eq(cell, &ps.memory[i])) {
                key[i] = self.memory.intern_arc(cell)?;
            }
        }
        for (i, proc) in state.procs.iter().enumerate() {
            if parent.map_or(true, |(ps, _)| !Arc::ptr_eq(proc, &ps.procs[i])) {
                key[m + i] = self.procs.intern_arc(proc)?;
            }
        }
        for (i, slot) in state.pending.iter().enumerate() {
            let changed = parent.map_or(true, |(ps, _)| match (slot, &ps.pending[i]) {
                (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
                (None, None) => false,
                _ => true,
            });
            if changed {
                key[m + n + i] = match slot.as_ref() {
                    Some(a) => self.pending.intern_arc(a)?,
                    None => HALTED,
                };
            }
        }
        for (i, outs) in state.outputs.iter().enumerate() {
            if parent.map_or(true, |(ps, _)| !Arc::ptr_eq(outs, &ps.outputs[i])) {
                key[m + 2 * n + i] = self.outputs.intern_arc(outs)?;
            }
        }
        Ok(key.into_boxed_slice())
    }
}

/// A property violation: the offending state and a schedule reaching it from
/// the initial state.
#[derive(Clone, Debug)]
pub struct Violation<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Why the property failed.
    pub message: String,
    /// The violating state.
    pub state: McState<P>,
    /// The schedule (sequence of processor steps) reaching it.
    pub schedule: Vec<ProcId>,
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Distinct states visited.
    pub states: usize,
    /// States in which every process had halted.
    pub terminal_states: usize,
    /// `true` iff the whole reachable space was explored (no cap hit, no
    /// id-space exhaustion, no external abort).
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<Violation<P>>,
    /// Estimated full-space (un-quotiented) count of the visited states:
    /// the sum of visited orbit sizes. `Some` iff symmetry quotienting was
    /// enabled ([`Explorer::with_quotient`]); **exact** — not an estimate —
    /// when the exploration completed, since reachable orbits are then
    /// covered exactly once (see [`crate::canon`]).
    pub full_states_estimate: Option<u64>,
    /// Visited-set shards spilled to the disk tier (always 0 without a
    /// [`Explorer::with_visited_budget`] budget).
    pub spilled_shards: usize,
}

/// Breadth-first explorer of one system (fixed processes, wirings, initial
/// register value).
#[derive(Debug)]
pub struct Explorer<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    wirings: Vec<Arc<Wiring>>,
    initial: McState<P>,
    max_states: usize,
    max_depth: Option<usize>,
    coarse_scans: bool,
    id_cap: u32,
    telemetry: Option<ExplorerTelemetry>,
    quotient: bool,
    visited_budget: Option<usize>,
    corrupt_spill: bool,
    spill_dir: Option<std::path::PathBuf>,
    pressure: Option<Arc<std::sync::atomic::AtomicBool>>,
}

/// How many state expansions pass between polls of the external stop signal
/// in [`Explorer::run_until`]: frequent enough to abort promptly, rare
/// enough to keep the check off the hot path. Telemetry gauges are flushed
/// on the same boundary, so live sampling shares the existing slow path.
const STOP_POLL_INTERVAL: usize = 1024;

/// One in this many expansions is wall-clock timed for the `mc.dedup` span
/// (recorded scaled, so totals stay unbiased). Sampling keeps the two
/// `Instant::now()` calls off the per-expansion hot path — the <5% probe
/// overhead budget of EXPERIMENTS E22.
const DEDUP_SAMPLE_INTERVAL: usize = 64;

impl<P> Explorer<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Creates an explorer for `procs` over `m` registers initialized to
    /// `init`, with the given wirings and a state-count cap. Wirings may be
    /// owned (`Vec<Wiring>`) or shared (`Vec<Arc<Wiring>>`).
    ///
    /// # Panics
    ///
    /// Panics if the number of wirings differs from the number of processes
    /// or some wiring's domain is not `m`.
    pub fn new<W: Into<Arc<Wiring>>>(
        procs: Vec<P>,
        m: usize,
        init: P::Value,
        wirings: Vec<W>,
    ) -> Self {
        let wirings: Vec<Arc<Wiring>> = wirings.into_iter().map(Into::into).collect();
        assert_eq!(
            procs.len(),
            wirings.len(),
            "one wiring per process required"
        );
        for w in &wirings {
            assert_eq!(w.len(), m, "wiring domain must match the register count");
        }
        Explorer {
            wirings,
            initial: McState::initial(procs, m, init),
            max_states: 1_000_000,
            max_depth: None,
            coarse_scans: false,
            id_cap: HALTED,
            telemetry: None,
            quotient: false,
            visited_budget: None,
            corrupt_spill: false,
            spill_dir: None,
            pressure: None,
        }
    }

    /// Explores at PlusCal *label* granularity: a maximal run of consecutive
    /// reads by one processor (a scan) is a single atomic step, as in the
    /// paper's TLC spec ("the sequence of steps between any two labels is
    /// executed atomically", Figure 3). Writes and outputs remain single
    /// steps. Coarser grain, exponentially smaller state space — this is
    /// the configuration under which TLC exhausted the 3-processor system.
    #[must_use]
    pub fn with_coarse_scans(mut self) -> Self {
        self.coarse_scans = true;
        self
    }

    /// Caps the number of distinct states to visit (default one million).
    #[must_use]
    pub fn with_max_states(mut self, cap: usize) -> Self {
        self.max_states = cap;
        self
    }

    /// Caps the exploration depth (steps from the initial state). Needed for
    /// systems with unbounded state spaces, e.g. consensus timestamps.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Caps the per-table slot-id space (default: the full `u32` range;
    /// ids stay strictly below the cap, so the halted sentinel is never
    /// assigned). A test hook: tiny caps force the id-space exhaustion
    /// path, which must abort the exploration gracefully with
    /// `complete: false` instead of panicking inside a sweep worker.
    #[must_use]
    pub fn with_id_cap(mut self, cap: u32) -> Self {
        self.id_cap = cap;
        self
    }

    /// Attaches live-telemetry handles: the exploration then publishes
    /// state/frontier/visited-table/interner metrics on the stop-poll
    /// boundary and sampled dedup timings. Purely additive — attaching
    /// telemetry never changes the [`ExploreReport`].
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: ExplorerTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables symmetry-quotient exploration (see [`crate::canon`]): every
    /// stepped state is mapped to its canonical orbit representative under
    /// the system's processor/register symmetry group before dedup, so the
    /// visited set holds one row per orbit. The report then carries
    /// `full_states_estimate` (Σ orbit sizes — exact on complete runs) and
    /// a violation, if found, is translated back into a concrete schedule
    /// of the *real* (un-permuted) system before being reported. Sound only
    /// for invariants that are themselves symmetric under the group, which
    /// all the anonymity properties of this crate are.
    #[must_use]
    pub fn with_quotient(mut self) -> Self {
        self.quotient = true;
        self
    }

    /// Bounds the resident bytes of visited-set row storage: beyond the
    /// budget, cold full shards spill to a checksummed append-only temp
    /// file (see [`crate::store`]). Reports are identical to in-memory runs
    /// — the store only changes *where* rows live — except that spill I/O
    /// failures or corruption abort the exploration with `complete: false`.
    #[must_use]
    pub fn with_visited_budget(mut self, bytes: usize) -> Self {
        self.visited_budget = Some(bytes);
        self
    }

    /// Test hook: corrupts the first spilled visited shard so read-back
    /// must fail loudly. Only meaningful together with
    /// [`Explorer::with_visited_budget`].
    #[doc(hidden)]
    #[must_use]
    pub fn with_corrupted_spill_for_tests(mut self) -> Self {
        self.corrupt_spill = true;
        self
    }

    /// Routes visited-store spill shards into `dir` (a checkpoint
    /// directory) in durable mode — fsync on shard seal, loud failure if
    /// the directory vanishes — instead of the system temp dir. Only
    /// meaningful together with [`Explorer::with_visited_budget`].
    #[must_use]
    pub fn with_spill_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Attaches the memory watchdog's pressure flag: while raised, the
    /// tiered visited store force-spills every sealed shard regardless of
    /// budget. A no-op without [`Explorer::with_visited_budget`].
    #[must_use]
    pub fn with_memory_pressure(mut self, flag: Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.pressure = Some(flag);
        self
    }

    /// Initial-state symmetry classes: `classes[i] == classes[j]` iff
    /// processors `i` and `j` start value-equal (same process state, same
    /// poised action) — the processor-permutation constraint of the sound
    /// quotient group.
    pub(crate) fn initial_symmetry_classes(&self) -> Vec<usize> {
        let n = self.initial.procs.len();
        let mut classes = Vec::with_capacity(n);
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..n {
            let found = reps.iter().position(|&r| {
                self.initial.procs[r] == self.initial.procs[i]
                    && self.initial.pending[r] == self.initial.pending[i]
            });
            match found {
                Some(class) => classes.push(class),
                None => {
                    classes.push(reps.len());
                    reps.push(i);
                }
            }
        }
        classes
    }

    /// Explores breadth-first, checking `invariant` on every visited state
    /// (including the initial one). `invariant` returns `Err(message)` to
    /// report a violation, which aborts the search with a counterexample
    /// schedule.
    ///
    /// The invariant observes states through the borrow-only [`StateView`]
    /// (call [`StateView::to_state`] for a materialized [`McState`]); it is
    /// a shared (`Fn`) closure, so one instance can serve every worker of a
    /// parallel sweep by reference.
    pub fn run<F>(&self, invariant: F) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
    {
        self.run_until(invariant, || false)
    }

    /// Like [`Explorer::run`], but polls `stop` periodically (every
    /// [`STOP_POLL_INTERVAL`] expansions); when it returns `true` the
    /// exploration aborts with `complete: false` and no violation. Parallel
    /// sweeps use this to cancel workers made redundant by an
    /// earlier-indexed violation.
    ///
    /// This is the flat-arena BFS: states are id rows in one contiguous
    /// `Vec<u32>` (see [`crate::arena`]), stepping patches a copied row in
    /// place, and the visited set hashes rows directly — no per-state `Arc`
    /// traffic. Visited states, their order, and the report are identical
    /// to the legacy [`Explorer::run_until_arc`] path, which unlike this
    /// one keeps expanding after the state cap is reached.
    pub fn run_until<F, S>(&self, invariant: F, stop: S) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
        S: Fn() -> bool,
    {
        let w = self.initial.memory.len() + 3 * self.initial.procs.len();
        match self.visited_budget {
            None => self.bfs(&invariant, &stop, InMemoryVisited::new(w)),
            Some(budget) => {
                let mut store = TieredVisited::new(w, budget);
                if let Some(dir) = &self.spill_dir {
                    store = store.with_spill_dir(dir.clone());
                }
                if let Some(flag) = &self.pressure {
                    store.set_pressure(Arc::clone(flag));
                }
                if self.corrupt_spill {
                    store.corrupt_next_spill_for_tests();
                }
                self.bfs(&invariant, &stop, store)
            }
        }
    }

    /// The flat-arena BFS, generic over visited-set storage and optionally
    /// quotienting by the system's symmetry group. `run_until` monomorphizes
    /// this twice (in-memory and tiered); the store only decides where rows
    /// live, never which ids exist, so both instantiations produce identical
    /// reports. Store failures (spill-tier I/O errors or corruption) abort
    /// the exploration with `complete: false` — exactly like id-space
    /// exhaustion — and are never treated as "row not seen".
    #[allow(clippy::too_many_lines)]
    fn bfs<V, F, S>(&self, invariant: &F, stop: &S, mut store: V) -> ExploreReport<P>
    where
        V: VisitedStore,
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
        S: Fn() -> bool,
    {
        let m = self.initial.memory.len();
        let n = self.initial.procs.len();
        let w = m + 3 * n;
        let mut tables = ArenaTables::<P>::new(m, n, self.id_cap);
        let canon = self
            .quotient
            .then(|| Canonicalizer::for_system(&self.initial_symmetry_classes(), &self.wirings));
        // With only the identity in the group, canonicalization is the
        // identity map: skip it entirely so the exploration is instruction-
        // for-instruction the non-quotient one (reports then agree exactly,
        // which the differential suite asserts).
        let nontrivial = canon.as_ref().is_some_and(|c| !c.is_trivial());
        // Parent links, depths, and the group element mapping each stepped
        // row onto the canonical row actually stored (identity when not
        // quotienting) ride in parallel vectors indexed by state id.
        let mut parents: Vec<Option<(usize, ProcId)>> = Vec::new();
        let mut depths: Vec<u32> = Vec::new();
        let mut gelems: Vec<u32> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut terminal = 0usize;
        let mut complete = true;
        let mut since_poll = 0usize;
        // Σ orbit sizes of visited canonical states — the full-space total
        // reported as `full_states_estimate` (exact on complete runs).
        let mut estimate = 0u64;
        // Live-telemetry bookkeeping: states are published as deltas (so the
        // shared counter stays globally monotone across combos and workers),
        // gauges on the stop-poll boundary and at every exit.
        let mut expansions = 0usize;
        let mut flushed_states = 0usize;
        let flush_telemetry = |flushed: &mut usize,
                               visited: usize,
                               depth: usize,
                               interner_entries: usize,
                               store_bytes: usize,
                               spilled: usize| {
            if let Some(tel) = &self.telemetry {
                tel.states.add((visited - *flushed) as u64);
                *flushed = visited;
                tel.frontier_depth.set(depth as u64);
                tel.visited_entries.set(visited as u64);
                // Estimate, not an allocator measurement: resident row
                // payload plus parent/depth/index bookkeeping per state.
                tel.visited_bytes.set(store_bytes as u64);
                tel.visited_spilled.set(spilled as u64);
                tel.interner_entries.set(interner_entries as u64);
            }
        };

        let make_violation = |tables: &ArenaTables<P>,
                              parents: &[Option<(usize, ProcId)>],
                              gelems: &[u32],
                              at: usize,
                              vrow: &[u32],
                              message: String| {
            self.assemble_violation(
                tables,
                canon.as_ref().filter(|_| nontrivial),
                invariant,
                parents,
                gelems,
                at,
                vrow,
                message,
            )
        };

        // Every abort without a violation (stop signal, id-space exhaustion,
        // store error) publishes final gauges and reports what was visited,
        // honestly incomplete.
        let bail = |flushed: &mut usize,
                    store: &V,
                    interner_entries: usize,
                    depth: usize,
                    terminal: usize,
                    estimate: u64| {
            flush_telemetry(
                flushed,
                store.len(),
                depth,
                interner_entries,
                store.approx_bytes(),
                store.spilled_shards(),
            );
            ExploreReport {
                states: store.len(),
                terminal_states: terminal,
                complete: false,
                violation: None,
                full_states_estimate: self.quotient.then_some(estimate),
                spilled_shards: store.spilled_shards(),
            }
        };
        // The stop-poll boundary, every STOP_POLL_INTERVAL units of work:
        // publish gauges, pass the crash-injection site, then ask whether
        // to stop.
        let poll_stop = |flushed: &mut usize, store: &V, interner_entries: usize, depth: usize| {
            flush_telemetry(
                flushed,
                store.len(),
                depth,
                interner_entries,
                store.approx_bytes(),
                store.spilled_shards(),
            );
            crash_point("explorer.poll");
            stop()
        };

        let Ok(k0) = tables.encode(&self.initial) else {
            // Not even the initial state fits the injected id space.
            return ExploreReport {
                states: 0,
                terminal_states: 0,
                complete: false,
                violation: None,
                full_states_estimate: self.quotient.then_some(0),
                spilled_shards: 0,
            };
        };
        // The initial state is a fixed point of the group (uniform memory,
        // class-preserving σ, empty outputs), so canonicalizing it is a
        // no-op with orbit 1 — run it anyway for uniform accounting.
        let (root_row, root_orbit) = if nontrivial {
            let c = canon.as_ref().expect("nontrivial implies quotienting");
            let mut out = vec![0u32; w];
            let (_, orbit) = c.canonicalize(&k0, &mut out);
            (out, orbit)
        } else {
            (k0.into_vec(), 1)
        };
        estimate += root_orbit;
        if store.insert(&root_row).is_err() {
            return bail(
                &mut flushed_states,
                &store,
                tables.len_total(),
                0,
                0,
                estimate,
            );
        }
        parents.push(None);
        depths.push(0);
        gelems.push(0);
        queue.push_back(0);
        if let Err(message) = invariant(&StateView::new(&tables, &root_row)) {
            flush_telemetry(
                &mut flushed_states,
                1,
                0,
                tables.len_total(),
                store.approx_bytes(),
                store.spilled_shards(),
            );
            return ExploreReport {
                states: 1,
                terminal_states: usize::from(self.initial.all_halted()),
                complete: true,
                violation: Some(make_violation(
                    &tables, &parents, &gelems, 0, &root_row, message,
                )),
                full_states_estimate: self.quotient.then_some(estimate),
                spilled_shards: store.spilled_shards(),
            };
        }

        // Combos smaller than the poll interval would otherwise never
        // observe the probe at all — one entry check keeps graceful aborts
        // (signals, memory watchdog) responsive on any combo size.
        if stop() {
            return bail(
                &mut flushed_states,
                &store,
                tables.len_total(),
                0,
                terminal,
                estimate,
            );
        }

        let mut cur_row = vec![0u32; w];
        let mut scratch = vec![0u32; w];
        let mut canon_buf = vec![0u32; w];
        // Set when a *new* successor is refused at `max_states`. From then
        // on no successor can be inserted, invariant-checked or
        // orbit-counted, so expanding is wasted work: the rest of the queue
        // is only drained to count terminal states. Each drained pop counts
        // toward the stop poll, so aborts and crash sites stay responsive.
        let mut capped = false;
        while let Some(cur) = queue.pop_front() {
            let depth = depths[cur] as usize;
            if capped {
                since_poll += 1;
                if since_poll >= STOP_POLL_INTERVAL {
                    since_poll = 0;
                    if poll_stop(&mut flushed_states, &store, tables.len_total(), depth) {
                        return bail(
                            &mut flushed_states,
                            &store,
                            tables.len_total(),
                            depth,
                            terminal,
                            estimate,
                        );
                    }
                }
            }
            if store.read_row(cur, &mut cur_row).is_err() {
                return bail(
                    &mut flushed_states,
                    &store,
                    tables.len_total(),
                    depth,
                    terminal,
                    estimate,
                );
            }
            if cur_row[m + n..m + 2 * n].iter().all(|&id| id == HALTED) {
                terminal += 1;
                continue;
            }
            if capped {
                continue;
            }
            if let Some(maxd) = self.max_depth {
                if depth >= maxd {
                    complete = false;
                    continue;
                }
            }
            for pi in 0..n {
                if cur_row[m + n + pi] == HALTED {
                    continue;
                }
                let p = ProcId(pi);
                since_poll += 1;
                if since_poll >= STOP_POLL_INTERVAL {
                    since_poll = 0;
                    if poll_stop(&mut flushed_states, &store, tables.len_total(), depth) {
                        return bail(
                            &mut flushed_states,
                            &store,
                            tables.len_total(),
                            depth,
                            terminal,
                            estimate,
                        );
                    }
                }
                scratch.copy_from_slice(&cur_row);
                let stepped = if self.coarse_scans {
                    tables.step_block_row(&mut scratch, p, &self.wirings)
                } else {
                    tables.step_row(&mut scratch, p, &self.wirings)
                };
                if stepped.is_err() {
                    // Id-space exhaustion: abort gracefully, like hitting the
                    // state cap — the report stays honest (`complete: false`)
                    // and the sweep worker never panics.
                    return bail(
                        &mut flushed_states,
                        &store,
                        tables.len_total(),
                        depth,
                        terminal,
                        estimate,
                    );
                }
                // One expansion in DEDUP_SAMPLE_INTERVAL is wall-clock timed
                // through canonicalization + hashing + visited lookup;
                // recorded scaled so the span total stays unbiased.
                expansions += 1;
                let dedup_start = (self.telemetry.is_some()
                    && expansions % DEDUP_SAMPLE_INTERVAL == 0)
                    .then(Instant::now);
                let (gidx, orbit) = if nontrivial {
                    let c = canon.as_ref().expect("nontrivial implies quotienting");
                    let (g, orb) = c.canonicalize(&scratch, &mut canon_buf);
                    // Keep the canonical row in `scratch`: dedup, insertion,
                    // and the invariant all see the representative.
                    std::mem::swap(&mut scratch, &mut canon_buf);
                    (g, orb)
                } else {
                    (0u32, 1u64)
                };
                let seen = store.lookup(&scratch);
                if let (Some(started), Some(tel)) = (dedup_start, &self.telemetry) {
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    tel.dedup
                        .record_sampled_ns(ns, DEDUP_SAMPLE_INTERVAL as u64);
                }
                match seen {
                    Ok(Some(_)) => continue,
                    Ok(None) => {}
                    Err(_) => {
                        return bail(
                            &mut flushed_states,
                            &store,
                            tables.len_total(),
                            depth,
                            terminal,
                            estimate,
                        )
                    }
                }
                if store.len() >= self.max_states {
                    complete = false;
                    capped = true;
                    break;
                }
                let Ok(id) = store.insert(&scratch) else {
                    return bail(
                        &mut flushed_states,
                        &store,
                        tables.len_total(),
                        depth,
                        terminal,
                        estimate,
                    );
                };
                estimate += orbit;
                parents.push(Some((cur, p)));
                depths.push(depths[cur] + 1);
                gelems.push(gidx);
                if let Err(message) = invariant(&StateView::new(&tables, &scratch)) {
                    flush_telemetry(
                        &mut flushed_states,
                        store.len(),
                        depth,
                        tables.len_total(),
                        store.approx_bytes(),
                        store.spilled_shards(),
                    );
                    return ExploreReport {
                        states: store.len(),
                        terminal_states: terminal,
                        complete: false,
                        violation: Some(make_violation(
                            &tables, &parents, &gelems, id, &scratch, message,
                        )),
                        full_states_estimate: self.quotient.then_some(estimate),
                        spilled_shards: store.spilled_shards(),
                    };
                }
                queue.push_back(id);
            }
        }

        flush_telemetry(
            &mut flushed_states,
            store.len(),
            0,
            tables.len_total(),
            store.approx_bytes(),
            store.spilled_shards(),
        );
        ExploreReport {
            states: store.len(),
            terminal_states: terminal,
            complete,
            violation: None,
            full_states_estimate: self.quotient.then_some(estimate),
            spilled_shards: store.spilled_shards(),
        }
    }

    /// Builds the [`Violation`] for state `at` (stored as row `vrow`) from
    /// the parent-edge arrays: walks the edges back to the root, and — when
    /// `canon` carries a nontrivial quotient group — untranslates the
    /// canonical run into a concrete schedule and state of the real system.
    #[allow(clippy::too_many_arguments)]
    fn assemble_violation<F>(
        &self,
        tables: &ArenaTables<P>,
        canon: Option<&Canonicalizer>,
        invariant: &F,
        parents: &[Option<(usize, ProcId)>],
        gelems: &[u32],
        at: usize,
        vrow: &[u32],
        message: String,
    ) -> Violation<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
    {
        let m = self.initial.memory.len();
        let n = self.initial.procs.len();
        let w = m + 3 * n;
        let mut edges: Vec<(ProcId, u32)> = Vec::new();
        let mut cur = at;
        while let Some((parent, p)) = parents[cur] {
            edges.push((p, gelems[cur]));
            cur = parent;
        }
        edges.reverse();
        let Some(c) = canon else {
            return Violation {
                message,
                state: tables.decode(vrow),
                schedule: edges.into_iter().map(|(p, _)| p).collect(),
            };
        };
        // Quotiented search: each stored row v_j is g_j · step(v_{j-1},
        // p_j). Let B_j = g_j ∘ ... ∘ g_1; then u_j = B_j⁻¹ · v_j is a
        // *real* execution of the un-permuted system reached by
        // scheduling q_j = σ_{B_{j-1}}⁻¹(p_j) (by equivariance,
        // step(g·s, σ_g(p)) = g · step(s, p)). Walk root→violation
        // maintaining B⁻¹ to emit the concrete schedule, then gather the
        // real violating state u = B⁻¹ · v.
        let mut inv_proc: Vec<usize> = (0..n).collect();
        let mut inv_reg: Vec<usize> = (0..m).collect();
        let mut schedule = Vec::with_capacity(edges.len());
        for (p, g) in edges {
            schedule.push(ProcId(inv_proc[p.0]));
            let (gp, gr) = c.elem_perms(g as usize);
            inv_proc = compose(&inv_proc, &invert(gp));
            inv_reg = compose(&inv_reg, &invert(gr));
        }
        let fwd_proc = invert(&inv_proc);
        let fwd_reg = invert(&inv_reg);
        let mut urow = vec![0u32; w];
        for (j, slot) in urow[..m].iter_mut().enumerate() {
            *slot = vrow[fwd_reg[j]];
        }
        for section in 0..3 {
            let base = m + section * n;
            for (j, &src) in fwd_proc.iter().enumerate() {
                urow[base + j] = vrow[base + src];
            }
        }
        // The canonical row tripped the invariant; for a symmetric
        // invariant its real preimage trips it too — re-derive the
        // message there so it matches what a schedule replay observes.
        let message = match invariant(&StateView::new(tables, &urow)) {
            Err(real) => real,
            Ok(()) => message,
        };
        Violation {
            message,
            state: tables.decode(&urow),
            schedule,
        }
    }

    /// Former entry point of the removed intra-combo parallel engine: runs
    /// [`Explorer::run`] and ignores `workers`. Kept only because the
    /// benchmark harness (`perfbench`) still calls it; it goes with the
    /// next change to the benchmark, which drops that call.
    #[doc(hidden)]
    pub fn run_intra<F>(&self, invariant: F, _workers: usize) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
    {
        self.run(invariant)
    }

    /// The pre-arena BFS over `Arc`-shared [`McState`]s, kept verbatim as
    /// the differential baseline: tests assert its reports are identical to
    /// [`Explorer::run_until`]'s, and the E23 bench measures the arena
    /// speedup against it. Not part of the supported API surface.
    #[doc(hidden)]
    pub fn run_arc<F>(&self, invariant: F) -> ExploreReport<P>
    where
        F: Fn(&McState<P>) -> Result<(), String>,
    {
        self.run_until_arc(invariant, || false)
    }

    /// See [`Explorer::run_arc`].
    #[doc(hidden)]
    #[allow(clippy::too_many_lines)]
    pub fn run_until_arc<F, S>(&self, invariant: F, stop: S) -> ExploreReport<P>
    where
        F: Fn(&McState<P>) -> Result<(), String>,
        S: Fn() -> bool,
    {
        fn hash_key(k: &[u32]) -> u64 {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        }
        let mut interners = StateInterners::<P>::new(self.id_cap);
        let mut arena: Vec<ArcArenaEntry<P>> = Vec::new();
        let mut keys: Vec<Box<[u32]>> = Vec::new();
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut terminal = 0usize;
        let mut complete = true;
        let mut since_poll = 0usize;
        let mut expansions = 0usize;
        let mut flushed_states = 0usize;
        let key_words = self.initial.memory.len() + 3 * self.initial.procs.len();
        let flush_telemetry =
            |flushed: &mut usize, visited: usize, depth: usize, interner_entries: usize| {
                if let Some(tel) = &self.telemetry {
                    tel.states.add((visited - *flushed) as u64);
                    *flushed = visited;
                    tel.frontier_depth.set(depth as u64);
                    tel.visited_entries.set(visited as u64);
                    tel.visited_bytes
                        .set((visited * (key_words * 12 + 170)) as u64);
                    tel.interner_entries.set(interner_entries as u64);
                }
            };

        let make_violation = |arena: &[ArcArenaEntry<P>], at: usize, message: String| {
            let mut schedule = Vec::new();
            let mut cur = at;
            while let Some((parent, p)) = arena[cur].1 {
                schedule.push(p);
                cur = parent;
            }
            schedule.reverse();
            Violation {
                message,
                state: arena[at].0.clone(),
                schedule,
            }
        };

        arena.push((self.initial.clone(), None, 0));
        let Ok(k0) = interners.key(&self.initial, None) else {
            return ExploreReport {
                states: 0,
                terminal_states: 0,
                complete: false,
                violation: None,
                full_states_estimate: None,
                spilled_shards: 0,
            };
        };
        index.entry(hash_key(&k0)).or_default().push(0);
        keys.push(k0);
        queue.push_back(0);
        if let Err(message) = invariant(&self.initial) {
            flush_telemetry(&mut flushed_states, 1, 0, interners.len_total());
            return ExploreReport {
                states: 1,
                terminal_states: usize::from(self.initial.all_halted()),
                complete: true,
                violation: Some(make_violation(&arena, 0, message)),
                full_states_estimate: None,
                spilled_shards: 0,
            };
        }

        while let Some(cur) = queue.pop_front() {
            // Cheap clone: McState slots are Arc-shared with the arena copy.
            let (state, _, depth) = arena[cur].clone();
            if state.all_halted() {
                terminal += 1;
                continue;
            }
            if let Some(maxd) = self.max_depth {
                if depth >= maxd {
                    complete = false;
                    continue;
                }
            }
            for p in state.live() {
                since_poll += 1;
                if since_poll >= STOP_POLL_INTERVAL {
                    since_poll = 0;
                    flush_telemetry(
                        &mut flushed_states,
                        arena.len(),
                        depth,
                        interners.len_total(),
                    );
                    if stop() {
                        return ExploreReport {
                            states: arena.len(),
                            terminal_states: terminal,
                            complete: false,
                            violation: None,
                            full_states_estimate: None,
                            spilled_shards: 0,
                        };
                    }
                }
                let next = if self.coarse_scans {
                    step_block(&state, p, &self.wirings)
                } else {
                    state.step(p, &self.wirings).expect("live process steps")
                };
                expansions += 1;
                let dedup_start = (self.telemetry.is_some()
                    && expansions % DEDUP_SAMPLE_INTERVAL == 0)
                    .then(Instant::now);
                let Ok(nk) = interners.key(&next, Some((&state, &keys[cur]))) else {
                    // Graceful id-space-exhaustion abort, as on the arena
                    // path.
                    flush_telemetry(
                        &mut flushed_states,
                        arena.len(),
                        depth,
                        interners.len_total(),
                    );
                    return ExploreReport {
                        states: arena.len(),
                        terminal_states: terminal,
                        complete: false,
                        violation: None,
                        full_states_estimate: None,
                        spilled_shards: 0,
                    };
                };
                let slot = index.entry(hash_key(&nk)).or_default();
                let duplicate = slot.iter().any(|&i| keys[i] == nk);
                if let (Some(started), Some(tel)) = (dedup_start, &self.telemetry) {
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    tel.dedup
                        .record_sampled_ns(ns, DEDUP_SAMPLE_INTERVAL as u64);
                }
                if duplicate {
                    continue;
                }
                if arena.len() >= self.max_states {
                    complete = false;
                    continue;
                }
                let id = arena.len();
                slot.push(id);
                keys.push(nk);
                arena.push((next, Some((cur, p)), depth + 1));
                if let Err(message) = invariant(&arena[id].0) {
                    flush_telemetry(
                        &mut flushed_states,
                        arena.len(),
                        depth,
                        interners.len_total(),
                    );
                    return ExploreReport {
                        states: arena.len(),
                        terminal_states: terminal,
                        complete: false,
                        violation: Some(make_violation(&arena, id, message)),
                        full_states_estimate: None,
                        spilled_shards: 0,
                    };
                }
                queue.push_back(id);
            }
        }

        flush_telemetry(&mut flushed_states, arena.len(), 0, interners.len_total());
        ExploreReport {
            states: arena.len(),
            terminal_states: terminal,
            complete,
            violation: None,
            full_states_estimate: None,
            spilled_shards: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes its input to local register 0, then halts.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct OneWrite {
        input: u8,
        wrote: bool,
    }
    impl Process for OneWrite {
        type Value = u8;
        type Output = u8;
        fn step(&mut self, _i: StepInput<u8>) -> Action<u8, u8> {
            if self.wrote {
                Action::Halt
            } else {
                self.wrote = true;
                Action::write(0, self.input)
            }
        }
    }

    #[test]
    fn explores_all_interleavings_of_two_writers() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        );
        let report = explorer.run(|_| Ok(()));
        assert!(report.complete);
        assert!(report.violation.is_none());
        // States: both orders of two writes + halts collapse by dedup; the
        // space is tiny but must include the two distinct final memories.
        assert!(report.states >= 5, "states = {}", report.states);
        assert!(report.terminal_states >= 2);
    }

    #[test]
    fn invariant_violation_returns_schedule() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        );
        // "Register never holds 2" is violated as soon as p1 writes.
        let report = explorer.run(|s| {
            if *s.memory(0) == 2 {
                Err("register holds 2".to_string())
            } else {
                Ok(())
            }
        });
        let v = report.violation.expect("violation must be found");
        assert_eq!(*v.state.memory[0], 2);
        // The counterexample schedule must replay to the violating state.
        assert!(!v.schedule.is_empty());
        assert_eq!(*v.schedule.last().unwrap(), ProcId(1));
    }

    #[test]
    fn state_cap_marks_incomplete() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        )
        .with_max_states(2);
        let report = explorer.run(|_| Ok(()));
        assert!(!report.complete);
    }

    #[test]
    fn depth_cap_marks_incomplete() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        )
        .with_max_depth(1);
        let report = explorer.run(|_| Ok(()));
        assert!(!report.complete);
    }

    #[test]
    fn tiny_id_cap_aborts_gracefully_instead_of_panicking() {
        // The two-writer space needs more than two distinct process values
        // per table; a cap of 2 must surface as an honest incomplete report
        // — the legacy codepath used to panic here
        // ("distinct slot values exceed the u32 id space").
        let mk = || {
            Explorer::new(
                vec![
                    OneWrite {
                        input: 1,
                        wrote: false,
                    },
                    OneWrite {
                        input: 2,
                        wrote: false,
                    },
                ],
                1,
                0u8,
                vec![Wiring::identity(1), Wiring::identity(1)],
            )
            .with_id_cap(2)
        };
        let report = mk().run(|_| Ok(()));
        assert!(!report.complete, "exhaustion must mark incompleteness");
        assert!(report.violation.is_none());
        // The legacy differential path takes the same graceful abort.
        let legacy = mk().run_arc(|_| Ok(()));
        assert!(!legacy.complete);
        assert!(legacy.violation.is_none());
    }

    #[test]
    fn id_cap_too_small_for_the_initial_state_reports_zero_states() {
        let explorer = Explorer::new(
            vec![
                OneWrite {
                    input: 1,
                    wrote: false,
                },
                OneWrite {
                    input: 2,
                    wrote: false,
                },
            ],
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        )
        .with_id_cap(1);
        let report = explorer.run(|_| Ok(()));
        assert!(!report.complete);
        assert_eq!(report.states, 0);
    }

    #[test]
    fn immediate_stop_aborts_incomplete() {
        use fa_core::SnapshotProcess;
        // A space large enough to cross the poll interval.
        let procs: Vec<SnapshotProcess<u8>> =
            vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
        let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
        let full =
            Explorer::new(procs.clone(), 2, Default::default(), wirings.clone()).run(|_| Ok(()));
        assert!(full.complete);
        let aborted =
            Explorer::new(procs, 2, Default::default(), wirings).run_until(|_| Ok(()), || true);
        assert!(!aborted.complete);
        assert!(aborted.violation.is_none());
        assert!(aborted.states < full.states, "abort must cut the search");
    }

    #[test]
    fn coarse_scans_shrink_the_state_space() {
        use fa_core::SnapshotProcess;
        let procs: Vec<SnapshotProcess<u8>> =
            vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
        let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
        let fine =
            Explorer::new(procs.clone(), 2, Default::default(), wirings.clone()).run(|_| Ok(()));
        let coarse = Explorer::new(procs, 2, Default::default(), wirings)
            .with_coarse_scans()
            .run(|_| Ok(()));
        assert!(fine.complete && coarse.complete);
        assert!(
            coarse.states < fine.states,
            "coarse {} !< fine {}",
            coarse.states,
            fine.states
        );
        assert!(coarse.violation.is_none() && fine.violation.is_none());
    }

    #[test]
    fn counterexample_schedule_replays() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Wiring::identity(1), Wiring::identity(1)];
        let explorer = Explorer::new(procs.clone(), 1, 0u8, wirings.clone());
        let report = explorer.run(|s| {
            if s.all_halted() && *s.memory(0) == 1 {
                Err("final memory is 1".into())
            } else {
                Ok(())
            }
        });
        let v = report.violation.expect("some interleaving ends with 1");
        // Replay the schedule from the initial state.
        let mut state = McState::initial(procs, 1, 0u8);
        for &p in &v.schedule {
            state = state.step(p, &wirings).expect("schedule is valid");
        }
        assert_eq!(state, v.state);
    }

    #[test]
    fn coarse_counterexample_replays_via_step_block() {
        use fa_core::SnapshotProcess;
        // A violation schedule produced under coarse (label-granularity)
        // exploration is a sequence of *blocks*; replaying it step-by-step
        // would diverge, replaying it block-by-block must land exactly on
        // the violating state.
        let procs: Vec<SnapshotProcess<u8>> =
            vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
        let wirings = vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)];
        let explorer = Explorer::new(procs.clone(), 2, Default::default(), wirings.clone())
            .with_coarse_scans();
        // "No process ever outputs" fails once the first snapshot returns.
        let report = explorer.run(|s| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("a snapshot was output".into())
            } else {
                Ok(())
            }
        });
        let v = report
            .violation
            .expect("snapshots terminate, so some output");
        assert!(!v.schedule.is_empty());
        let mut state = McState::initial(procs, 2, Default::default());
        for &p in &v.schedule {
            state = step_block(&state, p, &wirings);
        }
        assert_eq!(state, v.state, "block replay must reach the violation");
        assert!(state.first_outputs().iter().any(Option::is_some));
    }

    #[test]
    #[allow(clippy::needless_borrows_for_generic_args)] // the borrow is the point
    fn shared_invariant_can_be_passed_by_reference() {
        // One `Fn` closure instance must be reusable across explorer runs —
        // the shape the parallel sweep relies on.
        fn invariant(s: &StateView<'_, OneWrite>) -> Result<(), String> {
            if *s.memory(0) == 99 {
                Err("impossible".into())
            } else {
                Ok(())
            }
        }
        for _ in 0..2 {
            let procs = vec![
                OneWrite {
                    input: 1,
                    wrote: false,
                },
                OneWrite {
                    input: 2,
                    wrote: false,
                },
            ];
            let explorer = Explorer::new(
                procs,
                1,
                0u8,
                vec![Wiring::identity(1), Wiring::identity(1)],
            );
            let report = explorer.run(&invariant);
            assert!(report.complete);
            assert!(report.violation.is_none());
        }
    }

    #[test]
    fn interned_dedup_merges_value_equal_states_across_allocations() {
        let mk = |a: u8, b: u8| {
            Explorer::new(
                vec![
                    OneWrite {
                        input: a,
                        wrote: false,
                    },
                    OneWrite {
                        input: b,
                        wrote: false,
                    },
                ],
                1,
                0u8,
                vec![Wiring::identity(1), Wiring::identity(1)],
            )
            .run(|_| Ok(()))
        };
        let same = mk(1, 1);
        let distinct = mk(1, 2);
        assert!(same.complete && distinct.complete);
        // Equal inputs make the two write orders converge on value-equal
        // states reached through *distinct* step paths; the interned tables
        // must still merge them (ids are by value, not provenance).
        assert!(
            same.states < distinct.states,
            "{} !< {}",
            same.states,
            distinct.states
        );
    }

    #[test]
    fn capped_drain_still_polls_stop_and_progress() {
        use fa_core::SnapshotProcess;
        use fa_obs::MetricRegistry;
        use std::cell::Cell;

        let mk = || {
            let procs: Vec<SnapshotProcess<u8>> = [1, 2, 3]
                .iter()
                .map(|&x| SnapshotProcess::new(x, 3))
                .collect();
            Explorer::new(
                procs,
                3,
                Default::default(),
                vec![
                    Wiring::identity(3),
                    Wiring::cyclic_shift(3, 1),
                    Wiring::cyclic_shift(3, 2),
                ],
            )
            .with_coarse_scans()
        };
        // Far below the reachable space, with a wide BFS frontier queued.
        let cap = 20_000;
        // Polls that see a full store can only come from the drain (or the
        // one poll that may land exactly as the store fills). Each poll
        // flushes `mc.states_total` just before asking `stop`, so the
        // counter tells the closure how full the store is.
        let run_capped = |stop_after: usize| {
            let registry = MetricRegistry::new();
            let states = registry.counter("mc.states_total");
            let polls_at_cap = Cell::new(0usize);
            let report = mk()
                .with_max_states(cap)
                .with_telemetry(ExplorerTelemetry::from_registry(&registry))
                .run_until(
                    |_| Ok(()),
                    || {
                        if states.get() == cap as u64 {
                            polls_at_cap.set(polls_at_cap.get() + 1);
                        }
                        polls_at_cap.get() >= stop_after
                    },
                );
            (report, polls_at_cap.get())
        };
        let (drained, polls) = run_capped(usize::MAX);
        assert!(polls >= 2, "the drain polled only {polls} times at the cap");
        assert_eq!(drained.states, cap);
        assert!(!drained.complete);
        // A stop raised mid-drain is honored at the very poll that sees it.
        let (stopped, stopped_polls) = run_capped(2);
        assert_eq!(stopped_polls, 2);
        assert_eq!(stopped.states, cap);
        assert!(!stopped.complete);
    }

    #[test]
    fn telemetry_is_exact_and_never_changes_the_report() {
        use fa_core::SnapshotProcess;
        use fa_obs::MetricRegistry;

        let mk = || {
            let procs: Vec<SnapshotProcess<u8>> =
                vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
            Explorer::new(
                procs,
                2,
                Default::default(),
                vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)],
            )
        };
        let plain = mk().run(|_| Ok(()));

        let registry = MetricRegistry::new();
        let tel = ExplorerTelemetry::from_registry(&registry);
        let probed = mk().with_telemetry(tel.clone()).run(|_| Ok(()));

        // The deterministic report is untouched by telemetry.
        assert_eq!(probed.states, plain.states);
        assert_eq!(probed.terminal_states, plain.terminal_states);
        assert_eq!(probed.complete, plain.complete);

        // The live counter converges on the exact state count, and the
        // gauges hold the final table sizes.
        assert_eq!(tel.states.get(), plain.states as u64);
        assert_eq!(tel.visited_entries.get(), plain.states as u64);
        assert!(tel.visited_bytes.get() > 0);
        assert!(tel.interner_entries.get() > 0);

        // A second probed run accumulates onto the same counter (monotone
        // across combos), rather than resetting it.
        let again = mk().with_telemetry(tel.clone()).run(|_| Ok(()));
        assert_eq!(again.states, plain.states);
        assert_eq!(tel.states.get(), 2 * plain.states as u64);
    }

    #[test]
    fn arena_and_arc_paths_report_identically() {
        use fa_core::SnapshotProcess;
        // The whole point of keeping `run_until_arc`: same states, same
        // order, same verdicts. (The dedicated differential suite covers the
        // harness level; this is the explorer-level smoke.)
        let mk = || {
            let procs: Vec<SnapshotProcess<u8>> =
                vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
            Explorer::new(
                procs,
                2,
                Default::default(),
                vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)],
            )
        };
        let arena = mk().run(|_| Ok(()));
        let arc = mk().run_arc(|_| Ok(()));
        assert_eq!(arena.states, arc.states);
        assert_eq!(arena.terminal_states, arc.terminal_states);
        assert_eq!(arena.complete, arc.complete);

        // And with a violating invariant: same state, same schedule.
        let arena = mk().run(|s| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("output".into())
            } else {
                Ok(())
            }
        });
        let arc = mk().run_arc(|s| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("output".into())
            } else {
                Ok(())
            }
        });
        let (va, vb) = (arena.violation.unwrap(), arc.violation.unwrap());
        assert_eq!(arena.states, arc.states);
        assert_eq!(va.state, vb.state);
        assert_eq!(va.schedule, vb.schedule);
        assert_eq!(va.message, vb.message);
    }

    #[test]
    fn step_shares_untouched_slots() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Wiring::identity(1), Wiring::identity(1)];
        let s0 = McState::initial(procs, 1, 0u8);
        let s1 = s0.step(ProcId(0), &wirings).unwrap();
        // p1's slots are untouched: the successor shares them with s0.
        assert!(Arc::ptr_eq(&s0.procs[1], &s1.procs[1]));
        assert!(Arc::ptr_eq(&s0.outputs[1], &s1.outputs[1]));
        // p0's process advanced: its slot was copied-on-write.
        assert!(!Arc::ptr_eq(&s0.procs[0], &s1.procs[0]));
        // The written register was replaced, not mutated in place.
        assert_eq!(*s0.memory[0], 0);
        assert_eq!(*s1.memory[0], 1);
    }
}

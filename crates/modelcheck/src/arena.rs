//! Flat state arena: dense `u32` slot ids as *the* state representation.
//!
//! PR 5 introduced per-slot interning as a key codec: `McState` stayed a
//! vector of `Arc`-shared slots and the interner tables only produced dedup
//! keys. This module promotes those tables to the representation itself. A
//! state is one row of `m + 3n` ids (`memory ++ procs ++ pending ++
//! outputs`, the same layout the key codec used), stored contiguously in a
//! flat arena; a BFS step copies the parent row (a few words) and rewrites
//! the one to three slots the step touches. Values live exactly once, in the
//! tables; the hot path never clones an `Arc` per slot and visited-set
//! lookup is a flat `&[u32]` hash with no pointer chasing. The process
//! transition itself is memoized on ids, so a transition seen before costs
//! one small hash probe instead of a clone, a `step` and two interns.
//!
//! Invariants observe states through [`StateView`], a borrow of one row plus
//! the tables; [`ArenaTables::decode`] materializes a full [`McState`] only
//! on the cold paths (violation reporting, replay).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use fa_memory::{Action, ProcId, Process, StepInput, Wiring};

use crate::explorer::McState;

/// Slot id of a halted process's empty pending slot. Reserved: value tables
/// never assign it.
pub(crate) const HALTED: u32 = u32::MAX;

/// A state row: one `u32` id per slot in slot order
/// (`memory ++ procs ++ pending ++ outputs`), `m + 3n` words total. Two
/// states of one exploration are equal iff their rows are equal, because
/// each table is injective on values.
pub type ArenaState = Box<[u32]>;

/// The id space of some slot table ran out (ids are dense `u32`s, with
/// [`HALTED`] reserved). Explorations surface this as a graceful incomplete
/// abort — never a panic in a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdSpaceExhausted {
    /// Which slot table overflowed (`"memory"`, `"procs"`, `"pending"`,
    /// `"outputs"`).
    pub table: &'static str,
}

impl std::fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} slot table exhausted its id space", self.table)
    }
}

/// By-value interning table for one kind of state slot: each distinct value
/// gets a dense `u32` id, and the reverse table resolves ids back to shared
/// handles. Lookups borrow the pointee (`Arc<T>: Borrow<T>`), so candidate
/// values are never deep-cloned just to be looked up.
#[derive(Debug)]
pub(crate) struct SlotInterner<T> {
    table: &'static str,
    ids: HashMap<Arc<T>, u32>,
    values: Vec<Arc<T>>,
    /// Ids are assigned strictly below this cap, so [`HALTED`] (`u32::MAX`)
    /// is never assigned under any cap. Tests inject tiny caps to force the
    /// exhaustion path.
    cap: u32,
}

impl<T: Eq + Hash> SlotInterner<T> {
    pub(crate) fn new(table: &'static str, cap: u32) -> Self {
        SlotInterner {
            table,
            ids: HashMap::new(),
            values: Vec::new(),
            cap,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Resolves an id to its shared value handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned by this table (including
    /// [`HALTED`], which callers must special-case).
    pub(crate) fn get(&self, id: u32) -> &Arc<T> {
        &self.values[id as usize]
    }

    fn next_id(&self) -> Result<u32, IdSpaceExhausted> {
        u32::try_from(self.values.len())
            .ok()
            .filter(|&id| id < self.cap)
            .ok_or(IdSpaceExhausted { table: self.table })
    }

    /// The id of `value`'s pointee, assigning the next dense id (and storing
    /// a clone of the handle in the reverse table) on first sight.
    ///
    /// # Errors
    ///
    /// Fails when a fresh value would not fit the id space.
    pub(crate) fn intern_arc(&mut self, value: &Arc<T>) -> Result<u32, IdSpaceExhausted> {
        if let Some(&id) = self.ids.get(&**value) {
            return Ok(id);
        }
        let id = self.next_id()?;
        self.ids.insert(Arc::clone(value), id);
        self.values.push(Arc::clone(value));
        Ok(id)
    }

    /// Like [`SlotInterner::intern_arc`] for an owned value: allocates the
    /// shared handle only on first sight.
    ///
    /// # Errors
    ///
    /// Fails when a fresh value would not fit the id space.
    pub(crate) fn intern_owned(&mut self, value: T) -> Result<u32, IdSpaceExhausted> {
        if let Some(&id) = self.ids.get(&value) {
            return Ok(id);
        }
        let id = self.next_id()?;
        let value = Arc::new(value);
        self.ids.insert(Arc::clone(&value), id);
        self.values.push(value);
        Ok(id)
    }
}

/// What a process step consumes besides the process itself: the id of the
/// register value a read returned, or the completion of a write or output.
/// A real enum key (not reserved id codes), since value ids may reach
/// `id_cap - 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Input {
    Read(u32),
    Wrote,
    Recorded,
}

/// Memoized process transitions: `(proc id, input) → (proc id′, pending
/// id′)`.
type TransitionMemo = HashMap<(u32, Input), (u32, u32), BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fx-style) hasher for the memo's small integer keys;
/// `finish` rotates the well-mixed high product bits down into the low bits
/// that pick a bucket.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The four slot tables of one exploration plus the row layout over them.
///
/// Row layout (`row_words()` ids): `memory` ids at `0..m`, process ids at
/// `m..m+n`, pending-action ids at `m+n..m+2n` ([`HALTED`] once the process
/// halted), output-log ids at `m+2n..m+3n`.
#[derive(Debug)]
pub struct ArenaTables<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    pub(crate) memory: SlotInterner<P::Value>,
    pub(crate) procs: SlotInterner<P>,
    pub(crate) pending: SlotInterner<Action<P::Value, P::Output>>,
    pub(crate) outputs: SlotInterner<Vec<P::Output>>,
    memo: TransitionMemo,
    m: usize,
    n: usize,
}

impl<P> ArenaTables<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Fresh tables for a system of `n` processes over `m` registers, with
    /// each table's id space capped at `id_cap` (production explorations use
    /// [`HALTED`]; tests inject tiny caps).
    #[must_use]
    pub fn new(m: usize, n: usize, id_cap: u32) -> Self {
        ArenaTables {
            memory: SlotInterner::new("memory", id_cap),
            procs: SlotInterner::new("procs", id_cap),
            pending: SlotInterner::new("pending", id_cap),
            outputs: SlotInterner::new("outputs", id_cap),
            memo: TransitionMemo::default(),
            m,
            n,
        }
    }

    /// Ids per state row: `m + 3n`.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.m + 3 * self.n
    }

    /// Entries across all four tables — the live size of the interned value
    /// universe this exploration has touched.
    #[must_use]
    pub fn len_total(&self) -> usize {
        self.memory.len() + self.procs.len() + self.pending.len() + self.outputs.len()
    }

    /// Interns every slot of `state` into a row.
    ///
    /// # Errors
    ///
    /// Fails when some table's id space is exhausted.
    pub fn encode(&mut self, state: &McState<P>) -> Result<ArenaState, IdSpaceExhausted> {
        let (m, n) = (self.m, self.n);
        let mut row = vec![0u32; self.row_words()];
        for (i, cell) in state.memory.iter().enumerate() {
            row[i] = self.memory.intern_arc(cell)?;
        }
        for (i, proc) in state.procs.iter().enumerate() {
            row[m + i] = self.procs.intern_arc(proc)?;
        }
        for (i, slot) in state.pending.iter().enumerate() {
            row[m + n + i] = match slot {
                Some(action) => self.pending.intern_arc(action)?,
                None => HALTED,
            };
        }
        for (i, outs) in state.outputs.iter().enumerate() {
            row[m + 2 * n + i] = self.outputs.intern_arc(outs)?;
        }
        Ok(row.into_boxed_slice())
    }

    /// Materializes the full state a row denotes — the inverse of
    /// [`ArenaTables::encode`]. Cold path only (violations, replay).
    #[must_use]
    pub fn decode(&self, row: &[u32]) -> McState<P> {
        let (m, n) = (self.m, self.n);
        McState {
            memory: row[..m]
                .iter()
                .map(|&id| Arc::clone(self.memory.get(id)))
                .collect(),
            procs: row[m..m + n]
                .iter()
                .map(|&id| Arc::clone(self.procs.get(id)))
                .collect(),
            pending: row[m + n..m + 2 * n]
                .iter()
                .map(|&id| (id != HALTED).then(|| Arc::clone(self.pending.get(id))))
                .collect(),
            outputs: row[m + 2 * n..m + 3 * n]
                .iter()
                .map(|&id| Arc::clone(self.outputs.get(id)))
                .collect(),
        }
    }

    /// Applies process `p`'s poised action to `row` in place: the arena
    /// step. Rewrites `p`'s process and pending ids plus at most one
    /// register or output id; every other word is untouched.
    ///
    /// The register or output slot is interned first and the process slot
    /// last, so ids are assigned in the same first-touch order whether the
    /// process transition is computed or replayed from the memo.
    ///
    /// # Errors
    ///
    /// Fails when a fresh slot value would not fit some table's id space
    /// (`row` is left partially stepped; callers must discard it).
    ///
    /// # Panics
    ///
    /// Panics if `p` has halted in `row`.
    pub(crate) fn step_row(
        &mut self,
        row: &mut [u32],
        p: ProcId,
        wirings: &[Arc<Wiring>],
    ) -> Result<(), IdSpaceExhausted> {
        let (m, n) = (self.m, self.n);
        let proc_ix = m + p.0;
        let pend_ix = m + n + p.0;
        let pending_id = row[pend_ix];
        assert_ne!(pending_id, HALTED, "live process steps");
        let input = match &**self.pending.get(pending_id) {
            Action::Read { local } => Input::Read(row[wirings[p.0].global(*local).0]),
            Action::Write { local, value } => {
                let g = wirings[p.0].global(*local);
                row[g.0] = self.memory.intern_owned(value.clone())?;
                Input::Wrote
            }
            Action::Output(o) => {
                let out_ix = m + 2 * n + p.0;
                let mut outs = (**self.outputs.get(row[out_ix])).clone();
                outs.push(o.clone());
                row[out_ix] = self.outputs.intern_owned(outs)?;
                Input::Recorded
            }
            Action::Halt => {
                row[pend_ix] = HALTED;
                return Ok(());
            }
        };
        let (proc_id, next_id) = self.transition(row[proc_ix], input)?;
        row[proc_ix] = proc_id;
        row[pend_ix] = next_id;
        Ok(())
    }

    /// The process transition `(proc id, input) → (proc id′, pending id′)`,
    /// memoized for the life of the tables. Sound because a process id
    /// denotes one interned representative and `step` is a pure function of
    /// the process value and its input, so a hit returns exactly the ids a
    /// recomputation would intern — and interns nothing new.
    fn transition(&mut self, proc_id: u32, input: Input) -> Result<(u32, u32), IdSpaceExhausted> {
        if let Some(&hit) = self.memo.get(&(proc_id, input)) {
            return Ok(hit);
        }
        let mut proc = (**self.procs.get(proc_id)).clone();
        let next_action = proc.step(match input {
            // Hand the process a shared handle to the register cell; the
            // version is always 0 — the model checker must never let
            // processes observe write multiplicity.
            Input::Read(value_id) => StepInput::ReadValue(fa_memory::Versioned::from_shared(
                Arc::clone(self.memory.get(value_id)),
                0,
            )),
            Input::Wrote => StepInput::Wrote,
            Input::Recorded => StepInput::OutputRecorded,
        });
        let ids = (
            self.procs.intern_owned(proc)?,
            self.pending.intern_owned(next_action)?,
        );
        self.memo.insert((proc_id, input), ids);
        Ok(ids)
    }

    /// Whether process `p`'s pending slot in `row` is a read — the scan
    /// predicate of coarse (label-granularity) stepping.
    fn pending_is_read(&self, row: &[u32], p: ProcId) -> bool {
        let id = row[self.m + self.n + p.0];
        id != HALTED && matches!(&**self.pending.get(id), Action::Read { .. })
    }

    /// One PlusCal-label-granularity block of `p` applied to `row` in place:
    /// a single write or output, or a complete scan (maximal run of
    /// consecutive reads) — the arena counterpart of
    /// [`crate::explorer::step_block`].
    ///
    /// # Errors
    ///
    /// Fails when a fresh slot value would not fit some table's id space.
    ///
    /// # Panics
    ///
    /// Panics if `p` has halted in `row`.
    pub(crate) fn step_block_row(
        &mut self,
        row: &mut [u32],
        p: ProcId,
        wirings: &[Arc<Wiring>],
    ) -> Result<(), IdSpaceExhausted> {
        let was_read = self.pending_is_read(row, p);
        self.step_row(row, p, wirings)?;
        if was_read {
            while self.pending_is_read(row, p) {
                self.step_row(row, p, wirings)?;
            }
        }
        Ok(())
    }
}

/// A borrowed, zero-materialization window onto one arena state: the row
/// plus the tables that resolve its ids. This is what exploration invariants
/// receive — reading a slot is one index into a reverse table, and checks
/// like [`StateView::all_halted`] are pure id comparisons.
#[derive(Clone, Copy, Debug)]
pub struct StateView<'a, P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    tables: &'a ArenaTables<P>,
    row: &'a [u32],
}

impl<'a, P> StateView<'a, P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    pub(crate) fn new(tables: &'a ArenaTables<P>, row: &'a [u32]) -> Self {
        debug_assert_eq!(row.len(), tables.row_words());
        StateView { tables, row }
    }

    /// Number of registers.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.tables.m
    }

    /// Number of processes.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.tables.n
    }

    /// The value held by register `i`.
    #[must_use]
    pub fn memory(&self, i: usize) -> &'a P::Value {
        self.tables.memory.get(self.row[i])
    }

    /// The state of process `i`.
    #[must_use]
    pub fn proc(&self, i: usize) -> &'a P {
        self.tables.procs.get(self.row[self.tables.m + i])
    }

    /// Process `i`'s poised action, or `None` once it halted.
    #[must_use]
    pub fn pending(&self, i: usize) -> Option<&'a Action<P::Value, P::Output>> {
        let id = self.row[self.tables.m + self.tables.n + i];
        (id != HALTED).then(|| &**self.tables.pending.get(id))
    }

    /// The outputs process `i` has produced so far, in order.
    #[must_use]
    pub fn outputs(&self, i: usize) -> &'a [P::Output] {
        self.tables
            .outputs
            .get(self.row[self.tables.m + 2 * self.tables.n + i])
    }

    /// Whether every process has halted — a scan of `n` ids against the
    /// [`HALTED`] sentinel, no value access at all.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        let (m, n) = (self.tables.m, self.tables.n);
        self.row[m + n..m + 2 * n].iter().all(|&id| id == HALTED)
    }

    /// The live (non-halted) processes.
    #[must_use]
    pub fn live(&self) -> Vec<ProcId> {
        let (m, n) = (self.tables.m, self.tables.n);
        self.row[m + n..m + 2 * n]
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != HALTED)
            .map(|(i, _)| ProcId(i))
            .collect()
    }

    /// First output of each process (the one-shot task reading).
    #[must_use]
    pub fn first_outputs(&self) -> Vec<Option<P::Output>> {
        (0..self.tables.n)
            .map(|i| self.outputs(i).first().cloned())
            .collect()
    }

    /// Materializes the full [`McState`] this view denotes. Cold path:
    /// invariants that re-step the state (e.g. the wait-freedom
    /// certificate's solo runs) pay one decode here; plain slot reads never
    /// need it.
    #[must_use]
    pub fn to_state(&self) -> McState<P> {
        self.tables.decode(self.row)
    }

    /// The raw id row (test/debug aid; ids are exploration-local).
    #[must_use]
    pub fn raw_row(&self) -> &'a [u32] {
        self.row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::step_block;
    use fa_core::SnapshotProcess;
    use fa_memory::Wiring;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Writes its input, then halts — the same toy process the explorer
    /// tests use.
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

    fn two_writers() -> (McState<OneWrite>, Vec<Arc<Wiring>>) {
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
        let wirings = vec![Arc::new(Wiring::identity(1)), Arc::new(Wiring::identity(1))];
        (McState::initial(procs, 1, 0u8), wirings)
    }

    #[test]
    fn arena_encode_decode_round_trips_initial_state() {
        let (initial, _) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let row = tables.encode(&initial).unwrap();
        assert_eq!(row.len(), tables.row_words());
        assert_eq!(tables.decode(&row), initial);
    }

    #[test]
    fn arena_step_row_matches_mcstate_step() {
        let (initial, wirings) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let row0 = tables.encode(&initial).unwrap();
        let mut row = row0.clone();
        tables.step_row(&mut row, ProcId(0), &wirings).unwrap();
        let expected = initial.step(ProcId(0), &wirings).unwrap();
        assert_eq!(tables.decode(&row), expected);
        // The parent row is untouched and still decodes to the parent.
        assert_eq!(tables.decode(&row0), initial);
    }

    #[test]
    fn arena_view_reads_slots_without_materializing() {
        let (initial, wirings) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let mut row = tables.encode(&initial).unwrap();
        tables.step_row(&mut row, ProcId(1), &wirings).unwrap();
        let view = StateView::new(&tables, &row);
        assert_eq!(*view.memory(0), 2);
        assert!(view.proc(1).wrote);
        assert!(!view.all_halted());
        assert_eq!(view.live(), vec![ProcId(0), ProcId(1)]);
        assert_eq!(view.first_outputs(), vec![None, None]);
        assert_eq!(view.to_state(), initial.step(ProcId(1), &wirings).unwrap());
    }

    #[test]
    fn arena_halt_writes_the_sentinel() {
        let (initial, wirings) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let mut row = tables.encode(&initial).unwrap();
        tables.step_row(&mut row, ProcId(0), &wirings).unwrap(); // write
        tables.step_row(&mut row, ProcId(0), &wirings).unwrap(); // halt
        assert_eq!(row[1 + 2], HALTED);
        let view = StateView::new(&tables, &row);
        assert!(view.pending(0).is_none());
        assert_eq!(view.live(), vec![ProcId(1)]);
    }

    #[test]
    fn arena_tiny_id_cap_reports_exhaustion_not_panic() {
        let (initial, wirings) = two_writers();
        // Cap of 2 ids per table: encoding the initial state fits exactly
        // (procs and pending are both at the cap), so the first step — whose
        // new pending action `Halt` is a third distinct pending value — must
        // fail gracefully rather than panic.
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, 2);
        let row0 = tables.encode(&initial).unwrap();
        let mut row = row0.clone();
        let err = tables.step_row(&mut row, ProcId(0), &wirings).unwrap_err();
        assert_eq!(err, IdSpaceExhausted { table: "pending" });
        assert!(err.to_string().contains("pending"));
    }

    /// A Figure-3 snapshot system on three processes and three registers
    /// with three distinct wirings.
    fn figure3_system() -> (McState<SnapshotProcess<u32>>, Vec<Arc<Wiring>>) {
        let n = 3;
        let procs = [4u32, 9, 4]
            .iter()
            .map(|&x| SnapshotProcess::new(x, n))
            .collect();
        let wirings = [vec![0, 1, 2], vec![1, 2, 0], vec![2, 1, 0]]
            .into_iter()
            .map(|perm| Arc::new(Wiring::from_perm(perm).unwrap()))
            .collect();
        (McState::initial(procs, n, Default::default()), wirings)
    }

    /// Every live process's block step out of `row`, checked against
    /// `step_block` on the decoded state.
    fn assert_block_steps_match(
        tables: &mut ArenaTables<SnapshotProcess<u32>>,
        row: &[u32],
        wirings: &[Arc<Wiring>],
    ) {
        let state = tables.decode(row);
        for p in state.live() {
            let mut next = row.to_vec();
            tables.step_block_row(&mut next, p, wirings).unwrap();
            assert_eq!(tables.decode(&next), step_block(&state, p, wirings));
        }
    }

    #[test]
    fn arena_memo_warm_block_steps_decode_to_step_block() {
        let (initial, wirings) = figure3_system();
        let mut tables = ArenaTables::new(3, 3, HALTED);
        let root = tables.encode(&initial).unwrap();
        // The same seeded walk twice: the first pass fills the memo, the
        // second must step entirely from it and still agree everywhere.
        let mut warm_len = None;
        for pass in 0..2 {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut row = root.to_vec();
            for _ in 0..24 {
                assert_block_steps_match(&mut tables, &row, &wirings);
                let live = StateView::new(&tables, &row).live();
                let Some(&p) = live.get(rng.gen_range(0..live.len().max(1))) else {
                    break;
                };
                tables.step_block_row(&mut row, p, &wirings).unwrap();
            }
            if pass == 0 {
                warm_len = Some((tables.len_total(), tables.memo.len()));
            }
        }
        assert_eq!(warm_len, Some((tables.len_total(), tables.memo.len())));
    }

    #[test]
    fn arena_memo_hit_assigns_no_ids() {
        let (initial, wirings) = figure3_system();
        let mut tables = ArenaTables::new(3, 3, HALTED);
        let row = tables.encode(&initial).unwrap();
        for p in (0..3).map(ProcId) {
            let mut first = row.to_vec();
            tables.step_row(&mut first, p, &wirings).unwrap();
            let sizes = (tables.len_total(), tables.memo.len());
            let mut again = row.to_vec();
            tables.step_row(&mut again, p, &wirings).unwrap();
            assert_eq!(again, first);
            assert_eq!((tables.len_total(), tables.memo.len()), sizes);
        }
    }

    /// Breadth-first fine-grained steps out of the initial state until
    /// `budget` steps were taken: every step's row, or the index of the
    /// step that exhausted the id space. A `cold` drive forgets every memo
    /// entry before each step, so it recomputes every transition.
    fn drive(
        id_cap: u32,
        budget: usize,
        cold: bool,
    ) -> Result<Vec<Vec<u32>>, (usize, IdSpaceExhausted)> {
        let (initial, wirings) = figure3_system();
        let mut tables = ArenaTables::new(3, 3, id_cap);
        let root = tables.encode(&initial).map_err(|e| (0, e))?.to_vec();
        let mut seen = std::collections::HashSet::from([root.clone()]);
        let mut queue = std::collections::VecDeque::from([root]);
        let mut rows = Vec::new();
        while let Some(row) = queue.pop_front() {
            for p in StateView::new(&tables, &row).live() {
                if rows.len() == budget {
                    return Ok(rows);
                }
                if cold {
                    tables.memo.clear();
                }
                let mut next = row.clone();
                tables
                    .step_row(&mut next, p, &wirings)
                    .map_err(|e| (rows.len(), e))?;
                if seen.insert(next.clone()) {
                    queue.push_back(next.clone());
                }
                rows.push(next);
            }
        }
        Ok(rows)
    }

    #[test]
    fn arena_memo_exhaustion_surfaces_at_the_same_step_as_cold() {
        let budget = 60;
        let mut exhausted = 0;
        for id_cap in 1..=24 {
            let warm = drive(id_cap, budget, false);
            assert_eq!(warm, drive(id_cap, budget, true), "id_cap {id_cap}");
            exhausted += usize::from(matches!(warm, Err((step, _)) if step > 0));
        }
        assert!(exhausted > 0, "some cap must exhaust mid-drive");
        assert_eq!(drive(HALTED, budget, false).unwrap().len(), budget);
    }

    #[test]
    fn arena_interner_reuses_ids_for_equal_values() {
        let mut interner = SlotInterner::<u8>::new("memory", HALTED);
        let a = interner.intern_owned(7).unwrap();
        let b = interner.intern_arc(&Arc::new(7)).unwrap();
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
        assert_eq!(**interner.get(a), 7);
    }
}

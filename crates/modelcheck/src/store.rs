//! Visited-set storage for the arena BFS: a [`VisitedStore`] trait with a
//! hot in-memory table ([`InMemoryVisited`]) and a tiered implementation
//! ([`TieredVisited`]) that spills cold row shards to an append-only
//! file-backed tier once a configurable memory budget is exceeded
//! (DESIGN §13).
//!
//! Both stores assign state ids in insertion order (`0, 1, 2, ..`), so the
//! explorer's BFS numbering — and therefore every report it assembles — is
//! identical whichever store backs it. Both find rows through one
//! [`RowIndex`]: an open-addressing table of `(row hash, id)` pairs. A hash
//! match only nominates a candidate; the full row is always compared, so
//! dedup is exact and never fingerprint-only. The tiered store keeps its
//! index in memory permanently (only row payloads spill) and reads spilled
//! shards back through two one-shard caches: one for the BFS's nearly
//! sequential pops, one for dedup probes, so neither evicts the other.
//!
//! Durability is *not* a goal — the spill file is a temp file deleted on
//! drop. Integrity is: every spilled shard carries a checksum, and any
//! truncated or corrupted read surfaces as a loud [`StoreError`] that the
//! explorer converts into `complete: false` rather than silently
//! mis-deduplicating.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hash of a run of words: the [`RowIndex`] key of a row, and the checksum
/// of a spilled shard's rows. Words are taken two at a time into a
/// multiply-mix step `h <- (rotl(h, 23) ^ word) * K`, then finalized. For
/// a fixed word the step is a bijection of `h`, and for a fixed `h` it is
/// injective in the word (`K` is odd), as is the finalizer — so two runs of
/// equal length that differ in any single word always hash differently.
/// That is the guarantee the spill checksum relies on.
fn hash_words(words: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let mut h = (words.len() as u64).wrapping_mul(K);
    let mut pairs = words.chunks_exact(2);
    for p in &mut pairs {
        h = step(h, u64::from(p[0]) | u64::from(p[1]) << 32);
    }
    if let [last] = pairs.remainder() {
        h = step(h, u64::from(*last));
    }
    // MurmurHash3's 64-bit finalizer: spreads every input bit over the low
    // bits that pick a `RowIndex` slot.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Marks a free [`RowIndex`] slot. Ids are dense from 0, so no store holds
/// enough rows to reach it.
const EMPTY: usize = usize::MAX;

/// Both stores' hash index: open addressing with linear probing over
/// `(row hash, id)` slots in one flat table, doubled — and refilled from
/// the stored hashes, never from rows — once it is 7/8 full. Rows with
/// equal hashes each take their own slot; the index only nominates
/// candidate ids, and the store compares the full row. No state costs a
/// heap allocation of its own.
#[derive(Debug, Default)]
struct RowIndex {
    /// `(row hash, id)`, or `(_, EMPTY)`; the length is 0 or a power of two.
    slots: Vec<(u64, usize)>,
    len: usize,
}

impl RowIndex {
    /// Records that row `id` has hash `hash`.
    fn insert(&mut self, hash: u64, id: usize) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let cap = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); cap]);
            for (h, i) in old {
                if i != EMPTY {
                    self.place(h, i);
                }
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, id: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id);
    }

    /// Ids recorded under `hash`, in probe order. The table always keeps a
    /// free slot, which ends every probe.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut i = hash as usize;
        std::iter::from_fn(move || {
            let mask = self.slots.len().checked_sub(1)?;
            loop {
                let (h, id) = self.slots[i & mask];
                if id == EMPTY {
                    return None;
                }
                i = (i & mask) + 1;
                if h == hash {
                    return Some(id);
                }
            }
        })
    }
}

/// A visited-store failure. [`StoreError::Io`] wraps spill-file I/O errors
/// (including truncation, surfaced as an unexpected-EOF read);
/// [`StoreError::Corrupt`] reports a shard whose checksum no longer matches
/// its payload. The explorer treats both as a hard abort of the affected
/// exploration (`complete: false`), never as "row not seen".
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the spill tier failed.
    Io(std::io::Error),
    /// A spilled shard failed checksum verification on read-back.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "visited spill tier I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "visited spill tier corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Deduplicating storage of fixed-width `u32` rows with dense insertion-order
/// ids. The BFS uses exactly this surface; swapping implementations must
/// never change which ids exist or what they decode to.
pub trait VisitedStore: std::fmt::Debug {
    /// Width of every row, in `u32` words.
    fn row_words(&self) -> usize;

    /// Number of rows stored.
    fn len(&self) -> usize;

    /// Whether the store holds no rows yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of an already-stored row equal to `row`, if any.
    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError>;

    /// Stores `row` (assumed not present — call [`VisitedStore::lookup`]
    /// first) and returns its id, always `len()` before the call.
    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError>;

    /// Copies row `id` into `out` (length `row_words()`).
    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError>;

    /// Number of shards spilled to the disk tier so far (0 for in-memory
    /// stores).
    fn spilled_shards(&self) -> usize;

    /// Estimated resident bytes: row payload held in memory plus per-state
    /// bookkeeping, using the same per-state constant the explorer's
    /// `mc.visited_bytes_est` gauge always used.
    fn approx_bytes(&self) -> usize;
}

/// Estimated per-state bookkeeping bytes (parents, depths, hash-index
/// entries) — the constant the explorer's byte gauge has always used.
const STATE_OVERHEAD_BYTES: usize = 72;

/// The hot all-in-memory store: a flat row arena plus a [`RowIndex`].
#[derive(Debug)]
pub struct InMemoryVisited {
    w: usize,
    rows: Vec<u32>,
    index: RowIndex,
}

impl InMemoryVisited {
    /// Creates an empty store for rows of `row_words` words.
    #[must_use]
    pub fn new(row_words: usize) -> Self {
        InMemoryVisited {
            w: row_words,
            rows: Vec::new(),
            index: RowIndex::default(),
        }
    }
}

impl VisitedStore for InMemoryVisited {
    fn row_words(&self) -> usize {
        self.w
    }

    fn len(&self) -> usize {
        self.rows.len() / self.w.max(1)
    }

    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError> {
        let w = self.w;
        Ok(self
            .index
            .candidates(hash_words(row))
            .find(|&i| self.rows[i * w..(i + 1) * w] == *row))
    }

    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        let id = self.len();
        self.index.insert(hash_words(row), id);
        self.rows.extend_from_slice(row);
        Ok(id)
    }

    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError> {
        out.copy_from_slice(&self.rows[id * self.w..(id + 1) * self.w]);
        Ok(())
    }

    fn spilled_shards(&self) -> usize {
        0
    }

    fn approx_bytes(&self) -> usize {
        self.rows.len() * 4 + self.len() * STATE_OVERHEAD_BYTES
    }
}

/// Bytes before each spilled shard's payload: its `u64` LE checksum.
const SHARD_HEADER_BYTES: usize = 8;

/// Distinguishes concurrent explorations' spill files within one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-unique counter draw — spill file names, plus unique temp-dir
/// names in tests across the crate.
pub(crate) fn unique_id() -> u64 {
    SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// One fixed-capacity run of consecutive rows. Shards are resident until
/// full and cold, then move to the disk tier wholesale.
#[derive(Debug)]
enum Shard {
    /// Rows held in memory (the tail shard, or full shards not yet spilled).
    Ram(Vec<u32>),
    /// Rows spilled to the file at this byte offset (checksum included).
    Disk { offset: u64 },
}

/// One decoded spilled shard. A miss reloads into the same buffer.
#[derive(Debug, Default)]
struct ShardCache {
    /// Index of the shard whose rows `rows` holds, if any.
    shard: Option<usize>,
    rows: Vec<u32>,
}

/// The spill file and its two read-back caches. Sequential BFS pops
/// (`read_row`) and dedup probes (`lookup`) each get their own one-shard
/// slot: probes compare against rows in old shards, and with one shared
/// slot every probe would evict the shard the BFS is popping from, forcing
/// a reload (and re-checksum) of it on nearly every pop.
#[derive(Debug, Default)]
struct DiskTier {
    file: Option<File>,
    file_len: u64,
    /// The shard last loaded by `read_row`.
    read_cache: ShardCache,
    /// The shard last loaded by `lookup`.
    probe_cache: ShardCache,
    /// Encoded shard (checksum header + payload), reused by every spill
    /// and every load.
    bytes: Vec<u8>,
    /// Shards read back from disk so far (cache misses of either slot).
    loads: u64,
}

/// Index-free tiered row storage: the row arena plus its spill tier. Kept
/// apart from [`TieredVisited`]'s hash index so a lookup can walk the
/// index's candidate ids while reading rows back through `&mut` caches.
#[derive(Debug)]
struct TieredRows {
    w: usize,
    /// Rows per shard — fixed at construction so disk offsets are computable.
    shard_rows: usize,
    /// Resident row budget derived from the byte budget.
    budget_rows: usize,
    shards: Vec<Shard>,
    len: usize,
    disk: DiskTier,
    path: Option<PathBuf>,
    /// Lowest shard index still resident — shards spill strictly in order.
    next_to_spill: usize,
    spilled: usize,
    /// Test hook: corrupt the next spilled shard's payload on disk.
    corrupt_next_spill: bool,
    /// Spill into this directory (checkpointed sweeps) instead of the
    /// system temp dir. Implies durable mode: fsync on every shard seal
    /// and a loud error if the directory vanishes mid-run.
    spill_dir: Option<PathBuf>,
    /// Memory-pressure flag from the watchdog: while raised, every sealed
    /// shard spills immediately regardless of budget.
    pressure: Option<Arc<AtomicBool>>,
}

impl TieredRows {
    /// Creates row storage for rows of `row_words` words that keeps at most
    /// roughly `budget_bytes` of row payload resident. Tiny budgets are
    /// honored by spilling every shard as soon as it fills.
    fn new(row_words: usize, budget_bytes: usize) -> Self {
        let w = row_words.max(1);
        let row_bytes = w * 4;
        // Aim for at least a handful of shards within budget, bounded so
        // spill granularity stays sane for both tiny and huge budgets.
        let shard_rows = (budget_bytes / row_bytes / 4).clamp(16, 4096);
        let budget_rows = (budget_bytes / row_bytes).max(shard_rows);
        TieredRows {
            w: row_words,
            shard_rows,
            budget_rows,
            shards: Vec::new(),
            len: 0,
            disk: DiskTier::default(),
            path: None,
            next_to_spill: 0,
            spilled: 0,
            corrupt_next_spill: false,
            spill_dir: None,
            pressure: None,
        }
    }

    fn resident_rows(&self) -> usize {
        self.len - self.spilled * self.shard_rows
    }

    /// In durable mode, errors loudly when the configured spill directory
    /// has vanished mid-run (e.g. the checkpoint dir was deleted).
    fn check_spill_dir(&self) -> Result<(), StoreError> {
        if let Some(dir) = &self.spill_dir {
            if !dir.is_dir() {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("spill directory {} vanished mid-run", dir.display()),
                )));
            }
        }
        Ok(())
    }

    fn ensure_file(&mut self) -> Result<(), StoreError> {
        if self.disk.file.is_some() {
            return Ok(());
        }
        self.check_spill_dir()?;
        let dir = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!(
            "fa-mc-visited-{}-{}.spill",
            std::process::id(),
            unique_id(),
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        self.disk.file = Some(file);
        self.path = Some(path);
        Ok(())
    }

    fn spill_oldest(&mut self) -> Result<(), StoreError> {
        crate::checkpoint::crash_point("store.spill");
        self.ensure_file()?;
        self.check_spill_dir()?;
        let s = self.next_to_spill;
        let Shard::Ram(rows) = &self.shards[s] else {
            unreachable!("shards spill in order; {s} already on disk");
        };
        debug_assert_eq!(
            rows.len(),
            self.shard_rows * self.w,
            "only full shards spill"
        );
        let bytes = &mut self.disk.bytes;
        bytes.clear();
        bytes.extend_from_slice(&hash_words(rows).to_le_bytes());
        for v in rows {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        if self.corrupt_next_spill {
            self.corrupt_next_spill = false;
            bytes[SHARD_HEADER_BYTES] ^= 0xFF;
        }
        let offset = self.disk.file_len;
        let file = self.disk.file.as_ref().expect("ensure_file ran");
        file.write_all_at(bytes, offset)?;
        if self.spill_dir.is_some() {
            // Durable mode: the shard is sealed — make it survive a crash
            // before anything depends on it being on disk.
            file.sync_data()?;
        }
        self.disk.file_len = offset + bytes.len() as u64;
        self.shards[s] = Shard::Disk { offset };
        self.next_to_spill += 1;
        self.spilled += 1;
        Ok(())
    }

    fn maybe_spill(&mut self) -> Result<(), StoreError> {
        let under_pressure = self
            .pressure
            .as_ref()
            .is_some_and(|p| p.load(Ordering::Relaxed));
        let budget_rows = if under_pressure { 0 } else { self.budget_rows };
        while self.resident_rows() > budget_rows {
            let s = self.next_to_spill;
            if s >= self.shards.len() {
                break;
            }
            let Shard::Ram(rows) = &self.shards[s] else {
                break;
            };
            if rows.len() < self.shard_rows * self.w {
                // Never spill the still-filling tail shard.
                break;
            }
            self.spill_oldest()?;
        }
        Ok(())
    }

    /// Appends `row` (no index bookkeeping) and returns its dense id,
    /// spilling sealed shards past the budget.
    fn push_row(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        let id = self.len;
        let cap = self.shard_rows * self.w;
        let needs_new_tail = match self.shards.last() {
            None | Some(Shard::Disk { .. }) => true,
            Some(Shard::Ram(rows)) => rows.len() >= cap,
        };
        if needs_new_tail {
            self.shards.push(Shard::Ram(Vec::with_capacity(cap)));
        }
        let Some(Shard::Ram(tail)) = self.shards.last_mut() else {
            unreachable!("a resident tail shard was just ensured");
        };
        tail.extend_from_slice(row);
        self.len += 1;
        self.maybe_spill()?;
        Ok(id)
    }

    /// Row `id`, read through the `probe` or the sequential-read cache slot
    /// when its shard is on disk. A miss loads the whole shard with one
    /// positioned read and verifies its checksum.
    fn row(&mut self, id: usize, probe: bool) -> Result<&[u32], StoreError> {
        let w = self.w;
        let s = id / self.shard_rows;
        let r = id % self.shard_rows;
        let offset = match &self.shards[s] {
            Shard::Ram(rows) => return Ok(&rows[r * w..(r + 1) * w]),
            Shard::Disk { offset } => *offset,
        };
        let disk = &mut self.disk;
        let cache = if probe {
            &mut disk.probe_cache
        } else {
            &mut disk.read_cache
        };
        if cache.shard != Some(s) {
            // The load overwrites the buffer, so a failed one must leave the
            // slot empty rather than claiming the old shard.
            cache.shard = None;
            let file = disk.file.as_ref().ok_or_else(|| {
                StoreError::Corrupt(format!("shard {s} marked spilled but no spill file exists"))
            })?;
            let bytes = &mut disk.bytes;
            bytes.resize(SHARD_HEADER_BYTES + self.shard_rows * w * 4, 0);
            file.read_exact_at(bytes, offset)?;
            let (header, payload) = bytes.split_at(SHARD_HEADER_BYTES);
            cache.rows.clear();
            cache.rows.extend(
                payload
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
            let expect = u64::from_le_bytes(header.try_into().expect("8-byte header"));
            let got = hash_words(&cache.rows);
            if got != expect {
                return Err(StoreError::Corrupt(format!(
                    "shard {s} at offset {offset}: checksum {got:#018x} != recorded {expect:#018x}"
                )));
            }
            disk.loads += 1;
            cache.shard = Some(s);
        }
        Ok(&cache.rows[r * w..(r + 1) * w])
    }
}

impl Drop for TieredRows {
    fn drop(&mut self) {
        self.disk.file = None;
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The tiered store: resident shards up to a byte budget, then the oldest
/// *full* shards spill — append-only, checksummed — to a temp file. The
/// tail shard (still filling) and the hash index never spill, so lookups
/// stay one hash probe plus (rarely) one cached shard read.
#[derive(Debug)]
pub struct TieredVisited {
    index: RowIndex,
    core: TieredRows,
}

impl TieredVisited {
    /// Creates a store for rows of `row_words` words that keeps at most
    /// roughly `budget_bytes` of row payload resident. Tiny budgets are
    /// honored by spilling every shard as soon as it fills.
    #[must_use]
    pub fn new(row_words: usize, budget_bytes: usize) -> Self {
        TieredVisited {
            index: RowIndex::default(),
            core: TieredRows::new(row_words, budget_bytes),
        }
    }

    /// Routes spill shards into `dir` (a checkpoint directory) instead of
    /// the system temp dir, and makes the spill tier durable: every sealed
    /// shard is fsync'd, and a vanished directory surfaces as a loud
    /// [`StoreError`] instead of silent dedup loss.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.core.spill_dir = Some(dir);
        self
    }

    /// Attaches a memory-pressure flag (from the watchdog): while raised,
    /// every sealed shard spills immediately regardless of budget.
    pub fn set_pressure(&mut self, flag: Arc<AtomicBool>) {
        self.core.pressure = Some(flag);
    }

    /// Path of the spill file, once anything has spilled.
    #[must_use]
    pub fn spill_path(&self) -> Option<&Path> {
        self.core.path.as_deref()
    }

    /// Rows per spill shard (fixed at construction).
    #[must_use]
    pub fn shard_rows(&self) -> usize {
        self.core.shard_rows
    }

    /// Spilled shards read back from disk so far, by `read_row` and
    /// `lookup` together. Each load is a seek, a shard-sized read and a
    /// checksum pass; a cache hit costs none of these.
    #[must_use]
    pub fn shard_loads(&self) -> u64 {
        self.core.disk.loads
    }

    /// Test hook: flips one payload byte of the next shard written to disk,
    /// so read-back must fail the checksum. Hidden — only the corruption
    /// tests use it.
    #[doc(hidden)]
    pub fn corrupt_next_spill_for_tests(&mut self) {
        self.core.corrupt_next_spill = true;
    }
}

impl VisitedStore for TieredVisited {
    fn row_words(&self) -> usize {
        self.core.w
    }

    fn len(&self) -> usize {
        self.core.len
    }

    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError> {
        for id in self.index.candidates(hash_words(row)) {
            if self.core.row(id, true)? == row {
                return Ok(Some(id));
            }
        }
        Ok(None)
    }

    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        let id = self.core.len;
        self.index.insert(hash_words(row), id);
        self.core.push_row(row)?;
        Ok(id)
    }

    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError> {
        out.copy_from_slice(self.core.row(id, false)?);
        Ok(())
    }

    fn spilled_shards(&self) -> usize {
        self.core.spilled
    }

    fn approx_bytes(&self) -> usize {
        self.core.resident_rows() * self.core.w * 4 + self.core.len * STATE_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic distinct rows: no two `i` produce equal rows.
    fn row(i: u32, w: usize) -> Vec<u32> {
        (0..w as u32)
            .map(|j| i.wrapping_mul(2_654_435_761).wrapping_add(j) ^ (i << 8))
            .collect()
    }

    #[test]
    fn store_inmemory_assigns_dense_ids_and_finds_rows() {
        let w = 5;
        let mut s = InMemoryVisited::new(w);
        for i in 0..50u32 {
            let r = row(i, w);
            assert_eq!(s.lookup(&r).unwrap(), None);
            assert_eq!(s.insert(&r).unwrap(), i as usize);
        }
        assert_eq!(s.len(), 50);
        let mut out = vec![0u32; w];
        for i in 0..50u32 {
            let r = row(i, w);
            assert_eq!(s.lookup(&r).unwrap(), Some(i as usize));
            s.read_row(i as usize, &mut out).unwrap();
            assert_eq!(out, r);
        }
        assert_eq!(s.spilled_shards(), 0);
    }

    #[test]
    fn store_tiered_spills_everything_under_a_zero_budget() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        let mut m = InMemoryVisited::new(w);
        let total = 10 * t.shard_rows() + 3;
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(t.lookup(&r).unwrap(), None);
            assert_eq!(m.lookup(&r).unwrap(), None);
            assert_eq!(t.insert(&r).unwrap(), m.insert(&r).unwrap());
        }
        assert_eq!(t.len(), total);
        assert_eq!(
            t.spilled_shards(),
            10,
            "every full shard spills at budget 0"
        );
        assert!(t.spill_path().is_some());
        // Every row — resident or spilled — looks up and reads back equally
        // in both stores.
        let mut a = vec![0u32; w];
        let mut b = vec![0u32; w];
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(t.lookup(&r).unwrap(), Some(i));
            assert_eq!(m.lookup(&r).unwrap(), Some(i));
            t.read_row(i, &mut a).unwrap();
            m.read_row(i, &mut b).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(t.lookup(&row(total as u32 + 7, w)).unwrap(), None);
        let path = t.spill_path().unwrap().to_path_buf();
        drop(t);
        assert!(!path.exists(), "spill file is removed on drop");
    }

    #[test]
    fn store_tiered_generous_budget_never_spills() {
        let w = 4;
        let mut t = TieredVisited::new(w, 1 << 20);
        for i in 0..1000u32 {
            t.insert(&row(i, w)).unwrap();
        }
        assert_eq!(t.spilled_shards(), 0);
        assert!(t.spill_path().is_none());
    }

    #[test]
    fn store_tiered_truncated_spill_fails_loudly() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        // Truncate the spill file behind the store's back; reading any
        // spilled row must now error, not dedup-miss.
        let path = t.spill_path().unwrap();
        OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(4)
            .unwrap();
        let mut out = vec![0u32; w];
        let err = t.read_row(0, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
    }

    #[test]
    fn store_tiered_corrupted_spill_fails_checksum() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        t.corrupt_next_spill_for_tests();
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        let mut out = vec![0u32; w];
        let err = t.read_row(0, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("checksum"), "got {msg}");
    }

    #[test]
    fn store_tiered_lookup_through_corrupt_tier_errors() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        t.corrupt_next_spill_for_tests();
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        // Row 0 lives in the corrupted first shard: a lookup that must
        // compare against it errors instead of reporting "unseen".
        assert!(t.lookup(&row(0, w)).is_err());
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fa-mc-store-{tag}-{}-{}",
            std::process::id(),
            unique_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_tiered_routes_spills_into_configured_dir() {
        let w = 4;
        let dir = scratch_dir("route");
        let mut t = TieredVisited::new(w, 0).with_spill_dir(dir.clone());
        let total = 3 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 2);
        let path = t.spill_path().unwrap().to_path_buf();
        assert_eq!(path.parent(), Some(dir.as_path()));
        // Spilled rows still read back correctly from the routed file.
        let mut out = vec![0u32; w];
        t.read_row(0, &mut out).unwrap();
        assert_eq!(out, row(0, w));
        drop(t);
        assert!(!path.exists(), "spill file removed on drop");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_tiered_vanished_spill_dir_fails_loudly() {
        let w = 4;
        let dir = scratch_dir("vanish");
        let mut t = TieredVisited::new(w, 0).with_spill_dir(dir.clone());
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        // Delete the directory (and the spill file in it) behind the
        // store's back: the next spill must error, never lose rows
        // silently.
        std::fs::remove_dir_all(&dir).unwrap();
        let mut err = None;
        for i in total..total + 2 * t.shard_rows() {
            if let Err(e) = t.insert(&row(i as u32, w)) {
                err = Some(e);
                break;
            }
        }
        let err = err.expect("spilling into a vanished dir must fail");
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("vanished"), "got {err}");
    }

    #[test]
    fn store_tiered_pressure_flag_force_spills_sealed_shards() {
        let w = 4;
        // Generous budget: nothing would spill on its own.
        let mut t = TieredVisited::new(w, 1 << 20);
        let pressure = Arc::new(AtomicBool::new(false));
        t.set_pressure(Arc::clone(&pressure));
        let per_shard = t.shard_rows();
        for i in 0..2 * per_shard {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert_eq!(t.spilled_shards(), 0);
        pressure.store(true, Ordering::Relaxed);
        // The next insert sees the flag and evicts every sealed shard
        // (the still-filling tail stays resident by design).
        t.insert(&row(2 * per_shard as u32, w)).unwrap();
        assert_eq!(t.spilled_shards(), 2);
        // Spilled rows still read back.
        let mut out = vec![0u32; w];
        t.read_row(0, &mut out).unwrap();
        assert_eq!(out, row(0, w));
    }

    /// The id `index` nominates under `hash` whose row in `rows` equals
    /// `probe` — the stores' exact lookup, over rows in a plain vector.
    fn find(index: &RowIndex, rows: &[Vec<u32>], hash: u64, probe: &[u32]) -> Option<usize> {
        index.candidates(hash).find(|&i| rows[i] == probe)
    }

    #[test]
    fn store_index_equal_hashes_coexist_and_compare_full_rows() {
        let w = 3;
        let mut index = RowIndex::default();
        let mut rows = Vec::new();
        // Every even id shares hash 7; odd ids get their real hash.
        for i in 0..300u32 {
            let r = row(i, w);
            let hash = if i % 2 == 0 { 7 } else { hash_words(&r) };
            index.insert(hash, i as usize);
            rows.push(r);
        }
        for i in 0..300u32 {
            let r = row(i, w);
            let hash = if i % 2 == 0 { 7 } else { hash_words(&r) };
            assert_eq!(find(&index, &rows, hash, &r), Some(i as usize));
        }
        assert_eq!(index.candidates(7).count(), 150);
        let mut forced: Vec<usize> = index.candidates(7).collect();
        forced.sort_unstable();
        assert_eq!(forced, (0..300).step_by(2).collect::<Vec<_>>());
        // A row that was never stored matches no candidate, on the shared
        // hash or its own.
        let absent = row(1_000, w);
        assert_eq!(find(&index, &rows, 7, &absent), None);
        assert_eq!(find(&index, &rows, hash_words(&absent), &absent), None);
    }

    #[test]
    fn store_index_grows_across_resize_boundaries() {
        let w = 4;
        let total = if cfg!(miri) { 2_000 } else { 100_000 };
        let mut s = InMemoryVisited::new(w);
        let mut out = vec![0u32; w];
        let mut cap = 0;
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(s.lookup(&r).unwrap(), None);
            assert_eq!(s.insert(&r).unwrap(), i, "ids stay dense");
            let slots = s.index.slots.len();
            assert!(slots.is_power_of_two());
            assert!(s.index.len * 8 <= slots * 7, "the table keeps free slots");
            // Just after each resize (and at the end), every row inserted
            // so far is still found under its own id.
            if slots != cap || i + 1 == total {
                cap = slots;
                for j in 0..=i {
                    assert_eq!(s.lookup(&row(j as u32, w)).unwrap(), Some(j));
                }
                s.read_row(i, &mut out).unwrap();
                assert_eq!(out, r);
                assert_eq!(s.lookup(&row(total as u32 + 1, w)).unwrap(), None);
            }
        }
        assert_eq!(s.len(), total);
        assert_eq!(s.index.len, total);
    }

    #[test]
    fn store_index_inmemory_and_tiered_assign_identical_ids() {
        let w = 5;
        let mut m = InMemoryVisited::new(w);
        // A budget no stream here reaches: nothing spills, no file exists.
        let mut t = TieredVisited::new(w, 1 << 30);
        // A stream with repeats, as BFS successors are.
        for i in 0..4_000u32 {
            let r = row(i.wrapping_mul(7_919) % 1_500, w);
            let seen = m.lookup(&r).unwrap();
            assert_eq!(t.lookup(&r).unwrap(), seen, "step {i}");
            if seen.is_none() {
                assert_eq!(t.insert(&r).unwrap(), m.insert(&r).unwrap());
            }
        }
        assert_eq!(m.len(), 1_500);
        assert_eq!(t.len(), m.len());
        assert_eq!(t.spilled_shards(), 0);
        assert!(t.spill_path().is_none());
        let mut a = vec![0u32; w];
        let mut b = vec![0u32; w];
        for id in 0..m.len() {
            t.read_row(id, &mut a).unwrap();
            m.read_row(id, &mut b).unwrap();
            assert_eq!(a, b);
        }
    }

    /// The spill checksum's guarantee: equal-length word runs that differ
    /// in one word never hash alike.
    #[test]
    fn store_index_hash_separates_single_word_changes() {
        for w in [1, 2, 5, 20] {
            let base = row(12_345, w);
            let h = hash_words(&base);
            for pos in 0..w {
                for delta in [1u32, 0x80, 0x8000_0000, u32::MAX] {
                    let mut changed = base.clone();
                    changed[pos] ^= delta;
                    assert_ne!(hash_words(&changed), h, "w {w} pos {pos} delta {delta:#x}");
                }
            }
        }
    }

    /// Any single corrupted byte of a spilled shard — payload or checksum
    /// header — fails the checksum on read-back.
    #[test]
    fn store_tiered_every_flipped_shard_byte_fails_checksum() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        // Shard 0 sits at offset 0; nothing has read it back yet, so every
        // read below goes to disk.
        let shard_bytes = SHARD_HEADER_BYTES + t.shard_rows() * w * 4;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(t.spill_path().unwrap())
            .unwrap();
        let flip = |at: u64| {
            let mut b = [0u8; 1];
            file.read_exact_at(&mut b, at).unwrap();
            file.write_all_at(&[b[0] ^ 0xFF], at).unwrap();
        };
        let mut out = vec![0u32; w];
        for at in 0..shard_bytes as u64 {
            flip(at);
            let err = t.read_row(0, &mut out).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "byte {at}: {err:?}");
            flip(at);
        }
        assert_eq!(t.shard_loads(), 0, "failed loads are not counted");
        // Restored, the shard verifies and reads back.
        t.read_row(0, &mut out).unwrap();
        assert_eq!(out, row(0, w));
        assert_eq!(t.shard_loads(), 1);
    }

    /// The BFS pops rows in id order while its dedup probes compare
    /// against rows in older shards. Each kind of read has its own cache
    /// slot, so interleaving them loads every spilled shard once per pass
    /// instead of reloading the popped shard after every probe.
    #[test]
    fn store_tiered_probes_do_not_evict_sequential_reads() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        let total = 10 * t.shard_rows() + 3;
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert_eq!(t.spilled_shards(), 10);
        assert_eq!(t.shard_loads(), 0, "inserts never read back");
        let probe = row(0, w);
        let mut out = vec![0u32; w];
        for pass in 1..=2u64 {
            for i in 0..total {
                t.read_row(i, &mut out).unwrap();
                assert_eq!(out, row(i as u32, w));
                assert_eq!(t.lookup(&probe).unwrap(), Some(0));
            }
            // Pass 1: ten sequential loads plus one probe load of shard 0.
            // Pass 2 starts over at shard 0, evicting the read slot's
            // shard 9, and reloads the nine other shards in turn.
            let expect = if pass == 1 { 11 } else { 21 };
            assert_eq!(t.shard_loads(), expect, "pass {pass}");
        }
    }
}

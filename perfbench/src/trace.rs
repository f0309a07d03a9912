//! The traced run: per-layer numbers measured from outside the program.
//!
//! Every figure comes from timing calls into a layer's public functions or
//! from the program's own telemetry counters (`CheckConfig::with_telemetry`).
//! Spans — name, start, end, parent, repetition, thread — are kept in
//! memory and written to `.bench_out/trace-<workload>-<seed>.jsonl` when the
//! run ends. Per-call layer spans are aggregated in full; the first
//! [`KEEP_PER_LAYER`] of each layer per repetition are also kept verbatim.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use fa_core::SnapshotProcess;
use fa_memory::{ProcId, Wiring};
use fa_modelcheck::canon::combo_reps;
use fa_modelcheck::wirings::ComboTable;
use fa_modelcheck::{
    step_block, ArenaTables, Canonicalizer, ComboOutcome, ExplorerTelemetry, InMemoryVisited,
    McState, StrategyKind, TieredVisited, VisitedStore,
};
use fa_obs::MetricRegistry;

use crate::host::{json_str, nproc, Host};
use crate::stats::{median, quantile, reportable_tail};
use crate::verify::{single_verdict, verify, Setup};
use crate::workload::{gate_failures, snapshot_invariant, Inputs, Rng, Verdict, Workload};
use crate::{json_num, procfs, result_json, Metric};

/// Per-call spans kept verbatim per layer and repetition.
const KEEP_PER_LAYER: usize = 1_000;
/// Sweep combos replayed per repetition.
const REPLAY_SAMPLE: usize = 32;
/// Repetitions of the serial/intra pair on a small sweep combo.
const INTRA_PAIRS: usize = 20;

/// One recorded span.
#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rep: usize,
    thread: usize,
}

/// In-memory span store shared by every thread of a traced repetition.
#[derive(Debug)]
struct Tracer {
    t0: Instant,
    rep: usize,
    spans: Mutex<Vec<SpanRec>>,
    threads: Mutex<HashMap<ThreadId, usize>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            rep: 0,
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(HashMap::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn thread(&self) -> usize {
        let mut t = self.threads.lock().expect("thread map lock");
        let next = t.len();
        *t.entry(std::thread::current().id()).or_insert(next)
    }

    /// Records a finished span; returns its id (for children).
    fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let thread = self.thread();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
            thread,
        });
        spans.len() - 1
    }

    /// Opens a span whose id children can name before it closes.
    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, now, now, parent)
    }

    fn close(&self, id: usize) {
        let now = self.now();
        self.spans.lock().expect("span lock")[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce(usize) -> T) -> T {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    fn write_jsonl(&self, path: &Path) -> Result<usize, String> {
        let spans = self.spans.lock().expect("span lock");
        let mut text = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}, \"thread\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.rep,
                s.thread
            );
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(spans.len())
    }
}

/// Full-count timing of one layer's calls.
#[derive(Clone, Copy, Debug, Default)]
struct LayerStat {
    calls: u64,
    ns: u64,
}

impl LayerStat {
    fn mean_ns(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Times one layer call: aggregated always, kept as a span for the first
/// [`KEEP_PER_LAYER`] calls.
fn timed<T>(
    tracer: &Tracer,
    stat: &mut LayerStat,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> T {
    let start = tracer.now();
    let out = f();
    let end = tracer.now();
    if (stat.calls as usize) < KEEP_PER_LAYER {
        tracer.record(name, start, end, Some(parent));
    }
    stat.calls += 1;
    stat.ns += end - start;
    out
}

/// What one replay observed, summed over its combos.
#[derive(Debug, Default)]
struct Replay {
    step: LayerStat,
    encode: LayerStat,
    decode: LayerStat,
    canonicalize: LayerStat,
    lookup: LayerStat,
    insert: LayerStat,
    read: LayerStat,
    /// Lookups that found the row already stored.
    hits: u64,
    spilled_shards: usize,
    resident_bytes: usize,
    written_bytes: u64,
    groups_s: Vec<f64>,
    group_orders: Vec<f64>,
}

/// One BFS over `combo` driven through the public layer calls — McState
/// stepping (`step_block`), `ArenaTables::encode`/`decode`,
/// `Canonicalizer::canonicalize` and the workload's own `VisitedStore` —
/// in the explorer's order, with the explorer's cap. Returns the number of
/// distinct (canonical) states stored.
fn replay_combo(
    workload: Workload,
    inputs: &Inputs,
    combo: &[Arc<Wiring>],
    tracer: &Tracer,
    parent: usize,
    acc: &mut Replay,
) -> Result<usize, String> {
    let n = inputs.values.len();
    let m = n;
    let w = m + 3 * n;
    let mut memory_store;
    let mut tiered_store;
    let store: &mut dyn VisitedStore = match workload.budget() {
        None => {
            memory_store = InMemoryVisited::new(w);
            &mut memory_store
        }
        Some(b) => {
            tiered_store = TieredVisited::new(w, b);
            &mut tiered_store
        }
    };
    let canon = workload.quotient().then(|| {
        let g0 = tracer.now();
        let c = Canonicalizer::for_system(&inputs.classes(), combo);
        let g1 = tracer.now();
        tracer.record("canon.group", g0, g1, Some(parent));
        acc.groups_s.push((g1 - g0) as f64 * 1e-9);
        acc.group_orders.push(c.group_order() as f64);
        c
    });
    let canon = canon.filter(|c| !c.is_trivial());
    let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(m, n, u32::MAX);
    let mut canon_buf = vec![0u32; w];
    let cap = workload.cap();
    let written_before = procfs::written_bytes().unwrap_or(0);

    let initial = McState::initial(inputs.processes(), m, Default::default());
    let root = timed(tracer, &mut acc.encode, "arena.encode", parent, || {
        tables.encode(&initial)
    })
    .map_err(|e| format!("replay: {e}"))?;
    let mut row: Vec<u32> = root.into_vec();
    if let Some(c) = &canon {
        timed(
            tracer,
            &mut acc.canonicalize,
            "canon.canonicalize",
            parent,
            || c.canonicalize(&row, &mut canon_buf),
        );
        std::mem::swap(&mut row, &mut canon_buf);
    }
    timed(tracer, &mut acc.insert, "store.insert", parent, || {
        store.insert(&row)
    })
    .map_err(|e| format!("replay store: {e}"))?;
    let mut queue = VecDeque::from([0usize]);
    let mut cur_row = vec![0u32; w];
    while let Some(cur) = queue.pop_front() {
        timed(tracer, &mut acc.read, "store.read_row", parent, || {
            store.read_row(cur, &mut cur_row)
        })
        .map_err(|e| format!("replay store: {e}"))?;
        let state = timed(tracer, &mut acc.decode, "arena.decode", parent, || {
            tables.decode(&cur_row)
        });
        if state.all_halted() {
            continue;
        }
        for p in 0..n {
            if state.pending[p].is_none() {
                continue;
            }
            let next = timed(tracer, &mut acc.step, "arena.step", parent, || {
                step_block(&state, ProcId(p), combo)
            });
            let encoded = timed(tracer, &mut acc.encode, "arena.encode", parent, || {
                tables.encode(&next)
            })
            .map_err(|e| format!("replay: {e}"))?;
            let mut row: Vec<u32> = encoded.into_vec();
            if let Some(c) = &canon {
                timed(
                    tracer,
                    &mut acc.canonicalize,
                    "canon.canonicalize",
                    parent,
                    || c.canonicalize(&row, &mut canon_buf),
                );
                std::mem::swap(&mut row, &mut canon_buf);
            }
            let seen = timed(tracer, &mut acc.lookup, "store.lookup", parent, || {
                store.lookup(&row)
            })
            .map_err(|e| format!("replay store: {e}"))?;
            if seen.is_some() {
                acc.hits += 1;
                continue;
            }
            if store.len() >= cap {
                continue;
            }
            let id = timed(tracer, &mut acc.insert, "store.insert", parent, || {
                store.insert(&row)
            })
            .map_err(|e| format!("replay store: {e}"))?;
            queue.push_back(id);
        }
    }
    acc.spilled_shards += store.spilled_shards();
    acc.resident_bytes = acc.resident_bytes.max(store.approx_bytes());
    acc.written_bytes += procfs::written_bytes()
        .unwrap_or(0)
        .saturating_sub(written_before);
    Ok(store.len())
}

/// One combo exploration as the strategy ran it.
#[derive(Clone, Copy, Debug)]
struct ComboSpan {
    start_ns: u64,
    end_ns: u64,
    thread: usize,
}

/// The strategy-driven sweep: every explored combo through
/// `StrategyKind::Auto.build(jobs).run`, one `Explorer::run` span each.
struct Driven {
    states: Vec<usize>,
    spans: Vec<ComboSpan>,
    start_ns: u64,
    end_ns: u64,
    invariant: LayerStat,
    verdict: Option<Verdict>,
}

fn drive(
    workload: Workload,
    inputs: &Inputs,
    explore: &[usize],
    table: Option<&ComboTable>,
    registry: Option<&Arc<MetricRegistry>>,
    tracer: &Tracer,
    parent: usize,
) -> Driven {
    let jobs = nproc();
    let inv_calls = AtomicU64::new(0);
    let inv_ns = AtomicU64::new(0);
    let spans = Mutex::new(Vec::with_capacity(explore.len()));
    let single = Mutex::new(None);
    let values = &inputs.values;
    let sweep = tracer.open("strategy.run", Some(parent));
    let start_ns = tracer.now();
    let slots = StrategyKind::Auto
        .build(jobs)
        .run(explore.len(), &|k, stop| {
            let combo = match table {
                Some(t) => t.combo(explore[k]),
                None => inputs.single_combo(),
            };
            let mut explorer = inputs.explorer(workload, combo);
            if let Some(reg) = registry {
                explorer = explorer.with_telemetry(ExplorerTelemetry::from_registry(reg));
            }
            let (calls, ns) = (Cell::new(0u64), Cell::new(0u64));
            let s = tracer.now();
            let report = explorer.run_until(
                |st| {
                    let t = Instant::now();
                    let r = snapshot_invariant(st, values);
                    ns.set(ns.get() + u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    calls.set(calls.get() + 1);
                    r
                },
                stop,
            );
            let e = tracer.now();
            tracer.record("explorer.run", s, e, Some(sweep));
            spans.lock().expect("combo span lock").push(ComboSpan {
                start_ns: s,
                end_ns: e,
                thread: tracer.thread(),
            });
            inv_calls.fetch_add(calls.get(), Ordering::Relaxed);
            inv_ns.fetch_add(ns.get(), Ordering::Relaxed);
            if table.is_none() {
                *single.lock().expect("verdict lock") = Some(single_verdict(workload, &report));
            }
            ComboOutcome {
                states: report.states,
                complete: report.complete,
                full_states_est: report.full_states_estimate,
                spilled_shards: report.spilled_shards,
                violation: report.violation.map(|v| v.message),
            }
        });
    let end_ns = tracer.now();
    tracer.close(sweep);
    Driven {
        states: slots
            .iter()
            .map(|s| s.as_ref().map_or(usize::MAX, |o| o.states))
            .collect(),
        spans: spans.into_inner().expect("combo span lock"),
        start_ns,
        end_ns,
        invariant: LayerStat {
            calls: inv_calls.into_inner(),
            ns: inv_ns.into_inner(),
        },
        verdict: single.into_inner().expect("verdict lock"),
    }
}

/// Busy share of `jobs` workers and the time from the first worker going
/// idle to the sweep's end.
fn busy_and_tail(d: &Driven, jobs: usize) -> (f64, f64) {
    let wall = (d.end_ns - d.start_ns) as f64;
    let busy: f64 = d.spans.iter().map(|s| (s.end_ns - s.start_ns) as f64).sum();
    let mut last_end: HashMap<usize, u64> = HashMap::new();
    for s in &d.spans {
        let e = last_end.entry(s.thread).or_insert(0);
        *e = (*e).max(s.end_ns);
    }
    // A worker that never ran a combo was idle from the start.
    let first_idle = if last_end.len() < jobs {
        d.start_ns
    } else {
        last_end.values().copied().min().unwrap_or(d.start_ns)
    };
    (
        busy / (wall * jobs as f64),
        d.end_ns.saturating_sub(first_idle) as f64 * 1e-9,
    )
}

/// Per-layer figures of one traced repetition, plus reconciliation
/// failures.
struct RepOut {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    combos: u64,
    failed: u64,
}

fn span_mean(reg: &MetricRegistry, name: &str) -> f64 {
    let s = reg.span(name);
    if s.calls() == 0 {
        0.0
    } else {
        s.total_ns() as f64 / s.calls() as f64
    }
}

#[allow(clippy::too_many_lines)]
fn traced_rep(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    work: &Path,
    tracer: &Tracer,
) -> Result<RepOut, String> {
    let jobs = nproc();
    let n = workload.n();
    let root = tracer.open("rep", None);
    let mut problems = Vec::new();
    let mut m: Vec<Metric> = Vec::new();

    // Set-up layers, each timed on its own.
    let table_t = tracer.span("wirings.table", Some(root), |_| {
        let samples: Vec<f64> = (0..101)
            .map(|_| {
                let t = Instant::now();
                black_box(ComboTable::new(n, n));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples).unwrap_or(f64::NAN)
    });
    let table = ComboTable::new(n, n);
    let decodes: Vec<usize> = if table.len() <= 13_824 {
        (0..table.len()).collect()
    } else {
        let mut rng = Rng::new(seed);
        (0..13_824).map(|_| rng.below(table.len())).collect()
    };
    let combo_us = tracer.span("wirings.combo", Some(root), |_| {
        let t = Instant::now();
        for &i in &decodes {
            black_box(table.combo(i));
        }
        t.elapsed().as_secs_f64() * 1e6 / decodes.len() as f64
    });
    let (reps_s, reps) = if workload == Workload::QuotientN4 {
        tracer.span("canon.combo_reps", Some(root), |_| {
            let t = Instant::now();
            let r = combo_reps(n, n, &inputs.classes());
            (t.elapsed().as_secs_f64(), r)
        })
    } else {
        (0.0, None)
    };
    let explore: Vec<usize> = match (&reps, workload) {
        (_, Workload::SingleComboN5) => vec![0],
        (Some(r), _) => (0..r.len()).filter(|&i| r[i] == i).collect(),
        (None, _) => (0..table.len()).collect(),
    };
    let sweep_table = (workload != Workload::SingleComboN5).then_some(&table);

    // Untraced reference verification, then the traced one.
    let setup_done = Setup { reps: reps.clone() };
    let ckpt = |tag: &str| {
        (workload == Workload::SweepN4)
            .then(|| work.join(format!("ckpt-trace-{tag}-{}", tracer.rep)))
    };
    let ck0 = ckpt("plain");
    let (plain, plain_wall) = tracer.span("verify.untraced", Some(root), |_| {
        verify(
            workload,
            inputs,
            &setup_done,
            workload.cap(),
            ck0.as_deref(),
            None,
        )
    })?;
    let registry = Arc::new(MetricRegistry::new());
    let (verdict, traced_wall, driven) = if workload == Workload::SingleComboN5 {
        // The single combo's traced verification *is* its strategy-driven run.
        let t = Instant::now();
        let d = tracer.span("verify.traced", Some(root), |id| {
            drive(
                workload,
                inputs,
                &explore,
                None,
                Some(&registry),
                tracer,
                id,
            )
        });
        let wall = t.elapsed();
        let v = d
            .verdict
            .clone()
            .ok_or("single-combo run produced no verdict")?;
        (v, wall, d)
    } else {
        let ck1 = ckpt("traced");
        let (v, wall) = tracer.span("verify.traced", Some(root), |_| {
            verify(
                workload,
                inputs,
                &setup_done,
                workload.cap(),
                ck1.as_deref(),
                Some(&registry),
            )
        })?;
        for dir in [ck0.as_ref(), ck1.as_ref()].into_iter().flatten() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        }
        let d = tracer.span("sweep.driven", Some(root), |id| {
            drive(workload, inputs, &explore, sweep_table, None, tracer, id)
        });
        (v, wall, d)
    };
    for (what, v) in [("untraced", &plain), ("traced", &verdict)] {
        let bad = gate_failures(workload, v);
        if !bad.is_empty() {
            problems.push(format!("{what} verification gate: {}", bad.join("; ")));
        }
    }

    // Reconciliation: the program's own state counter against its report.
    let states_total = registry.counter("mc.states_total").get();
    if states_total != verdict.states {
        problems.push(format!(
            "mc.states_total {states_total} != reported states {}",
            verdict.states
        ));
    }
    // Σ combo spans ≤ wall × jobs.
    let busy_ns: u64 = driven.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    let driven_wall = driven.end_ns - driven.start_ns;
    if busy_ns > driven_wall * jobs as u64 {
        problems.push(format!(
            "combo spans sum to {busy_ns} ns > wall {driven_wall} ns x {jobs} jobs"
        ));
    }
    let short = driven
        .states
        .iter()
        .filter(|&&s| s != workload.cap())
        .count() as u64;

    // Serial versus intra-combo exploration on the same inputs.
    let intra_reg = Arc::new(MetricRegistry::new());
    let values = &inputs.values;
    let inv =
        |s: &fa_modelcheck::StateView<'_, SnapshotProcess<u32>>| snapshot_invariant(s, values);
    let (intra_speedup, intra_states, serial_states) = if workload == Workload::SingleComboN5 {
        let e = inputs
            .explorer(workload, inputs.single_combo())
            .with_telemetry(ExplorerTelemetry::from_registry(&intra_reg));
        let t = Instant::now();
        let r = tracer.span("explorer.run_intra", Some(root), |_| e.run_intra(inv, jobs));
        let intra_wall = t.elapsed();
        (
            plain_wall.as_secs_f64() / intra_wall.as_secs_f64(),
            r.states,
            plain.states as usize,
        )
    } else {
        let combo = table.combo(explore[Rng::new(seed).below(explore.len())]);
        let plain_e = inputs.explorer(workload, combo.clone());
        let intra_e = inputs
            .explorer(workload, combo)
            .with_telemetry(ExplorerTelemetry::from_registry(&intra_reg));
        let (mut serial, mut intra) = (Vec::new(), Vec::new());
        let (mut ss, mut is) = (0, 0);
        tracer.span("intra.pairs", Some(root), |id| {
            for _ in 0..INTRA_PAIRS {
                let t = Instant::now();
                ss = tracer
                    .span("explorer.run", Some(id), |_| plain_e.run(inv))
                    .states;
                serial.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                is = tracer
                    .span("explorer.run_intra", Some(id), |_| {
                        intra_e.run_intra(inv, jobs)
                    })
                    .states;
                intra.push(t.elapsed().as_secs_f64());
            }
        });
        (
            median(&serial).unwrap_or(f64::NAN) / median(&intra).unwrap_or(f64::NAN),
            is,
            ss,
        )
    };
    if intra_states != serial_states {
        problems.push(format!(
            "intra explored {intra_states} states, serial {serial_states}"
        ));
    }

    // The replay, on a seeded sample of the explored combos.
    let sample: Vec<usize> = if explore.len() <= REPLAY_SAMPLE {
        (0..explore.len()).collect()
    } else {
        let mut rng = Rng::new(seed ^ 0xC0FFEE);
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < REPLAY_SAMPLE {
            let k = rng.below(explore.len());
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        picked.sort_unstable();
        picked
    };
    let mut acc = Replay::default();
    for &k in &sample {
        let combo = match sweep_table {
            Some(t) => t.combo(explore[k]),
            None => inputs.single_combo(),
        };
        let got = tracer.span("replay.combo", Some(root), |id| {
            replay_combo(workload, inputs, &combo, tracer, id, &mut acc)
        })?;
        if got != driven.states[k] {
            problems.push(format!(
                "replay of combo {} stored {got} states, Explorer::run {}",
                explore[k], driven.states[k]
            ));
        }
    }
    tracer.close(root);

    let combo_ms: Vec<f64> = driven
        .spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
        .collect();
    let tail_q = reportable_tail(combo_ms.len());
    let (busy_ratio, tail_s) = busy_and_tail(&driven, jobs);
    let lookups = acc.lookup.calls as f64;
    let inserts = acc.insert.calls as f64;
    let claim = span_mean(&registry, "mc.claim");
    m.extend([
        Metric::new("wirings.table_s", table_t, "s"),
        Metric::new("wirings.combo_us", combo_us, "us"),
        Metric::new("canon.reps_s", reps_s, "s"),
        Metric::new("canon.group_s", median(&acc.groups_s).unwrap_or(0.0), "s"),
        Metric::new(
            "canon.group_order",
            median(&acc.group_orders).unwrap_or(1.0),
            "count",
        ),
        Metric::new("canon.canonicalize_ns", acc.canonicalize.mean_ns(), "ns"),
        Metric::new(
            "canon.canonicalize_calls",
            acc.canonicalize.calls as f64,
            "count",
        ),
        Metric::new(
            "canon.orbit_factor",
            verdict.covered as f64 / verdict.states as f64,
            "ratio",
        ),
        Metric::new("canon.canonical_states", verdict.states as f64, "count"),
        Metric::new("canon.full_states", verdict.covered as f64, "count"),
        Metric::new("arena.step_ns", acc.step.mean_ns(), "ns"),
        Metric::new("arena.encode_ns", acc.encode.mean_ns(), "ns"),
        Metric::new("arena.decode_ns", acc.decode.mean_ns(), "ns"),
        Metric::new(
            "arena.interner_entries",
            registry.gauge("mc.interner_entries").get() as f64,
            "count",
        ),
        Metric::new("store.lookups", lookups, "count"),
        Metric::new("store.inserts", inserts, "count"),
        Metric::new(
            "store.dup_ratio",
            if lookups > 0.0 {
                acc.hits as f64 / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("store.lookup_ns", acc.lookup.mean_ns(), "ns"),
        Metric::new("store.insert_ns", acc.insert.mean_ns(), "ns"),
        Metric::new("store.read_ns", acc.read.mean_ns(), "ns"),
        Metric::new("store.spilled_shards", acc.spilled_shards as f64, "count"),
        Metric::new(
            "store.spill_write_mib",
            procfs::mib(acc.written_bytes),
            "MiB",
        ),
        Metric::new(
            "store.resident_mib",
            procfs::mib(acc.resident_bytes as u64),
            "MiB",
        ),
        Metric::new(
            "explorer.combo_ms_p50",
            quantile(&combo_ms, 0.5).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "explorer.combo_ms_p99",
            quantile(&combo_ms, 0.99).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "explorer.combo_tail_pct",
            tail_q.map_or(0.0, |q| q * 100.0),
            "%",
        ),
        Metric::new(
            "explorer.combo_ms_tail",
            tail_q.and_then(|q| quantile(&combo_ms, q)).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("explorer.combos", combo_ms.len() as f64, "count"),
        Metric::new("explorer.dedup_ns", span_mean(&registry, "mc.dedup"), "ns"),
        Metric::new("explorer.states_total", states_total as f64, "count"),
        Metric::new("strategy.busy_ratio", busy_ratio, "ratio"),
        Metric::new("strategy.tail_s", tail_s, "s"),
        Metric::new("strategy.claim_us", claim * 1e-3, "us"),
        Metric::new("strategy.intra_speedup", intra_speedup, "ratio"),
        Metric::new(
            "strategy.steals",
            intra_reg.counter("mc.steal_count").get() as f64,
            "count",
        ),
        Metric::new(
            "checkpoint.records",
            registry.counter("ckpt.records").get() as f64,
            "count",
        ),
        Metric::new(
            "checkpoint.journal_kib",
            registry.gauge("ckpt.journal_bytes").get() as f64 / 1024.0,
            "KiB",
        ),
        Metric::new(
            "checkpoint.syncs",
            registry.gauge("ckpt.syncs").get() as f64,
            "count",
        ),
        Metric::new("checks.invariant_ns", driven.invariant.mean_ns(), "ns"),
        Metric::new("trace.untraced_wall_s", plain_wall.as_secs_f64(), "s"),
        Metric::new("trace.traced_wall_s", traced_wall.as_secs_f64(), "s"),
        Metric::new(
            "trace.overhead_s",
            traced_wall.as_secs_f64() - plain_wall.as_secs_f64(),
            "s",
        ),
    ]);
    Ok(RepOut {
        metrics: m,
        problems,
        combos: driven.states.len() as u64,
        failed: short,
    })
}

/// Runs traced repetitions until `seconds` have passed (at least one),
/// prints the per-layer metrics (medians over repetitions) and writes the
/// spans. `Ok(correct)`.
#[allow(clippy::too_many_arguments)]
pub fn report(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    work: &Path,
    out_dir: &Path,
    host: &Host,
    control_ok: bool,
    seed: u64,
) -> Result<bool, String> {
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut reps: Vec<RepOut> = Vec::new();
    while reps.is_empty() || started.elapsed().as_secs_f64() < seconds {
        tracer.rep = reps.len();
        reps.push(traced_rep(workload, inputs, seed, work, &tracer)?);
    }
    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    let spans = tracer.write_jsonl(&path)?;
    let overheads: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            r.metrics
                .iter()
                .filter(|m| m.name == "trace.untraced_wall_s")
        })
        .map(|m| m.value)
        .collect();
    println!(
        "host {}",
        host.to_json(crate::stats::relative_spread(&overheads))
    );
    println!("trace: {spans} spans written to {}", path.display());
    let mut metrics: Vec<Metric> = reps[0]
        .metrics
        .iter()
        .map(|first| {
            let xs: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.metrics.iter().filter(|m| m.name == first.name))
                .map(|m| m.value)
                .collect();
            Metric::new(first.name, median(&xs).unwrap_or(f64::NAN), first.unit)
        })
        .collect();
    metrics.push(Metric::new("trace.spans", spans as f64, "count"));
    for m in &metrics {
        println!(
            "layer {} = {} {} (median of {} traced repetitions)",
            m.name,
            json_num(m.value),
            m.unit,
            reps.len()
        );
    }
    let mut correct = control_ok;
    for (k, r) in reps.iter().enumerate() {
        for p in &r.problems {
            println!("reconciliation FAILED on traced repetition {k}: {p}");
            correct = false;
        }
    }
    // ROADMAP's keep-or-delete rule for `--strategy intra`, armed only on
    // its decision workload with at least two cores.
    let speedup = metrics
        .iter()
        .find(|m| m.name == "strategy.intra_speedup")
        .map_or(f64::NAN, |m| m.value);
    let rule = if workload != Workload::SingleComboN5 {
        "skipped (not the decision workload)".to_string()
    } else if nproc() < 2 {
        "skipped (one core)".to_string()
    } else if speedup >= 1.3 {
        format!("met ({speedup:.2}x)")
    } else {
        format!("not met ({speedup:.2}x)")
    };
    println!("rule intra >= 1.3x serial: {rule}");
    if correct {
        println!("reconciliation ok: replay counts = Explorer::run counts, mc.states_total = reported states, combo spans <= wall x jobs");
    }
    let attempted: u64 = reps.iter().map(|r| r.combos).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    correct &= failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

//! The three workloads: what each asks the model checker, the inputs a seed
//! generates for it, and the verdict-and-count gates every run must pass.

use std::sync::Arc;

use fa_core::{SnapshotProcess, View};
use fa_memory::Wiring;
use fa_modelcheck::{Explorer, StateView};

/// States per combo in the E18 sweep.
pub const SWEEP_CAP: usize = 500;
/// States per combo in the E24 quotiented sweep.
pub const QUOTIENT_CAP: usize = 2_000;
/// Canonical-state cap of the single n=5 combo.
pub const SINGLE_CAP: usize = 200_000;
/// Visited-set budget of the single n=5 combo: small enough to spill.
pub const SINGLE_BUDGET: usize = 64 * 1024;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E18: distinct inputs, n=4, every wiring combo, 500 states each,
    /// checkpoint journal on.
    SweepN4,
    /// E24: symmetric inputs, n=4, quotiented to 762 combo classes, 2,000
    /// canonical states each.
    QuotientN4,
    /// One n=5 combo, symmetric inputs, quotient, 64 KiB visited budget.
    SingleComboN5,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepN4,
        Workload::QuotientN4,
        Workload::SingleComboN5,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepN4 => "sweep_n4",
            Workload::QuotientN4 => "quotient_n4",
            Workload::SingleComboN5 => "single_combo_n5",
        }
    }

    /// Processors (= registers).
    pub fn n(self) -> usize {
        match self {
            Workload::SweepN4 | Workload::QuotientN4 => 4,
            Workload::SingleComboN5 => 5,
        }
    }

    /// State cap per combo.
    pub fn cap(self) -> usize {
        match self {
            Workload::SweepN4 => SWEEP_CAP,
            Workload::QuotientN4 => QUOTIENT_CAP,
            Workload::SingleComboN5 => SINGLE_CAP,
        }
    }

    pub fn quotient(self) -> bool {
        self != Workload::SweepN4
    }

    pub fn budget(self) -> Option<usize> {
        (self == Workload::SingleComboN5).then_some(SINGLE_BUDGET)
    }
}

/// SplitMix64: the seed expands into every generated input.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_F00D_CAFE_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// What the program receives for one workload and seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// One input value per processor.
    pub values: Vec<u32>,
    /// The wiring every processor shares (single-combo workload only).
    pub shared_wiring: Option<Arc<Wiring>>,
}

impl Inputs {
    /// The seed relabels the input values (distinct for `sweep_n4`, one
    /// repeated value otherwise) and, for `single_combo_n5`, picks the
    /// shared wiring among all `5!`. Values stay in `1..64`, the range a
    /// view packs into its 64-bit mask: larger values switch every view to
    /// the ordered-set fallback, which changes the cost of a verification
    /// (not its counts) by about 1.5x, so a seed must not pick them.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let n = workload.n();
        let values = if workload == Workload::SweepN4 {
            let mut vals: Vec<u32> = Vec::with_capacity(n);
            while vals.len() < n {
                let v = 1 + rng.below(63) as u32;
                if !vals.contains(&v) {
                    vals.push(v);
                }
            }
            vals
        } else {
            vec![1 + rng.below(63) as u32; n]
        };
        let shared_wiring = (workload == Workload::SingleComboN5).then(|| {
            let k = rng.below((1..=n).product());
            Arc::new(
                Wiring::enumerate(n)
                    .nth(k)
                    .expect("index below the wiring count"),
            )
        });
        Inputs {
            values,
            shared_wiring,
        }
    }

    /// Initial symmetry classes: processors with equal inputs start
    /// value-equal.
    pub fn classes(&self) -> Vec<usize> {
        self.values
            .iter()
            .map(|v| {
                self.values
                    .iter()
                    .position(|w| w == v)
                    .expect("value is present")
            })
            .collect()
    }

    /// The single combo: every processor on the shared wiring.
    pub fn single_combo(&self) -> Vec<Arc<Wiring>> {
        let w = self
            .shared_wiring
            .as_ref()
            .expect("single-combo workload has a shared wiring");
        vec![Arc::clone(w); self.values.len()]
    }

    /// The processes of Figure 3's snapshot algorithm on these inputs.
    pub fn processes(&self) -> Vec<SnapshotProcess<u32>> {
        let n = self.values.len();
        self.values
            .iter()
            .map(|&x| SnapshotProcess::new(x, n))
            .collect()
    }

    /// The explorer the harness builds for one combo of `workload`:
    /// coarse scans, the workload's cap, quotient and visited budget.
    pub fn explorer(
        &self,
        workload: Workload,
        combo: Vec<Arc<Wiring>>,
    ) -> Explorer<SnapshotProcess<u32>> {
        let n = self.values.len();
        let mut e = Explorer::new(self.processes(), n, Default::default(), combo)
            .with_coarse_scans()
            .with_max_states(workload.cap());
        if workload.quotient() {
            e = e.with_quotient();
        }
        if let Some(b) = workload.budget() {
            e = e.with_visited_budget(b);
        }
        e
    }
}

/// The snapshot-task safety invariant the benchmark hands `Explorer::run`:
/// every output holds its owner's input and only inputs, and outputs are
/// pairwise comparable.
pub fn snapshot_invariant(
    state: &StateView<'_, SnapshotProcess<u32>>,
    inputs: &[u32],
) -> Result<(), String> {
    let outputs = state.first_outputs();
    let all: View<u32> = inputs.iter().copied().collect();
    for (i, out) in outputs.iter().enumerate() {
        let Some(view) = out else { continue };
        if !view.contains(&inputs[i]) {
            return Err(format!("output of p{i} misses its own input"));
        }
        if !view.is_subset(&all) {
            return Err(format!("output of p{i} contains non-input values"));
        }
        for (j, other) in outputs.iter().enumerate().skip(i + 1) {
            if let Some(w) = other {
                if !view.comparable(w) {
                    return Err(format!("outputs of p{i} and p{j} are incomparable"));
                }
            }
        }
    }
    Ok(())
}

/// Counts a workload's verdict must reproduce exactly, on every seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Combos explored (after the combo quotient).
    pub combos: usize,
    /// Combos the verdict covers (every one of the sweep's combos).
    pub swept: usize,
    /// Distinct states stored (canonical when quotiented).
    pub states: u64,
    /// Full-space states covered (`states` without a quotient).
    pub covered: u64,
    /// Visited shards spilled to disk.
    pub spilled_shards: usize,
}

impl Workload {
    pub fn expected(self) -> Expected {
        match self {
            Workload::SweepN4 => Expected {
                combos: 13_824,
                swept: 13_824,
                states: 6_912_000,
                covered: 6_912_000,
                spilled_shards: 0,
            },
            Workload::QuotientN4 => Expected {
                combos: 762,
                swept: 13_824,
                states: 1_524_000,
                covered: 35_176_359,
                spilled_shards: 0,
            },
            Workload::SingleComboN5 => Expected {
                combos: 1,
                swept: 1,
                states: 200_000,
                covered: 17_044_239,
                spilled_shards: 977,
            },
        }
    }
}

/// What one verification returned, reduced to the gated quantities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub violation: Option<String>,
    /// Combos explored.
    pub combos: usize,
    /// Combos the verdict covers.
    pub swept: usize,
    /// Combos in the sweep's table.
    pub total_combos: usize,
    pub states: u64,
    pub covered: u64,
    pub spilled_shards: usize,
    /// Explored combos whose own state count missed the per-combo cap (a
    /// store error, id exhaustion or abort cut them short).
    pub short_combos: usize,
}

/// Every mismatch between `got` and the workload's expected verdict; empty
/// when the gate passes.
pub fn gate_failures(workload: Workload, got: &Verdict) -> Vec<String> {
    let want = workload.expected();
    let mut bad = Vec::new();
    if let Some(v) = &got.violation {
        bad.push(format!("unexpected violation: {v}"));
    }
    let mut check = |what: &str, got: u64, want: u64| {
        if got != want {
            bad.push(format!("{what}: got {got}, expected {want}"));
        }
    };
    check("combos", got.combos as u64, want.combos as u64);
    check("combos covered", got.swept as u64, want.swept as u64);
    check("total combos", got.total_combos as u64, want.swept as u64);
    check("states", got.states, want.states);
    check("covered states", got.covered, want.covered);
    check(
        "spilled shards",
        got.spilled_shards as u64,
        want.spilled_shards as u64,
    );
    check("combos cut short", got.short_combos as u64, 0);
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing(workload: Workload) -> Verdict {
        let e = workload.expected();
        Verdict {
            violation: None,
            combos: e.combos,
            swept: e.swept,
            total_combos: e.swept,
            states: e.states,
            covered: e.covered,
            spilled_shards: e.spilled_shards,
            short_combos: 0,
        }
    }

    #[test]
    fn exact_counts_pass_the_gate() {
        for w in Workload::ALL {
            assert!(gate_failures(w, &passing(w)).is_empty(), "{w:?}");
        }
    }

    #[test]
    fn any_changed_count_fails_the_gate() {
        for w in Workload::ALL {
            let ok = passing(w);
            let tampered = [
                Verdict {
                    states: ok.states + 1,
                    ..ok.clone()
                },
                Verdict {
                    covered: ok.covered - 1,
                    ..ok.clone()
                },
                Verdict {
                    combos: ok.combos - 1,
                    ..ok.clone()
                },
                Verdict {
                    swept: ok.swept - 1,
                    ..ok.clone()
                },
                Verdict {
                    spilled_shards: ok.spilled_shards + 1,
                    ..ok.clone()
                },
                Verdict {
                    short_combos: 1,
                    ..ok.clone()
                },
                Verdict {
                    violation: Some("outputs of p0 and p1 are incomparable".into()),
                    ..ok.clone()
                },
            ];
            for t in tampered {
                assert!(!gate_failures(w, &t).is_empty(), "{w:?}: {t:?}");
            }
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            for seed in 0..100 {
                let a = Inputs::generate(w, seed);
                let b = Inputs::generate(w, seed);
                assert_eq!(a.values, b.values);
                assert_eq!(a.shared_wiring, b.shared_wiring);
                assert_eq!(a.values.len(), w.n());
                assert!(
                    a.values.iter().all(|v| (1..64).contains(v)),
                    "{:?}",
                    a.values
                );
            }
        }
        let distinct = Inputs::generate(Workload::SweepN4, 3);
        assert_eq!(distinct.classes(), vec![0, 1, 2, 3]);
        let symmetric = Inputs::generate(Workload::QuotientN4, 3);
        assert_eq!(symmetric.classes(), vec![0; 4]);
        let single = Inputs::generate(Workload::SingleComboN5, 3);
        assert_eq!(single.single_combo().len(), 5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}

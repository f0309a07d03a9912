//! The untraced run: repeated verifications in a closed loop, each timed
//! from the public call to its verdict. End-to-end metrics come only from
//! here.

use std::path::Path;
use std::time::Instant;

use crate::procfs;
use crate::verify::{timed_setups, verify};
use crate::workload::{gate_failures, Inputs, Workload};

/// Per-repetition end-to-end figures.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub states_per_s: f64,
    pub covered_states_per_s: f64,
    pub peak_rss_mib: f64,
    pub disk_write_mib: f64,
}

/// Everything an untraced run measured.
#[derive(Debug, Default)]
pub struct Untraced {
    pub reps: Vec<Rep>,
    /// Every set-up timing of the run, in seconds.
    pub setup_samples: Vec<f64>,
    /// Combo explorations attempted and failed (cut short, or part of a
    /// verification whose verdict missed its gate).
    pub attempted: u64,
    pub failed: u64,
    /// Gate failures, by repetition.
    pub gate_failures: Vec<(usize, Vec<String>)>,
    /// Whether the peak-RSS mark could be reset per repetition.
    pub rss_per_rep: bool,
}

/// One untimed verification at a tenth of the state cap, so code, caches
/// and the allocator are warm before the first timed repetition.
pub fn warm_up(workload: Workload, inputs: &Inputs, work: &Path) -> Result<(), String> {
    let setup = crate::verify::setup(workload, inputs);
    let ckpt = (workload == Workload::SweepN4).then(|| work.join("ckpt-warm-up"));
    verify(
        workload,
        inputs,
        &setup,
        workload.cap() / 10,
        ckpt.as_deref(),
        None,
    )?;
    if let Some(dir) = &ckpt {
        std::fs::remove_dir_all(dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Runs verifications until `seconds` have passed (at least one).
/// Checkpoint journals go to a fresh directory under `work` per repetition.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    work: &Path,
) -> Result<Untraced, String> {
    let mut out = Untraced::default();
    warm_up(workload, inputs, work)?;
    let started = Instant::now();
    while out.reps.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let k = out.reps.len();
        let (samples, setup) = timed_setups(workload, inputs);
        out.setup_samples.extend(samples);
        let ckpt = (workload == Workload::SweepN4).then(|| work.join(format!("ckpt-{k}")));
        out.rss_per_rep = procfs::reset_peak_rss();
        let written_before = procfs::written_bytes().unwrap_or(0);
        let (verdict, wall) = verify(
            workload,
            inputs,
            &setup,
            workload.cap(),
            ckpt.as_deref(),
            None,
        )?;
        let written = procfs::written_bytes()
            .unwrap_or(0)
            .saturating_sub(written_before);
        let peak = procfs::peak_rss_bytes().unwrap_or(0);
        if let Some(dir) = &ckpt {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        }
        let wall_s = wall.as_secs_f64();
        out.reps.push(Rep {
            wall_s,
            states_per_s: verdict.states as f64 / wall_s,
            covered_states_per_s: verdict.covered as f64 / wall_s,
            peak_rss_mib: procfs::mib(peak),
            disk_write_mib: procfs::mib(written),
        });
        let combos = workload.expected().combos as u64;
        out.attempted += combos;
        let bad = gate_failures(workload, &verdict);
        if bad.is_empty() {
            out.failed += verdict.short_combos as u64;
        } else {
            out.failed += combos;
            out.gate_failures.push((k, bad));
        }
    }
    Ok(out)
}

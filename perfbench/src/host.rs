//! The host block every result carries: what ran, where, and how noisy the
//! machine was during the run.

use std::process::Command;

/// Host facts a measurement is only meaningful alongside.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub git_rev: String,
    pub profile: &'static str,
}

impl Host {
    pub fn detect() -> Self {
        Host {
            nproc: nproc(),
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// One JSON object; `noise_floor` is the relative spread between this
    /// run's untraced repetitions (`None`: too few repetitions to measure,
    /// reported as `"skipped"`).
    pub fn to_json(&self, noise_floor: Option<f64>) -> String {
        let noise = noise_floor.map_or_else(|| "\"skipped\"".to_string(), |s| format!("{s:.6}"));
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"git_rev\": {}, \"profile\": {}, \"noise_floor\": {}}}",
            self.nproc,
            json_str(&self.rustc),
            json_str(&self.git_rev),
            json_str(self.profile),
            noise
        )
    }
}

/// Worker threads the program's default `CheckConfig` uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First stdout line of a short command, or `"unknown"` when it cannot run
/// (the benchmark may run from a plain source tree without git).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

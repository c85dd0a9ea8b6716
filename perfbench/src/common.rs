//! What every workload shares: the operation ledger behind `attempted` and
//! `failed`, the per-repetition outcome, seeded randomness and helpers over
//! the public `Deployment` API.

use secureblox::{Deployment, DeploymentReport, Value};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Operations attempted and failed.  A failure is an error returned by the
/// program, an oracle mismatch or an accepted forgery.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one program call; an error is a failure and ends the job.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            let message = format!("{what}: {e}");
            self.fail(message.clone());
            message
        })
    }

    /// Count one oracle comparison.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("oracle mismatch: {what}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {message}");
    }
}

/// One open-loop change: how late it was submitted and how long until the
/// `run()` that made it visible everywhere returned, both from its due time.
#[derive(Debug, Clone, Copy)]
pub struct ChangeSample {
    pub lag: Duration,
    pub latency: Duration,
}

/// The outcome of one repetition of a workload's job.
#[derive(Debug)]
pub struct Rep {
    pub setup: Duration,
    pub converge: Duration,
    /// Update deltas applied by receivers, counted from final state.
    pub deltas: u64,
    pub wire_kb_per_node: f64,
    /// `recover` plus the `run()` back to quiescence (durable workloads).
    pub recover: Option<Duration>,
    pub changes: Vec<ChangeSample>,
    pub forged: u64,
    pub replays: u64,
    /// Signed payloads drawn from the job's own exported tuples, for the
    /// crypto layer's timings.
    pub payloads: Vec<Vec<u8>>,
    /// The main deployment's report at the end of the job.
    pub report: DeploymentReport,
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_b10c_5eed_b10c)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Update deltas applied by receivers: every `says$T` tuple a node holds
/// that another principal said to it, over every exportable `T`.
pub fn deltas_received(deployment: &Deployment, principals: &[String]) -> u64 {
    let mut count = 0u64;
    for pred in deployment.exportable_predicates() {
        let says = format!("says${pred}");
        for principal in principals {
            count += deployment
                .query(principal, &says)
                .iter()
                .filter(|t| {
                    t.len() >= 2
                        && t[1].as_str() == Some(principal)
                        && t[0].as_str() != Some(principal)
                })
                .count() as u64;
        }
    }
    count
}

/// A string value.
pub fn s(text: &str) -> Value {
    Value::str(text)
}

/// A fresh, empty durability directory under `root`.
pub fn fresh_dir(root: &Path, label: &str) -> PathBuf {
    let dir = root.join(label);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

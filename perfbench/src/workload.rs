//! The interface the runner drives, and what workloads share about their
//! configuration.

use crate::common::{deltas_received, Checks, Rep};
use crate::stats::json_str;
use crate::trace::Tracer;
use secureblox::{Deployment, DeploymentConfig, DurabilityConfig, NodeSpec};
use secureblox_datalog::codec::serialize_tuple;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Exported payloads kept per job for the crypto timings.
const PAYLOADS: usize = 64;

pub trait Workload {
    /// The resolved deployment configuration (durability directory aside).
    fn config(&self) -> &DeploymentConfig;
    fn app_source(&self) -> &str;
    fn specs(&self) -> &[NodeSpec];
    fn principals(&self) -> &[String];
    fn durable(&self) -> bool;
    /// The configuration for one fresh build, with the durability
    /// directory to remove afterwards.
    fn fresh(&mut self) -> (DeploymentConfig, Option<PathBuf>);
    /// One repetition of the whole job.
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep, String>;
    /// Build and converge on the single-threaded reference executor, for
    /// workloads that run on the reactor.
    fn reference_converge(&mut self, _checks: &mut Checks) -> Option<Result<Duration, String>> {
        None
    }
}

/// One build-only or build-and-converge sample.
pub struct Sample {
    pub setup: Duration,
    /// Converge wall time and the update deltas it applied.
    pub converge: Option<(Duration, u64)>,
}

/// Build a fresh deployment, optionally run it to the fixpoint, and drop
/// it.
pub fn sample(
    workload: &mut dyn Workload,
    checks: &mut Checks,
    converge: bool,
) -> Result<Sample, String> {
    let (config, dir) = workload.fresh();
    let started = Instant::now();
    let built = Deployment::build(workload.app_source(), workload.specs(), config);
    let setup = started.elapsed();
    let outcome = checks.op("build", built).and_then(|mut deployment| {
        if !converge {
            return Ok(None);
        }
        let started = Instant::now();
        checks.op("run", deployment.run())?;
        let wall = started.elapsed();
        Ok(Some((
            wall,
            deltas_received(&deployment, workload.principals()),
        )))
    });
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Sample {
        setup,
        converge: outcome?,
    })
}

/// The signed part of up to [`PAYLOADS`] exported tuples: the canonical
/// encoding of the columns after the two principals, as the `says` policy
/// signs it.
pub fn payload_sample(deployment: &Deployment, principals: &[String]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for pred in deployment.exportable_predicates() {
        for principal in principals {
            for tuple in deployment.query(principal, &format!("says${pred}")) {
                if out.len() == PAYLOADS {
                    return out;
                }
                if tuple.len() > 2 {
                    out.push(serialize_tuple(&tuple[2..]));
                }
            }
        }
    }
    out
}

/// The resolved configuration as a JSON object.
pub fn describe(workload: &dyn Workload) -> String {
    let config = workload.config();
    let fields = [
        ("auth", json_str(&format!("{:?}", config.security.auth))),
        ("enc", json_str(&format!("{:?}", config.security.enc))),
        ("rsa_bits", config.security.rsa_bits.to_string()),
        ("streaming", config.streaming.enabled.to_string()),
        ("batch_max", config.streaming.batch_max.to_string()),
        (
            "queue_high_water",
            config.streaming.queue_high_water.to_string(),
        ),
        ("reactor", config.reactor.enabled.to_string()),
        ("reactor_threads", config.reactor.threads.to_string()),
        ("workers", config.parallelism.to_string()),
        ("durable", workload.durable().to_string()),
        (
            "flush_each_batch",
            // Durable workloads use `DurabilityConfig::new`'s flush policy.
            match workload.durable() {
                true => DurabilityConfig::new(".").flush_each_batch.to_string(),
                false => "null".into(),
            },
        ),
        (
            "sharded",
            config
                .sharding
                .as_ref()
                .is_some_and(|m| m.is_active())
                .to_string(),
        ),
        ("message_budget", config.message_budget.to_string()),
        ("seed", config.seed.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

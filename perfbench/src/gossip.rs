//! `gossip_flood`: the ring gossip app of `benches/stream_throughput.rs` on
//! the streaming scheduler and the reactor, with durability on, followed by
//! checkpoint, drop, recover and a run back to quiescence.

use crate::common::{deltas_received, fresh_dir, s, Checks, Rep, Rng};
use crate::trace::Tracer;
use crate::workload::{payload_sample, Workload};
use secureblox::policy::SecurityConfig;
use secureblox::runtime::stream::{DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER};
use secureblox::runtime::{ReactorConfig, StreamingConfig};
use secureblox::{AuthScheme, Deployment, DeploymentConfig, DurabilityConfig, EncScheme, NodeSpec};
use secureblox_datalog::codec::serialize_tuple;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Nodes on the ring.
pub const NODES: usize = 24;
/// Reactor worker threads.
pub const THREADS: usize = 2;

const APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].
"#;

pub struct Gossip {
    principals: Vec<String>,
    /// Directed ring links `(from, to)`.
    links: Vec<(String, String)>,
    specs: Vec<NodeSpec>,
    config: DeploymentConfig,
    state_root: PathBuf,
    builds: usize,
}

impl Gossip {
    /// The ring's node order is a seeded permutation of the principals.
    pub fn new(seed: u64, state_root: PathBuf) -> Gossip {
        let mut rng = Rng::new(seed);
        let principals: Vec<String> = (0..NODES).map(|i| format!("n{i}")).collect();
        let mut order: Vec<usize> = (0..NODES).collect();
        for i in (1..NODES).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut specs: Vec<NodeSpec> = principals.iter().map(NodeSpec::new).collect();
        let mut links = Vec::new();
        for k in 0..NODES {
            let (a, b) = (order[k], order[(k + 1) % NODES]);
            for (x, y) in [(a, b), (b, a)] {
                links.push((principals[x].clone(), principals[y].clone()));
                specs[x]
                    .base_facts
                    .push(("link".into(), vec![s(&principals[x]), s(&principals[y])]));
            }
        }
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            seed: rng.next_u64(),
            streaming: StreamingConfig::with_knobs(DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER),
            reactor: ReactorConfig::with_threads(THREADS),
            ..DeploymentConfig::default()
        };
        Gossip {
            principals,
            links,
            specs,
            config,
            state_root,
            builds: 0,
        }
    }

    /// A configuration with a fresh, empty durability directory.
    fn durable_config(&mut self) -> (DeploymentConfig, PathBuf) {
        self.builds += 1;
        let dir = fresh_dir(&self.state_root, &format!("gossip-{}", self.builds));
        let mut config = self.config.clone();
        config.durability = Some(DurabilityConfig::new(&dir));
        (config, dir)
    }

    /// The closed form: every node knows every directed ring link, has said
    /// each to every other principal, and has been told each by every other
    /// principal.
    fn oracle(&self, deployment: &Deployment, checks: &mut Checks, when: &str) {
        let encode = |t: &Vec<secureblox::Value>| serialize_tuple(t);
        let all_links: BTreeSet<Vec<u8>> = self
            .links
            .iter()
            .map(|(x, y)| serialize_tuple(&[s(x), s(y)]))
            .collect();
        let mut ok = true;
        for p in &self.principals {
            let remote: BTreeSet<Vec<u8>> = deployment
                .query(p, "remote_link")
                .iter()
                .map(encode)
                .collect();
            let mut expected = BTreeSet::new();
            for u in self.principals.iter().filter(|u| *u != p) {
                for (x, y) in &self.links {
                    expected.insert(serialize_tuple(&[s(p), s(u), s(x), s(y)]));
                    expected.insert(serialize_tuple(&[s(u), s(p), s(x), s(y)]));
                }
            }
            let says: BTreeSet<Vec<u8>> = deployment
                .query(p, "says$remote_link")
                .iter()
                .map(encode)
                .collect();
            ok &= remote == all_links && says == expected;
        }
        checks.check(&format!("gossip closed form {when}"), ok);
    }

    fn reference(&mut self, checks: &mut Checks) -> Result<Duration, String> {
        let (mut config, dir) = self.durable_config();
        config.reactor = ReactorConfig::disabled();
        let mut deployment = checks.op("build", Deployment::build(APP, &self.specs, config))?;
        let started = Instant::now();
        checks.op("run", deployment.run())?;
        let wall = started.elapsed();
        self.oracle(&deployment, checks, "on the reference executor");
        drop(deployment);
        let _ = std::fs::remove_dir_all(dir);
        Ok(wall)
    }
}

impl Workload for Gossip {
    fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    fn app_source(&self) -> &str {
        APP
    }

    fn durable(&self) -> bool {
        true
    }

    fn reference_converge(&mut self, checks: &mut Checks) -> Option<Result<Duration, String>> {
        Some(self.reference(checks))
    }

    fn specs(&self) -> &[NodeSpec] {
        &self.specs
    }

    fn principals(&self) -> &[String] {
        &self.principals
    }

    fn fresh(&mut self) -> (DeploymentConfig, Option<PathBuf>) {
        let (config, dir) = self.durable_config();
        (config, Some(dir))
    }

    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Result<Rep, String> {
        let (config, dir) = self.durable_config();
        let job = t.begin("job");
        let (built, setup) = t.time("build", || {
            Deployment::build(APP, &self.specs, config.clone())
        });
        let mut deployment = checks.op("build", built)?;
        let open = t.begin_on("run", THREADS);
        let report = checks.op("run", deployment.run())?;
        let converge = t.end(open);

        let open = t.begin("oracle");
        self.oracle(&deployment, checks, "after converge");
        let deltas = deltas_received(&deployment, &self.principals);
        let payloads = payload_sample(&deployment, &self.principals);
        t.end(open);

        let (roots, _) = t.time("query", || deployment.edb_roots());
        let roots = checks.op("edb_roots", roots)?;
        let (checkpoint, _) = t.time("checkpoint", || deployment.checkpoint());
        checks.op("checkpoint", checkpoint)?;
        drop(deployment);

        let (recovered, recover_wall) = t.time("recover", || {
            Deployment::recover(&dir, APP, &self.specs, config.clone())
        });
        let mut recovered = checks.op("recover", recovered)?;
        let open = t.begin_on("rerun", THREADS);
        checks.op("run after recover", recovered.run())?;
        let rerun_wall = t.end(open);

        let open = t.begin("oracle");
        let after = checks.op("edb_roots after recover", recovered.edb_roots())?;
        checks.check("edb roots equal after recovery", after == roots);
        self.oracle(&recovered, checks, "after recovery");
        t.end(open);
        t.end(job);
        drop(recovered);
        let _ = std::fs::remove_dir_all(dir);

        Ok(Rep {
            setup,
            converge,
            deltas,
            wire_kb_per_node: report.per_node_kb,
            recover: Some(recover_wall + rerun_wall),
            changes: Vec::new(),
            forged: 0,
            replays: 0,
            payloads,
            report,
        })
    }
}

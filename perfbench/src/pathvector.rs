//! `pathvector_rsa`: the paper's §7.1 path-vector protocol on a degree-3
//! random graph, RSA signatures with AES encryption, every other
//! deployment field at its default.

use crate::common::{deltas_received, s, Checks, Rep, Rng};
use crate::trace::Tracer;
use crate::workload::{payload_sample, Workload};
use secureblox::apps::pathvector::{app_source, node_specs, principal_name, random_graph};
use secureblox::policy::SecurityConfig;
use secureblox::{AuthScheme, Deployment, DeploymentConfig, EncScheme, NodeSpec, Value};
use secureblox_datalog::codec::serialize_tuple;
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;

/// Nodes in the generated graph.
pub const NODES: usize = 5;
/// Average degree of the generated graph (the paper's setting).
const DEGREE: usize = 3;
/// Seed of the generated graph.  The run's seed sets the deployment seed
/// (the RSA keys) only: graphs, and even relabellings of one graph, differ
/// in path counts and so in work by 20% to 2x at this size, which would
/// swamp every comparison across seeds.
const GRAPH_SEED: u64 = 1;

pub struct PathVector {
    app: String,
    principals: Vec<String>,
    edges: Vec<(usize, usize)>,
    specs: Vec<NodeSpec>,
    config: DeploymentConfig,
}

impl PathVector {
    pub fn new(seed: u64) -> PathVector {
        let edges = random_graph(NODES, DEGREE, GRAPH_SEED);
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::Rsa, EncScheme::Aes128),
            seed: Rng::new(seed).next_u64(),
            // The app's "not already on the path" guard negates a recursive
            // predicate; the protocol needs it.
            allow_recursive_negation: true,
            ..DeploymentConfig::default()
        };
        PathVector {
            app: app_source(),
            principals: (0..NODES).map(principal_name).collect(),
            specs: node_specs(NODES, &edges),
            edges,
            config,
        }
    }

    /// Hop distances from `from` by breadth-first search.
    fn hops_from(&self, from: usize) -> Vec<Option<i64>> {
        let mut dist = vec![None; NODES];
        dist[from] = Some(0);
        let mut queue = VecDeque::from([from]);
        while let Some(at) = queue.pop_front() {
            let next = dist[at].map(|d| d + 1);
            for &(a, b) in &self.edges {
                for (x, y) in [(a, b), (b, a)] {
                    if x == at && dist[y].is_none() {
                        dist[y] = next;
                        queue.push_back(y);
                    }
                }
            }
        }
        dist
    }

    /// Every node's `bestcost` equals its breadth-first hop distances.
    fn oracle(&self, deployment: &Deployment, checks: &mut Checks) {
        let mut ok = true;
        for (i, principal) in self.principals.iter().enumerate() {
            let expected: BTreeSet<Vec<u8>> = self
                .hops_from(i)
                .iter()
                .enumerate()
                .filter(|&(j, d)| j != i && d.is_some())
                .map(|(j, d)| {
                    serialize_tuple(&[
                        s(principal),
                        s(&self.principals[j]),
                        Value::Int(d.expect("filtered to reachable")),
                    ])
                })
                .collect();
            let actual: BTreeSet<Vec<u8>> = deployment
                .query(principal, "bestcost")
                .iter()
                .map(|t| serialize_tuple(t))
                .collect();
            ok &= actual == expected;
        }
        checks.check("bestcost equals BFS hop distance", ok);
    }
}

impl Workload for PathVector {
    fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    fn app_source(&self) -> &str {
        &self.app
    }

    fn durable(&self) -> bool {
        false
    }

    fn specs(&self) -> &[NodeSpec] {
        &self.specs
    }

    fn principals(&self) -> &[String] {
        &self.principals
    }

    fn fresh(&mut self) -> (DeploymentConfig, Option<PathBuf>) {
        (self.config.clone(), None)
    }

    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Result<Rep, String> {
        let job = t.begin("job");
        let (built, setup) = t.time("build", || {
            Deployment::build(&self.app, &self.specs, self.config.clone())
        });
        let mut deployment = checks.op("build", built)?;
        let (report, converge) = t.time("run", || deployment.run());
        let report = checks.op("run", report)?;
        let open = t.begin("oracle");
        self.oracle(&deployment, checks);
        let deltas = deltas_received(&deployment, &self.principals);
        let payloads = payload_sample(&deployment, &self.principals);
        t.end(open);
        t.end(job);
        Ok(Rep {
            setup,
            converge,
            deltas,
            wire_kb_per_node: report.per_node_kb,
            recover: None,
            changes: Vec::new(),
            forged: 0,
            replays: 0,
            payloads,
            report,
        })
    }
}

//! `sharded_ingest`: the partition-blind shard-layer hash join of
//! `benches/shard_scaling.rs` with preloaded tables, then an open-loop
//! generator of single-row changes, forged and replayed envelopes, a
//! checkpoint, a further WAL suffix, recovery and a run back to quiescence.

use crate::common::{deltas_received, fresh_dir, ChangeSample, Checks, Rep, Rng};
use crate::trace::Tracer;
use crate::workload::{payload_sample, Workload};
use secureblox::apps::hashjoin::{generate_tables, principal_name, HashJoinConfig};
use secureblox::policy::SecurityConfig;
use secureblox::runtime::stream::{DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER};
use secureblox::runtime::{
    DeltaOp, ShardMap, ShardRing, StreamingConfig, UpdateDelta, UpdateEnvelope,
};
use secureblox::{
    AuthScheme, Deployment, DeploymentConfig, DurabilityConfig, EncScheme, NodeSpec, Value,
};
use secureblox_crypto::{hmac_sha1, KeyStore};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Nodes in the shard group.
pub const NODES: usize = 8;
const ROWS_A_PER_NODE: usize = 60;
const ROWS_B_PER_NODE: usize = 50;
const DISTINCT_PER_NODE: usize = 18;
/// Offered load: changes per second, and the length of the open-loop phase.
pub const RATE: f64 = 20.0;
pub const CHANGE_SECONDS: f64 = 1.5;
/// Changes applied after the checkpoint, so recovery replays a WAL suffix.
const SUFFIX_CHANGES: usize = 16;
/// One change in this many carries a forged envelope, and one in this many
/// a replayed one.
const ADVERSARY_EVERY: usize = 8;
/// Row ids of generated inserts start here, above every preloaded id.
const FIRST_A_ID: i64 = 1_000_000;
const FIRST_B_ID: i64 = 2_000_000;

/// Join written partition-blind: the shard planner rewrites both body atoms
/// to their copies rehashed on the join column.
const APP: &str = r#"
    tableA(E1, E2) -> int[32](E1), int[32](E2).
    tableB(E3, E2) -> int[32](E3), int[32](E2).
    joinresult(E1, E2, E3) -> int[32](E1), int[32](E2), int[32](E3).

    joinresult(E1, E2, E3) <- tableA(E1, E2), tableB(E3, E2).
"#;

/// A row of `tableA` (`id`, `join`) or `tableB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Row {
    table_a: bool,
    id: i64,
    join: i64,
}

impl Row {
    fn fact(&self) -> (String, Tuple) {
        let pred = if self.table_a { "tableA" } else { "tableB" };
        (
            pred.into(),
            vec![Value::Int(self.id), Value::Int(self.join)],
        )
    }
}

/// One generated change.
#[derive(Debug, Clone, Copy)]
struct Change {
    row: Row,
    insert: bool,
    forge: bool,
    replay: bool,
}

/// The live rows and the seeded change generator over them.
struct Generator {
    rng: Rng,
    join_values: Vec<i64>,
    live: BTreeSet<Row>,
    inserted: Vec<Row>,
    next_a: i64,
    next_b: i64,
    count: usize,
}

impl Generator {
    /// Three of four changes insert a row with a skewed join key; the
    /// fourth retracts a row an earlier change inserted.
    fn next(&mut self) -> Change {
        let k = self.count;
        self.count += 1;
        let (row, insert) = if k % 4 == 3 && !self.inserted.is_empty() {
            let row = self
                .inserted
                .swap_remove(self.rng.below(self.inserted.len()));
            (row, false)
        } else {
            let skewed = self.rng.unit().powi(2);
            let join = self.join_values[(skewed * self.join_values.len() as f64) as usize];
            let table_a = self.rng.below(2) == 0;
            let id = if table_a {
                self.next_a += 1;
                self.next_a
            } else {
                self.next_b += 1;
                self.next_b
            };
            let row = Row { table_a, id, join };
            self.inserted.push(row);
            (row, true)
        };
        if insert {
            self.live.insert(row);
        } else {
            self.live.remove(&row);
        }
        Change {
            row,
            insert,
            forge: self.rng.below(ADVERSARY_EVERY) == 0,
            replay: self.rng.below(ADVERSARY_EVERY) == 0,
        }
    }

    /// The join of the live rows, as `joinresult` tuples.
    fn expected_join(&self) -> BTreeSet<Vec<u8>> {
        let mut by_join: HashMap<i64, Vec<i64>> = HashMap::new();
        for row in self.live.iter().filter(|r| !r.table_a) {
            by_join.entry(row.join).or_default().push(row.id);
        }
        let mut out = BTreeSet::new();
        for a in self.live.iter().filter(|r| r.table_a) {
            for &b in by_join.get(&a.join).into_iter().flatten() {
                out.insert(serialize_tuple(&[
                    Value::Int(a.id),
                    Value::Int(a.join),
                    Value::Int(b),
                ]));
            }
        }
        out
    }
}

pub struct Ingest {
    principals: Vec<String>,
    specs: Vec<NodeSpec>,
    config: DeploymentConfig,
    base: Vec<Row>,
    join_values: Vec<i64>,
    schedule_seed: u64,
    ring: ShardRing,
    keys: KeyStore,
    state_root: PathBuf,
    builds: usize,
}

/// A seeded adversarial envelope and the tuple whose fate shows whether
/// the receiver accepted it.
struct Injected {
    to: String,
    says: String,
    tuple: Tuple,
    forged: bool,
}

impl Ingest {
    pub fn new(seed: u64, state_root: PathBuf) -> Result<Ingest, String> {
        let mut rng = Rng::new(seed);
        let tables = HashJoinConfig {
            num_nodes: NODES,
            table_a_rows: ROWS_A_PER_NODE * NODES,
            table_b_rows: ROWS_B_PER_NODE * NODES,
            distinct_join_values: DISTINCT_PER_NODE * NODES,
            seed: rng.next_u64(),
            ..HashJoinConfig::default()
        };
        let (table_a, table_b) = generate_tables(&tables);
        let mut base = Vec::new();
        for (id, join) in table_a {
            base.push(Row {
                table_a: true,
                id,
                join,
            });
        }
        for (id, join) in table_b {
            base.push(Row {
                table_a: false,
                id,
                join,
            });
        }
        let join_values: Vec<i64> = base
            .iter()
            .map(|r| r.join)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let principals: Vec<String> = (0..NODES).map(principal_name).collect();
        let map = ShardMap::new(principals.clone())
            .shard("tableA", 0)
            .shard("tableB", 0);
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            seed: rng.next_u64(),
            shared_facts: base.iter().map(Row::fact).collect(),
            sharding: Some(map.clone()),
            streaming: StreamingConfig::with_knobs(DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER),
            ..DeploymentConfig::default()
        };
        let keys = KeyStore::provision_secrets_only(&principals, config.seed)
            .map_err(|e| format!("key provisioning: {e}"))?;
        Ok(Ingest {
            specs: principals.iter().map(NodeSpec::new).collect(),
            principals,
            config,
            base,
            join_values,
            schedule_seed: rng.next_u64(),
            ring: map.ring(),
            keys,
            state_root,
            builds: 0,
        })
    }

    /// A configuration with a fresh, empty durability directory.
    fn durable_config(&mut self) -> (DeploymentConfig, PathBuf) {
        self.builds += 1;
        let dir = fresh_dir(&self.state_root, &format!("ingest-{}", self.builds));
        let mut config = self.config.clone();
        config.durability = Some(DurabilityConfig::new(&dir));
        (config, dir)
    }

    fn generator(&self) -> Generator {
        Generator {
            rng: Rng::new(self.schedule_seed),
            join_values: self.join_values.clone(),
            live: self.base.iter().copied().collect(),
            inserted: Vec::new(),
            next_a: FIRST_A_ID,
            next_b: FIRST_B_ID,
            count: 0,
        }
    }

    /// Submit one change: an insert through `ingest`, a retraction at the
    /// row's ring owner through `retract`.
    fn submit(&self, deployment: &mut Deployment, change: &Change) -> Result<(), String> {
        let fact = change.row.fact();
        let result = if change.insert {
            deployment.ingest(vec![fact])
        } else {
            let owner = self.ring.owner_of(&Value::Int(change.row.id)).to_string();
            deployment.retract(&owner, vec![fact])
        };
        result.map_err(|e| e.to_string())
    }

    /// Inject a forged envelope (a preloaded exchange tuple with a changed
    /// join value under a zero tag) or a replayed one (a correctly signed
    /// withdrawal of a preloaded exchange tuple under the link's first,
    /// long-accepted stream sequence).  Tuples of preloaded rows are never
    /// touched by the generator, so the receiver's state shows the verdict.
    fn inject(
        &self,
        deployment: &mut Deployment,
        rng: &mut Rng,
        forged: bool,
        serial: u64,
    ) -> Option<Injected> {
        let to_index = rng.below(NODES);
        let to = &self.principals[to_index];
        let preds = deployment.exportable_predicates().to_vec();
        let pred = &preds[rng.below(preds.len())];
        let says = format!("says${pred}");
        let candidates: Vec<Tuple> = deployment
            .query(to, &says)
            .into_iter()
            .filter(|t| {
                t.len() > 2
                    && t[1].as_str() == Some(to)
                    && t[0].as_str() != Some(to)
                    && t.iter()
                        .skip(2)
                        .all(|v| v.as_int().is_some_and(|i| i < FIRST_A_ID))
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let mut tuple = candidates[rng.below(candidates.len())].clone();
        let from = tuple[0].as_str()?.to_string();
        let from_index = self.principals.iter().position(|p| *p == from)?;
        let (op, seq, signature) = if forged {
            let last = tuple.len() - 1;
            tuple[last] = Value::Int(-1 - serial as i64);
            (DeltaOp::Assert, u64::MAX / 2 + serial, vec![0u8; 20])
        } else {
            let secret = self.keys.shared_secret(to, &from).ok()?;
            let tag = hmac_sha1(secret, &serialize_tuple(&tuple[2..])).to_vec();
            (DeltaOp::Retract, 1, tag)
        };
        let envelope = UpdateEnvelope {
            seq,
            deltas: vec![UpdateDelta {
                op,
                pred: pred.clone(),
                tuple: tuple.clone(),
                signature,
            }],
        };
        deployment.inject_message(from_index, to_index, envelope.encode());
        Some(Injected {
            to: to.clone(),
            says,
            tuple,
            forged,
        })
    }

    fn join_matches(&self, deployment: &Deployment, generator: &Generator) -> bool {
        let actual: BTreeSet<Vec<u8>> = deployment
            .query_union("joinresult")
            .iter()
            .map(|t| serialize_tuple(t))
            .collect();
        actual == generator.expected_join()
    }
}

impl Workload for Ingest {
    fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    fn app_source(&self) -> &str {
        APP
    }

    fn durable(&self) -> bool {
        true
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
        let (report, converge) = t.time("run", || deployment.run());
        let mut report = checks.op("run", report)?;
        let open = t.begin("oracle");
        let mut generator = self.generator();
        checks.check(
            "join after converge",
            self.join_matches(&deployment, &generator),
        );
        let deltas = deltas_received(&deployment, &self.principals);
        let payloads = payload_sample(&deployment, &self.principals);
        t.end(open);

        // Open loop: change k is due at k / RATE after the phase starts,
        // whatever the system is doing.  Every due change is submitted with
        // its own call, then one run() makes the tick's changes visible.
        let total = (RATE * CHANGE_SECONDS) as usize;
        let mut adversary = Rng::new(self.schedule_seed ^ 0xad);
        let mut changes = Vec::with_capacity(total);
        let (mut forged, mut replays) = (0u64, 0u64);
        let phase = Instant::now();
        let due = |k: usize| phase + Duration::from_secs_f64(k as f64 / RATE);
        let mut next = 0usize;
        while next < total {
            let now = Instant::now();
            if now < due(next) {
                let open = t.begin("idle");
                std::thread::sleep(due(next) - now);
                t.end(open);
                continue;
            }
            let mut tick = Vec::new();
            while next < total && due(next) <= now {
                tick.push(next);
                next += 1;
            }
            let mut lags = Vec::with_capacity(tick.len());
            let mut injected = Vec::new();
            for &k in &tick {
                let change = generator.next();
                let submitted = Instant::now();
                lags.push(submitted - due(k));
                let (result, _) = t.time("commit", || self.submit(&mut deployment, &change));
                checks.op("ingest/retract", result)?;
                for (wanted, is_forged) in [(change.forge, true), (change.replay, false)] {
                    if wanted {
                        let open = t.begin("inject");
                        let serial = forged + replays;
                        let done = self.inject(&mut deployment, &mut adversary, is_forged, serial);
                        t.end(open);
                        if let Some(done) = done {
                            forged += u64::from(done.forged);
                            replays += u64::from(!done.forged);
                            injected.push(done);
                        }
                    }
                }
            }
            let rejected_before = report.rejected_batches;
            let (result, _) = t.time("run", || deployment.run());
            report = checks.op("run", result)?;
            let visible = Instant::now();
            for (&k, lag) in tick.iter().zip(lags) {
                changes.push(ChangeSample {
                    lag,
                    latency: visible - due(k),
                });
            }
            if !injected.is_empty() {
                let open = t.begin("oracle");
                let n_forged = injected.iter().filter(|i| i.forged).count();
                let rejected = report.rejected_batches - rejected_before;
                checks.check("every forged envelope rejected", rejected >= n_forged);
                for i in &injected {
                    let present = deployment.query(&i.to, &i.says).contains(&i.tuple);
                    let what = if i.forged {
                        "forged assert"
                    } else {
                        "replayed retract"
                    };
                    checks.check(&format!("{what} not accepted"), present != i.forged);
                }
                t.end(open);
            }
        }
        let open = t.begin("oracle");
        checks.check(
            "join after open loop",
            self.join_matches(&deployment, &generator),
        );
        t.end(open);

        let (checkpoint, _) = t.time("checkpoint", || deployment.checkpoint());
        checks.op("checkpoint", checkpoint)?;
        for _ in 0..SUFFIX_CHANGES {
            let change = generator.next();
            let (result, _) = t.time("commit", || self.submit(&mut deployment, &change));
            checks.op("ingest/retract", result)?;
        }
        let (result, _) = t.time("run", || deployment.run());
        report = checks.op("run", result)?;
        let (roots, _) = t.time("query", || deployment.edb_roots());
        let roots = checks.op("edb_roots", roots)?;
        drop(deployment);

        let (recovered, recover_wall) = t.time("recover", || {
            Deployment::recover(&dir, APP, &self.specs, config.clone())
        });
        let mut recovered = checks.op("recover", recovered)?;
        let (result, rerun_wall) = t.time("rerun", || recovered.run());
        checks.op("run after recover", result)?;
        let open = t.begin("oracle");
        let after = checks.op("edb_roots after recover", recovered.edb_roots())?;
        checks.check("edb roots equal after recovery", after == roots);
        checks.check(
            "join after recovery",
            self.join_matches(&recovered, &generator),
        );
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
            changes,
            forged,
            replays,
            payloads,
            report,
        })
    }
}

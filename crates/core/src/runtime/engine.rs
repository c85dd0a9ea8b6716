//! The distributed query processor: simulated nodes, each running a
//! transactional DatalogLB workspace, exchanging authenticated (and
//! optionally encrypted) batches of `says` tuples over a discrete-event
//! network.
//!
//! Execution model (paper §5):
//!
//! * every node installs the same compiled program (queries + policies),
//! * a batch of incoming facts is processed in a local ACID transaction —
//!   insert, fixpoint, constraint check, commit or roll back,
//! * all inter-node state flow rides one **authenticated update stream**: an
//!   exported batch is an ordered sequence of signed `Assert`/`Retract`
//!   deltas ([`UpdateEnvelope`]), shipped FIFO per link.  `Assert` deltas
//!   carry newly derived `says$T` tuples (serialized, signed per the
//!   generated `sig$T` rules, optionally AES-encrypted); the receiver inserts
//!   the `says$T` and `sig$T` facts and its own constraints decide whether to
//!   accept them.  `Retract` deltas withdraw previously shipped tuples under
//!   the same detached signature; the receiver verifies it, DRed-maintains
//!   everything derived from the fact, logs the retraction to its WAL, and
//!   propagates any cascaded withdrawals onward through its own streams,
//! * anonymity-circuit traffic (`anon_says$T`) wraps the same delta envelope
//!   in onion layers and is relayed hop by hop.
//!
//! Virtual time: each node's transaction advances its own clock by the
//! *measured* wall-clock compute time, and the network adds latency per
//! message, so the latency / convergence figures reflect N nodes running in
//! parallel even though the simulation executes them in one process.

use crate::policy::{compile_secured_program, SecurityConfig};
use crate::runtime::codec::{serialize_tuple, DeltaOp, UpdateDelta, UpdateEnvelope};
use crate::runtime::reactor::ReactorConfig;
use crate::runtime::replication::ReplicaState;
use crate::runtime::shard::{self, ShardMap, ShardReport};
use crate::runtime::stats::{self, NodeStats};
use crate::runtime::stream::{
    LinkOutbox, StreamingConfig, DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER,
};
use crate::runtime::udfs::register_crypto_udfs;
use secureblox_crypto::{
    aes128_ctr_decrypt, aes128_ctr_encrypt, hmac_sha1_verify, AuthScheme, EncScheme, KeyStore,
    RsaSignature,
};
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::eval::shuffle::{is_exchange_pred, ExchangeSummary};
use secureblox_datalog::value::{tuple_total_cmp, Tuple, Value};
use secureblox_datalog::{column_set, EvalConfig, EvalOptions, PlanStatsSnapshot, Workspace};
use secureblox_net::{
    LatencyModel, Message, MessageKind, NodeId, NodeInfo, SimNetwork, VirtualTime,
};
use secureblox_store::{derive_node_key, DurabilityConfig, FactStore};
use secureblox_telemetry::HistogramSummary;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Specification of one simulated node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The principal hosted at this node (also used as its node name).
    pub principal: String,
    /// Facts delivered to the node at virtual time zero.
    pub base_facts: Vec<(String, Tuple)>,
}

impl NodeSpec {
    /// A node with no initial facts.
    pub fn new(principal: impl Into<String>) -> Self {
        NodeSpec {
            principal: principal.into(),
            base_facts: Vec::new(),
        }
    }
}

/// An anonymity circuit to pre-establish at deployment time.
#[derive(Debug, Clone)]
pub struct CircuitSpec {
    pub initiator: String,
    pub relays: Vec<String>,
    pub endpoint: String,
}

/// Deployment-wide configuration.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    pub security: SecurityConfig,
    pub latency: LatencyModel,
    /// Seed for key provisioning (experiments vary it per trial).
    pub seed: u64,
    /// Permit recursive negation (needed by the path-vector protocol's
    /// "do not advertise to a node already on the path" guard).
    pub allow_recursive_negation: bool,
    /// Disable static type checking for programs with intentionally partial
    /// schemas.
    pub strict_typing: bool,
    /// Singletons set identically on every node (e.g. `initiator[]`).
    pub singletons: Vec<(String, Value)>,
    /// Additional facts asserted on every node (e.g. `node(X)` universe).
    pub shared_facts: Vec<(String, Tuple)>,
    /// Anonymity circuits to establish.
    pub circuits: Vec<CircuitSpec>,
    /// Extra policy sources appended to the generated `says` policy.
    pub extra_policies: Vec<String>,
    /// When true (the default), every node's `trustworthy` relation is
    /// pre-populated with every principal.  Set to false to provision trust
    /// explicitly through [`NodeSpec::base_facts`] or
    /// [`DeploymentConfig::shared_facts`] — required to exercise the
    /// `Trustworthy` / `PerPredicate` delegation models of paper §6.1.
    pub grant_default_trust: bool,
    /// When true (the default) and the policy enables `write_access`, every
    /// principal is granted `writeAccess[T]` for every exportable predicate.
    /// Set to false to grant write access explicitly per node.
    pub grant_default_write_access: bool,
    /// When set, every node persists its dynamic base facts to an HMAC-chained
    /// WAL under `durability.dir/<principal>`, enabling
    /// [`Deployment::checkpoint`] and [`Deployment::recover`].
    pub durability: Option<DurabilityConfig>,
    /// Per-node evaluation parallelism: each node's workspace hash-partitions
    /// its fixpoint deltas across this many workers (`<= 1` means serial).
    /// The default honours `SECUREBLOX_WORKERS`.
    pub parallelism: usize,
    /// Update-stream knobs: per-link delta batching, annihilation, and
    /// credit-based backpressure.
    pub streaming: StreamingConfig,
    /// Maximum data-plane deliveries one [`Deployment::run`] will process
    /// before declaring the protocol non-convergent.
    pub message_budget: usize,
    /// Event-driven reactor executor: nodes run as wall-clock-parallel worker
    /// tasks woken by message arrival instead of turns in the virtual-time
    /// loop.
    pub reactor: ReactorConfig,
    /// Horizontal EDB sharding: when set (and active), base facts of the
    /// mapped relations are routed to their consistent-hash ring owner at
    /// build/ingest time, and cross-partition rule evaluation goes through
    /// planner-generated exchange dataflows over the signed update stream
    /// (see `runtime::shard`).
    pub sharding: Option<ShardMap>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig::from_env()
    }
}

impl DeploymentConfig {
    /// The defaults with every `SECUREBLOX_*` runtime knob set in the
    /// environment applied — this crate's one env-parse point, so CI can run
    /// the whole suite under other settings unchanged: `_BATCH_MAX` and
    /// `_QUEUE_HIGH_WATER` (the [`StreamingConfig`]), `_REACTOR` (any value
    /// but empty, `0`, `false`, `off`) and `_REACTOR_THREADS`,
    /// `_MESSAGE_BUDGET` (default 10 million deliveries), and
    /// `_DURABILITY_DIR` (each deployment gets a fresh subdirectory, since a
    /// fresh build refuses one with state).  Unparsable or zero counts keep
    /// their defaults; `SECUREBLOX_WORKERS` belongs to the datalog crate.
    pub fn from_env() -> Self {
        static DURABLE_DEPLOYMENTS: AtomicU64 = AtomicU64::new(0);
        DeploymentConfig {
            security: SecurityConfig::default(),
            latency: LatencyModel::default(),
            seed: 1,
            allow_recursive_negation: false,
            strict_typing: true,
            singletons: Vec::new(),
            shared_facts: Vec::new(),
            circuits: Vec::new(),
            extra_policies: Vec::new(),
            grant_default_trust: true,
            grant_default_write_access: true,
            durability: env_knob::<PathBuf>("SECUREBLOX_DURABILITY_DIR").map(|base| {
                let unique = DURABLE_DEPLOYMENTS.fetch_add(1, Ordering::Relaxed);
                DurabilityConfig::new(base.join(format!("deploy-{}-{unique}", std::process::id())))
            }),
            parallelism: EvalOptions::default().workers,
            streaming: StreamingConfig::with_knobs(
                env_count("SECUREBLOX_BATCH_MAX", DEFAULT_BATCH_MAX),
                env_count("SECUREBLOX_QUEUE_HIGH_WATER", DEFAULT_QUEUE_HIGH_WATER),
            ),
            message_budget: env_count("SECUREBLOX_MESSAGE_BUDGET", 10_000_000),
            reactor: reactor_from_env(),
            sharding: None,
        }
    }
}

/// The executor `SECUREBLOX_REACTOR` and `SECUREBLOX_REACTOR_THREADS`
/// select — [`DeploymentConfig::from_env`]'s `reactor`.
pub(crate) fn reactor_from_env() -> ReactorConfig {
    ReactorConfig {
        enabled: env_knob::<String>("SECUREBLOX_REACTOR").is_some_and(|v| {
            !matches!(v.to_ascii_lowercase().as_str(), "" | "0" | "false" | "off")
        }),
        threads: env_count(
            "SECUREBLOX_REACTOR_THREADS",
            ReactorConfig::default().threads,
        ),
    }
}

/// The trimmed value of environment variable `name`, parsed; `None` when it
/// is unset or does not parse.
fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// A positive count from environment variable `name`, else `default`.
fn env_count(name: &str, default: usize) -> usize {
    env_knob(name).filter(|&v| v >= 1).unwrap_or(default)
}

/// Whether a message kind spends the non-convergence budget.  Control
/// traffic (credit grants) is caused by — and bounded by — data-plane
/// deliveries, so only the latter count.
pub(crate) fn is_data_plane(kind: MessageKind) -> bool {
    matches!(
        kind,
        MessageKind::Update | MessageKind::AnonForward | MessageKind::AnonBackward
    )
}

/// Summary of one deployment run — the quantities the paper's figures plot.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Figure label, e.g. `RSA-AES`.
    pub label: String,
    pub num_nodes: usize,
    /// Virtual time until no node had any further work (Figures 4/5).
    pub fixpoint_latency: Duration,
    /// Average committed-transaction duration (Figure 7).
    pub average_transaction: Duration,
    /// Average per-node communication overhead in KB (Figures 6/12).
    pub per_node_kb: f64,
    pub total_transactions: usize,
    /// Batches refused by a security constraint (unknown principal, invalid
    /// signature, missing write access, forbidden delegation, undecryptable
    /// payload).
    pub rejected_batches: usize,
    /// Batches rolled back by a functional-dependency conflict — duplicate
    /// data rather than a security decision.  The path-vector protocol
    /// produces these when the same path entity is advertised to a node along
    /// two different branches (see `apps::pathvector`).
    pub conflicting_batches: usize,
    /// Retraction deltas verified and applied across all nodes (distributed
    /// retraction through the update stream).
    pub retractions_applied: usize,
    /// Per-node convergence times (Figures 8/9).
    pub convergence_times: Vec<Duration>,
    /// Per-node sent bytes.
    pub per_node_bytes: Vec<usize>,
    pub total_messages: usize,
    /// Planner / index counters summed over every node's workspace (plan
    /// cache hits, index probes, full scans, …) for the bench harness.
    pub plan: PlanStatsSnapshot,
    /// The per-node worker-pool size the deployment ran with.
    pub workers: usize,
    /// Fraction of the worker pool kept busy across sharded evaluations:
    /// `shards_executed / (parallel_batches × workers)`.  `0.0` when every
    /// batch stayed on the serial path.
    pub worker_utilization: f64,
    /// Median committed-transaction (apply) latency across all nodes — the
    /// p50 figure of the streaming-throughput benchmark.
    pub apply_latency_p50: Duration,
    /// 99th-percentile committed-transaction (apply) latency.
    pub apply_latency_p99: Duration,
    /// Named latency-histogram summaries (p50/p90/p99/max, nanoseconds) from
    /// the process-wide telemetry registry at report time: fixpoint latency
    /// (`datalog_fixpoint_ns`), WAL appends (`store_wal_append_ns`),
    /// update-stream applies (`engine_update_apply_ns`), and every other
    /// histogram the run touched.  Registry-wide and monotone across runs in
    /// one process, unlike the per-run fields above.
    pub telemetry: Vec<HistogramSummary>,
    /// Shard-plane view — partition population, exchange traffic, planner
    /// classification, skew — when the deployment runs with an active
    /// [`DeploymentConfig::sharding`] map.
    pub shard: Option<ShardReport>,
}

impl DeploymentReport {
    /// Cumulative fraction of nodes converged at `samples` evenly spaced
    /// points in time (the series of Figures 8 and 9).
    pub fn convergence_cdf(&self, samples: usize) -> Vec<(Duration, f64)> {
        let end = self
            .convergence_times
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
            .max(Duration::from_nanos(1));
        let n = self.convergence_times.len().max(1);
        (0..=samples)
            .map(|i| {
                let t = end.mul_f64(i as f64 / samples.max(1) as f64);
                let converged = self.convergence_times.iter().filter(|&&c| c <= t).count();
                (t, converged as f64 / n as f64)
            })
            .collect()
    }
}

/// A pre-established anonymity circuit.
#[derive(Debug, Clone)]
pub(crate) struct Circuit {
    id: u64,
    initiator: usize,
    /// Relay node indices in forward order.
    relays: Vec<usize>,
    endpoint: usize,
    /// Per-hop symmetric keys: one per relay, then the endpoint's key.
    keys: Vec<Vec<u8>>,
}

/// State of one simulated node.
pub(crate) struct NodeState {
    pub(crate) info: NodeInfo,
    pub(crate) workspace: Workspace,
    /// Outgoing `says`/`anon` tuples already exported, mapped to the detached
    /// signature they shipped with.  Membership deduplicates asserts; a tuple
    /// that later disappears from the workspace is withdrawn through the same
    /// channel as a `Retract` delta carrying the recorded signature, and its
    /// entry is removed so a re-derivation re-asserts it.
    pub(crate) sent: HashMap<(String, Tuple), Vec<u8>>,
    pub(crate) available_at: VirtualTime,
    pub(crate) pending_bootstrap: Vec<(String, Tuple)>,
    /// The node's durable fact store, when durability is configured.
    pub(crate) store: Option<FactStore>,
    /// Set after a local or delivered retraction: the next flush scans `sent`
    /// for withdrawn exports.  Insert-only transactions never remove `says`
    /// tuples, so the scan is skipped on the common path.
    pub(crate) needs_retraction_scan: bool,
    /// Highest update-stream sequence number seen per sending node, used to
    /// drop stale duplicates (at-most-once application per delta).
    pub(crate) last_update_seq_in: HashMap<u32, u64>,
    /// Per-destination update-stream sequence counters (sender side).  Owned
    /// by the sending node so reactor tasks never share counter state.
    pub(crate) stream_seq: HashMap<usize, u64>,
    /// Bytes of exchange-relation deltas (`shard_xchg_*` / `shard_bcast_*`)
    /// this node shipped on the update stream — the wire cost of the shard
    /// plane, separated from ordinary `says` traffic.
    pub(crate) exchange_bytes: usize,
    /// This node's transactions, verdicts and sent traffic, recorded by its
    /// own engine context under either executor.
    pub(crate) stats: NodeStats,
    /// This node's per-destination sender outboxes
    /// (coalescing + credit).  A `BTreeMap` so the quiescence force-flush
    /// walks links in a deterministic order (the reference executor's
    /// bit-for-bit reproducibility depends on it).  Sender-owned: a credit
    /// grant is *addressed to* the data sender, so delivering it only ever
    /// touches the receiving node's own state.
    pub(crate) outboxes: BTreeMap<usize, LinkOutbox>,
}

/// Immutable cross-node state shared by every node task: the principal
/// universe, provisioned key material, and pre-established circuits.  Nothing
/// here is written after [`Deployment::build`], so reactor workers share it
/// by plain reference.
pub(crate) struct EngineShared {
    /// Principal name per node index — lets delivery paths name a *peer*
    /// without touching that peer's (possibly locked) node state.
    pub(crate) principals: Vec<String>,
    pub(crate) principal_index: HashMap<String, usize>,
    pub(crate) keystore: KeyStore,
    pub(crate) circuits: Vec<Circuit>,
}

/// A complete simulated SecureBlox deployment.
pub struct Deployment {
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) network: SimNetwork,
    pub(crate) config: DeploymentConfig,
    pub(crate) shared: EngineShared,
    exportable: Vec<String>,
    /// Registered read replicas with per-node WAL cursors (see
    /// `runtime::replication`).
    pub(crate) replicas: Vec<ReplicaState>,
    /// Exchange-planner classification counts from the post-compile rewrite,
    /// surfaced through [`DeploymentReport::shard`].
    pub(crate) shard_summary: Option<ExchangeSummary>,
}

/// Where a node context's outbound messages go.  The reference executor
/// passes the [`SimNetwork`] itself; the reactor substitutes a per-task sink
/// that computes delivery times locally and enqueues into the concurrent
/// [`secureblox_net::LinkLanes`].
pub(crate) trait NetSink {
    /// Latency-modelled send; returns the delivery time.
    fn send(&mut self, message: Message, now: VirtualTime) -> VirtualTime;
    /// Send on the link's FIFO stream: delivery never precedes the previous
    /// `send_fifo` message on the same (from, to) link.
    fn send_fifo(&mut self, message: Message, now: VirtualTime) -> VirtualTime;
}

impl NetSink for SimNetwork {
    fn send(&mut self, message: Message, now: VirtualTime) -> VirtualTime {
        SimNetwork::send(self, message, now)
    }

    fn send_fifo(&mut self, message: Message, now: VirtualTime) -> VirtualTime {
        SimNetwork::send_fifo(self, message, now)
    }
}

/// One node's engine context: exclusive access to that node's state (its
/// statistics included) plus the shared immutable deployment state and an
/// outbound [`NetSink`].  Every per-node operation — transactions, export
/// flushes, delivery handlers — lives here, so the virtual-time reference
/// loop and the reactor's worker tasks drive *identical* logic and differ
/// only in how they schedule nodes and route messages.
pub(crate) struct NodeCtx<'a> {
    pub(crate) index: usize,
    pub(crate) node: &'a mut NodeState,
    pub(crate) shared: &'a EngineShared,
    pub(crate) config: &'a DeploymentConfig,
    pub(crate) net: &'a mut dyn NetSink,
}

impl Deployment {
    /// Build a deployment: provision keys, generate and compile the policies
    /// together with `app_source`, and install the result on every node.
    pub fn build(app_source: &str, specs: &[NodeSpec], config: DeploymentConfig) -> Result<Self> {
        if !config.streaming.enabled {
            return Err(DatalogError::Eval(
                "StreamingConfig::enabled = false asks for the per-envelope update path, which \
                 was removed: the streaming scheduler is the only update path"
                    .into(),
            ));
        }
        // Sharding pre-pass: validate the map against the app, generate the
        // exchange declarations and routing rules (compiled with the app so
        // the `says` policy covers them), and route every sharded base fact
        // — spec-placed or shared — to its ring owner.  Everything here is a
        // deterministic function of (app_source, specs, config), which
        // durable recovery's rebuild-then-replay depends on.
        let mut config = config;
        let mut effective_source = app_source.to_string();
        let mut routed_specs: Option<Vec<NodeSpec>> = None;
        let shard_artifacts = match config.sharding.clone().filter(|m| m.is_active()) {
            Some(map) => {
                let mut initial: Vec<(String, Tuple)> = specs
                    .iter()
                    .flat_map(|spec| spec.base_facts.iter().cloned())
                    .collect();
                initial.extend(config.shared_facts.iter().cloned());
                let artifacts = shard::analyze(app_source, &map, &initial, config.strict_typing)?;
                effective_source.push_str(&artifacts.generated_source);
                let mut routed = shard::route_specs(specs, &map)?;
                let ring = map.ring();
                let spec_index: HashMap<&str, usize> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| (spec.principal.as_str(), i))
                    .collect();
                let mut replicated = Vec::new();
                for (pred, tuple) in config.shared_facts.drain(..) {
                    match shard::fact_owner(&map, &ring, &pred, &tuple)? {
                        Some(owner) => {
                            let &dest = spec_index.get(owner).ok_or_else(|| {
                                DatalogError::Eval(format!(
                                    "shard owner {owner} is not a deployment node"
                                ))
                            })?;
                            routed[dest].base_facts.push((pred, tuple));
                        }
                        None => replicated.push((pred, tuple)),
                    }
                }
                // Every node carries the ring's Datalog mirror.
                replicated.extend(map.exchange_facts());
                config.shared_facts = replicated;
                routed_specs = Some(routed);
                Some(artifacts)
            }
            None => None,
        };
        let specs: &[NodeSpec] = routed_specs.as_deref().unwrap_or(specs);
        let app_source: &str = &effective_source;

        let principals: Vec<String> = specs.iter().map(|s| s.principal.clone()).collect();
        let needs_secrets = config.security.needs_secrets() || !config.circuits.is_empty();
        let keystore = if config.security.needs_rsa() {
            KeyStore::provision(&principals, config.security.rsa_bits, 4, config.seed)
        } else if needs_secrets {
            KeyStore::provision_secrets_only(&principals, config.seed)
        } else {
            Ok(KeyStore::empty())
        }
        .map_err(|e| DatalogError::Eval(format!("key provisioning failed: {e}")))?;

        let mut compiled =
            compile_secured_program(app_source, &config.security, &config.extra_policies)?;
        // Post-compile: re-plan over the compiled rules (the same pure
        // classification as the pre-pass) and swap each shuffled/broadcast
        // sharded body atom for its exchanged copy.
        let shard_summary = match &shard_artifacts {
            Some(artifacts) => {
                Some(shard::rewrite_program(&mut compiled.program, artifacts)?.summary)
            }
            None => None,
        };
        let exportable: Vec<String> = compiled
            .mappings
            .iter()
            .filter(|((generic, _), _)| generic == "says")
            .map(|((_, param), _)| param.clone())
            .collect();

        let principal_index: HashMap<String, usize> = principals
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();

        let mut nodes = Vec::with_capacity(specs.len());
        for (index, spec) in specs.iter().enumerate() {
            let mut workspace = Workspace::with_config(EvalConfig {
                exec: EvalOptions {
                    workers: config.parallelism.max(1),
                    ..EvalOptions::default()
                },
                ..EvalConfig::default()
            });
            workspace.set_strict_typing(config.strict_typing);
            workspace.set_allow_recursive_negation(config.allow_recursive_negation);
            workspace.set_entity_namespace(index as u64 + 1);
            register_crypto_udfs(&mut workspace);
            workspace.install_program(&compiled.program)?;
            workspace.set_singleton("self", Value::str(&spec.principal))?;
            for (pred, value) in &config.singletons {
                workspace.set_singleton(pred, value.clone())?;
            }
            // Every node knows the universe of principals / nodes and the
            // principal → node mapping (1:1 in the simulation).
            for principal in &principals {
                workspace.assert_fact("principal", vec![Value::str(principal)])?;
                workspace.assert_fact("node", vec![Value::str(principal)])?;
                workspace.assert_fact(
                    "principal_node",
                    vec![Value::str(principal), Value::str(principal)],
                )?;
                if config.grant_default_trust {
                    workspace.assert_fact("trustworthy", vec![Value::str(principal)])?;
                }
            }
            for (pred, tuple) in &config.shared_facts {
                workspace.assert_fact(pred, tuple.clone())?;
            }
            // Key material relations referenced by the generated policies.
            if config.security.needs_rsa() {
                let own = keystore
                    .keypair(&spec.principal)
                    .map_err(|e| DatalogError::Eval(e.to_string()))?;
                workspace.set_singleton("private_key", Value::bytes(own.to_bytes()))?;
                for principal in &principals {
                    let public = keystore
                        .public_key(principal)
                        .map_err(|e| DatalogError::Eval(e.to_string()))?;
                    workspace.assert_fact(
                        "public_key",
                        vec![Value::str(principal), Value::bytes(public.to_bytes())],
                    )?;
                }
            }
            if needs_secrets {
                for principal in &principals {
                    let secret = if principal == &spec.principal {
                        // A principal's "secret with itself" only matters for
                        // locally-routed says tuples; derive it from the seed.
                        secureblox_crypto::hmac_sha1(
                            spec.principal.as_bytes(),
                            &config.seed.to_be_bytes(),
                        )
                        .to_vec()
                    } else {
                        keystore
                            .shared_secret(&spec.principal, principal)
                            .map_err(|e| DatalogError::Eval(e.to_string()))?
                            .to_vec()
                    };
                    workspace
                        .assert_fact("secret", vec![Value::str(principal), Value::bytes(secret)])?;
                }
            }
            if config.security.write_access && config.grant_default_write_access {
                for exported in &exportable {
                    for principal in &principals {
                        workspace.assert_fact(
                            &format!("writeAccess${exported}"),
                            vec![Value::str(principal)],
                        )?;
                    }
                }
            }
            nodes.push(NodeState {
                info: NodeInfo::new(index as u32, spec.principal.clone()),
                workspace,
                sent: HashMap::new(),
                available_at: 0,
                pending_bootstrap: spec.base_facts.clone(),
                store: None,
                needs_retraction_scan: false,
                last_update_seq_in: HashMap::new(),
                stream_seq: HashMap::new(),
                exchange_bytes: 0,
                stats: NodeStats::default(),
                outboxes: BTreeMap::new(),
            });
        }

        // Pre-establish anonymity circuits.
        let mut circuits = Vec::new();
        for (id, spec) in config.circuits.iter().enumerate() {
            let lookup = |name: &str| -> Result<usize> {
                principal_index
                    .get(name)
                    .copied()
                    .ok_or_else(|| DatalogError::Eval(format!("unknown circuit principal {name}")))
            };
            let initiator = lookup(&spec.initiator)?;
            let endpoint = lookup(&spec.endpoint)?;
            let relays: Vec<usize> = spec
                .relays
                .iter()
                .map(|r| lookup(r))
                .collect::<Result<_>>()?;
            let mut keys = Vec::with_capacity(relays.len() + 1);
            for hop in spec.relays.iter().chain(std::iter::once(&spec.endpoint)) {
                keys.push(
                    keystore
                        .circuit_key(&spec.initiator, hop, id as u64)
                        .map_err(|e| DatalogError::Eval(e.to_string()))?,
                );
            }
            circuits.push(Circuit {
                id: id as u64,
                initiator,
                relays,
                endpoint,
                keys,
            });
        }

        let network = SimNetwork::new(config.latency.clone());
        let mut deployment = Deployment {
            nodes,
            network,
            config,
            shared: EngineShared {
                principals,
                principal_index,
                keystore,
                circuits,
            },
            exportable,
            replicas: Vec::new(),
            shard_summary,
        };
        if let Some(durability) = deployment.config.durability.clone() {
            for node in &mut deployment.nodes {
                let key = derive_node_key(deployment.config.seed, &node.info.principal);
                let mut store = FactStore::open(durability.node_dir(&node.info.principal), &key)
                    .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
                if store.wal_seq() != 0 || store.snapshot().is_some() {
                    return Err(DatalogError::Eval(format!(
                        "durable store for {} already holds state; use Deployment::recover",
                        node.info.principal
                    )));
                }
                store.set_flush_each_batch(durability.flush_each_batch);
                node.store = Some(store);
            }
        }
        Ok(deployment)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The predicates covered by the `says` policy.
    pub fn exportable_predicates(&self) -> &[String] {
        &self.exportable
    }

    /// Query a predicate on the node hosting `principal`.
    pub fn query(&self, principal: &str, pred: &str) -> Vec<Tuple> {
        self.shared
            .principal_index
            .get(principal)
            .map(|&i| self.nodes[i].workspace.query(pred))
            .unwrap_or_default()
    }

    /// Completion times (virtual) of committed transactions at `principal`'s
    /// node — the series behind the hash-join CDFs.
    pub fn completion_times(&self, principal: &str) -> Vec<Duration> {
        self.shared
            .principal_index
            .get(principal)
            .map(|&i| {
                self.nodes[i]
                    .stats
                    .completion_times
                    .iter()
                    .map(|&t| Duration::from_nanos(t))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Retract base facts at `principal`'s node: incremental deletion (DRed)
    /// in the workspace, logged to the node's durable store when durability
    /// is enabled so recovery replays the retraction in order.
    ///
    /// Retraction is distributed: any previously exported `says$T` /
    /// `anon_says$T` tuple that the deletion un-derives is withdrawn through
    /// the same policy-mangled channel as a signed `Retract` delta, so
    /// running the deployment afterwards (`run`) converges every remote
    /// fixpoint — and every remote store Merkle root — to the state it would
    /// have had if the facts had never been asserted.
    pub fn retract(&mut self, principal: &str, batch: Vec<(String, Tuple)>) -> Result<()> {
        let &index = self
            .shared
            .principal_index
            .get(principal)
            .ok_or_else(|| DatalogError::Eval(format!("unknown principal {principal}")))?;
        let started = Instant::now();
        self.nodes[index].workspace.retract(batch.clone())?;
        let finish = self.nodes[index].available_at + started.elapsed().as_nanos() as u64;
        self.nodes[index].available_at = finish;
        if let Some(store) = &mut self.nodes[index].store {
            store
                .log_retracts(batch.iter().map(|(p, t)| (p.as_str(), t)), finish)
                .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
        }
        self.nodes[index].stats.record_retraction(finish);
        self.nodes[index].needs_retraction_scan = true;
        self.node_ctx(index).flush_updates(finish)
    }

    /// Borrow one node's engine context against the deployment's shared state
    /// and network — the reference executor's way of driving [`NodeCtx`]
    /// operations (the reactor builds its contexts against per-task sinks).
    pub(crate) fn node_ctx(&mut self, index: usize) -> NodeCtx<'_> {
        NodeCtx {
            index,
            node: &mut self.nodes[index],
            shared: &self.shared,
            config: &self.config,
            net: &mut self.network,
        }
    }

    /// Inject a raw update-stream payload into the network as if node `from`
    /// had sent it to node `to` — an adversarial testing hook for forged
    /// envelopes and replayed streams.  The payload is delivered (and
    /// scrutinized) by the normal [`MessageKind::Update`] path on the next
    /// [`Deployment::run`].
    ///
    /// **Intentionally bypasses the per-link FIFO floor**: the plain `send`
    /// at virtual time 0 lets the injected payload overtake every legitimate
    /// message queued on the same link — the reordering/replay position an
    /// on-path adversary gets on a real network.  The receiver's defenses
    /// (sequence watermark, signature constraints) must hold against it; see
    /// the `stale_seq_replay_is_rejected_even_out_of_order` regression test.
    /// The payload's wire bytes are charged to `from`, like any send.
    pub fn inject_message(&mut self, from: usize, to: usize, payload: Vec<u8>) {
        let message = Message::new(
            NodeId(from as u32),
            NodeId(to as u32),
            MessageKind::Update,
            payload,
        );
        self.nodes[from].stats.record_send(&message);
        self.network.send(message, 0);
    }

    /// Run to the distributed fixpoint: no batches pending and no messages in
    /// flight.  Dispatches on [`DeploymentConfig::reactor`]: the event-driven
    /// executor (`runtime::reactor`) runs nodes wall-clock-parallel; the
    /// virtual-time reference loop below stays the deterministic baseline.
    pub fn run(&mut self) -> Result<DeploymentReport> {
        if self.config.reactor.enabled {
            self.run_reactor()
        } else {
            self.run_virtual()
        }
    }

    /// The deterministic reference executor: one global loop delivering
    /// messages in virtual-time order.
    fn run_virtual(&mut self) -> Result<DeploymentReport> {
        // Bootstrap batches at virtual time zero.
        for index in 0..self.nodes.len() {
            let batch = std::mem::take(&mut self.nodes[index].pending_bootstrap);
            self.node_ctx(index).process_batch(batch, 0)?;
        }
        // Message loop.  When the network goes quiet the outboxes may still
        // hold sub-batch residues (Nagle hold, see `drain_outbox`);
        // force-flushing them wakes the loop back up until delivery *and*
        // outboxes are both drained.
        let mut guard = 0usize;
        let message_budget = self.config.message_budget;
        loop {
            let Some((arrival, message)) = self.network.next_delivery() else {
                if self.flush_pending_outboxes()? {
                    continue;
                }
                break;
            };
            // Only data-plane traffic spends budget.  Control messages —
            // credit grants above all — are *caused* by data deliveries
            // (bounded by them one-to-one), and counting them once made
            // backpressure-heavy streaming runs trip the non-convergence
            // error at half the configured budget.
            if is_data_plane(message.kind) {
                guard += 1;
                if guard > message_budget {
                    return Err(self.budget_exceeded_error());
                }
            }
            self.node_ctx(message.to.index())
                .deliver(message, arrival)?;
        }
        Ok(self.report())
    }

    /// The non-convergence diagnostic for an exhausted message budget, naming
    /// the busiest links.  Shared by both executors.
    pub(crate) fn budget_exceeded_error(&self) -> DatalogError {
        let message_budget = self.config.message_budget;
        let busiest: Vec<String> = stats::busiest_links(self.nodes.iter().map(|n| &n.stats), 3)
            .into_iter()
            .map(|(from, to, traffic)| {
                format!(
                    "{}->{} ({} msgs, {} bytes)",
                    self.nodes[from].info.principal,
                    self.nodes[to].info.principal,
                    traffic.messages,
                    traffic.bytes
                )
            })
            .collect();
        DatalogError::Eval(format!(
            "distributed execution exceeded its message budget of {message_budget} \
             (SECUREBLOX_MESSAGE_BUDGET / DeploymentConfig::message_budget); the \
             protocol is not converging; busiest links: {}",
            busiest.join(", ")
        ))
    }

    /// Summarize the run: a fold over every node's statistics, plus the
    /// summed planner counters and every histogram the run touched.
    pub fn report(&self) -> DeploymentReport {
        let node_stats = || self.nodes.iter().map(|node| &node.stats);
        let plan = self.plan_stats();
        let workers = self.config.parallelism.max(1);
        let durations = stats::sorted_durations(node_stats());
        let per_node_bytes: Vec<usize> = node_stats().map(NodeStats::bytes_sent).collect();
        DeploymentReport {
            label: self.config.security.label(),
            num_nodes: self.nodes.len(),
            fixpoint_latency: Duration::from_nanos(
                node_stats().map(|s| s.last_activity).max().unwrap_or(0),
            ),
            average_transaction: stats::mean_duration(&durations),
            per_node_kb: stats::mean_kb(&per_node_bytes),
            total_transactions: durations.len(),
            rejected_batches: node_stats().map(|s| s.rejected_batches).sum(),
            conflicting_batches: node_stats().map(|s| s.conflicting_batches).sum(),
            retractions_applied: node_stats().map(|s| s.retractions_applied).sum(),
            convergence_times: node_stats()
                .map(|s| Duration::from_nanos(s.last_activity))
                .collect(),
            per_node_bytes,
            total_messages: node_stats().map(NodeStats::messages_sent).sum(),
            plan,
            workers,
            worker_utilization: plan.worker_utilization(workers),
            apply_latency_p50: stats::percentile(&durations, 0.5),
            apply_latency_p99: stats::percentile(&durations, 0.99),
            shard: self.shard_report(),
            telemetry: secureblox_telemetry::histogram_summaries(),
        }
    }

    /// Planner / index counters summed over every node's workspace.  Plan
    /// caches live in the workspaces, so they persist across deployment
    /// ticks: steady-state ticks should show cache hits, not compilations.
    pub fn plan_stats(&self) -> PlanStatsSnapshot {
        self.nodes
            .iter()
            .map(|node| node.workspace.plan_stats())
            .fold(PlanStatsSnapshot::default(), |acc, s| acc + s)
    }

    /// Force-flush every outbox still holding deltas (see
    /// [`NodeCtx::drain_outbox`]'s Nagle hold).  Called by the reference
    /// loop when the network goes quiet; returns whether anything shipped
    /// (so the message loop resumes).  Credit is returned unconditionally
    /// per drained delta, so by quiescence every window has refilled — an
    /// unshippable residue here is a protocol bug, not a schedule, and
    /// fails loudly rather than silently dropping deltas.
    fn flush_pending_outboxes(&mut self) -> Result<bool> {
        let mut shipped = false;
        for index in 0..self.nodes.len() {
            let pending: Vec<usize> = self.nodes[index]
                .outboxes
                .iter()
                .filter(|(_, outbox)| outbox.live() > 0)
                .map(|(&dest, _)| dest)
                .collect();
            if pending.is_empty() {
                continue;
            }
            let now = self.nodes[index].available_at;
            let mut ctx = self.node_ctx(index);
            for dest in pending {
                let before = ctx.node.outboxes[&dest].live();
                ctx.drain_outbox(dest, now, true)?;
                let after = ctx.node.outboxes.get(&dest).map_or(0, |o| o.live());
                shipped |= after < before;
            }
        }
        if !shipped
            && self
                .nodes
                .iter()
                .any(|node| node.outboxes.values().any(|o| o.live() > 0))
        {
            return Err(DatalogError::Eval(
                "streaming outboxes wedged at quiescence: held deltas with no credit".into(),
            ));
        }
        Ok(shipped)
    }
}

impl NodeCtx<'_> {
    // ------------------------------------------------------------------
    // Batch processing and export
    // ------------------------------------------------------------------

    /// Process one incoming batch as a local ACID transaction.  Returns
    /// whether the batch *committed* — callers use this as channel-level
    /// evidence that the peer's envelope was accepted by policy.
    pub(crate) fn process_batch(
        &mut self,
        batch: Vec<(String, Tuple)>,
        arrival: VirtualTime,
    ) -> Result<bool> {
        let committed = self.apply_transaction(batch, arrival)?;
        if committed {
            let finish = self.node.available_at;
            self.flush_updates(finish)?;
        }
        Ok(committed)
    }

    /// The transaction step shared by [`NodeCtx::process_batch`], the
    /// update-stream drain and circuit deliveries: apply `batch` as one ACID
    /// transaction, account virtual time, WAL-log on commit, and record the
    /// verdict.  Does NOT flush update streams — the caller decides when
    /// (per transaction in `process_batch` and circuit deliveries, once per
    /// delivered envelope on the update stream).
    fn apply_transaction(
        &mut self,
        batch: Vec<(String, Tuple)>,
        arrival: VirtualTime,
    ) -> Result<bool> {
        let start_virtual = arrival.max(self.node.available_at);
        let started = Instant::now();
        let log_batch = match &self.node.store {
            Some(_) if !batch.is_empty() => Some(batch.clone()),
            _ => None,
        };
        let outcome = self.node.workspace.transaction(batch);
        let elapsed = started.elapsed();
        secureblox_telemetry::histogram!("engine_txn_apply_ns").record_duration(elapsed);
        let finish = start_virtual + elapsed.as_nanos() as u64;
        self.node.available_at = finish;
        match outcome {
            Ok(_) => {
                // Log only *committed* batches: rolled-back facts are not
                // part of the EDB and must not resurface at recovery.
                if let (Some(store), Some(batch)) = (&mut self.node.store, log_batch) {
                    store
                        .log_inserts(batch.iter().map(|(p, t)| (p.as_str(), t)), finish)
                        .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
                }
                self.node.stats.record_transaction(elapsed, finish);
                Ok(true)
            }
            Err(DatalogError::ConstraintViolation(_)) => {
                // The paper's semantics: the whole batch (including the input
                // tuples) rolls back; the sender is not notified.
                self.node.stats.record_rejection(finish);
                Ok(false)
            }
            Err(DatalogError::FunctionalDependency { .. }) => {
                // Same rollback semantics, but counted separately: this is a
                // data-level duplicate (e.g. a second composition for an
                // already-known path entity), not a policy refusing the batch.
                self.node.stats.record_conflict(finish);
                Ok(false)
            }
            Err(other) => Err(other),
        }
    }

    /// Flush this node's update streams: withdraw previously exported
    /// tuples the workspace no longer derives (as signed `Retract` deltas),
    /// export newly derived `says$T` / anonymity tuples (as `Assert` deltas),
    /// and queue them, in order, on each destination's [`LinkOutbox`], which
    /// ships them as [`UpdateEnvelope`]s over a FIFO link.
    pub(crate) fn flush_updates(&mut self, now: VirtualTime) -> Result<()> {
        let self_principal = self.node.info.principal.clone();
        let started = Instant::now();
        // Ordered deltas per destination node: retractions first (they refer
        // to the pre-flush state), then asserts, each in deterministic order.
        let mut per_dest: BTreeMap<usize, Vec<UpdateDelta>> = BTreeMap::new();
        let mut anon_outgoing: Vec<(usize, Message)> = Vec::new();
        // Export-cursor mutations to WAL-log after the scans: marks for newly
        // shipped tuples, clears for flushed withdrawals.
        let mut export_marks: Vec<(String, Tuple, Vec<u8>)> = Vec::new();
        let mut export_clears: Vec<(String, Tuple)> = Vec::new();

        // 1. Withdrawals.  Insert-only transactions never remove `says`
        //    tuples, so the scan over the export history only runs after a
        //    retraction touched this node.
        if self.node.needs_retraction_scan {
            self.node.needs_retraction_scan = false;
            let node = &self.node;
            let mut withdrawn: Vec<(String, Tuple)> = node
                .sent
                .keys()
                .filter(|(pred, tuple)| !node.workspace.contains_fact(pred, tuple))
                .cloned()
                .collect();
            withdrawn.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| tuple_total_cmp(&a.1, &b.1)));
            for key in withdrawn {
                let signature = self.node.sent.remove(&key).unwrap_or_default();
                export_clears.push(key.clone());
                let (pred, tuple) = key;
                if let Some(param) = pred.strip_prefix("says$") {
                    let Some(to) = tuple.get(1).and_then(|v| v.as_str()) else {
                        continue;
                    };
                    let Some(&dest) = self.shared.principal_index.get(to) else {
                        continue;
                    };
                    per_dest.entry(dest).or_default().push(UpdateDelta {
                        op: DeltaOp::Retract,
                        pred: param.to_string(),
                        tuple,
                        signature,
                    });
                } else if let Some(param) = pred.strip_prefix("anon_says$") {
                    let Some(to) = tuple.get(1).and_then(|v| v.as_str()).map(String::from) else {
                        continue;
                    };
                    let message = self.onion_wrap_forward(param, &to, &tuple, DeltaOp::Retract)?;
                    anon_outgoing.push(message);
                } else if let Some(param) = pred.strip_prefix("anon_says_id_out$") {
                    if let Some(message) =
                        self.onion_wrap_backward(param, &tuple, DeltaOp::Retract)?
                    {
                        anon_outgoing.push(message);
                    }
                }
            }
        }

        // 2. Assertions.
        let predicate_names = self.node.workspace.predicate_names();
        for pred in &predicate_names {
            if let Some(param) = pred.strip_prefix("says$") {
                let tuples = self.node.workspace.query(pred);
                for tuple in tuples {
                    if tuple.len() < 2 {
                        continue;
                    }
                    let from = tuple[0].as_str().unwrap_or_default().to_string();
                    let to = tuple[1].as_str().unwrap_or_default().to_string();
                    if from != self_principal || to == self_principal {
                        continue;
                    }
                    let key = (pred.clone(), tuple.clone());
                    if self.node.sent.contains_key(&key) {
                        continue;
                    }
                    let signature = self.lookup_signature(param, &tuple);
                    export_marks.push((key.0.clone(), key.1.clone(), signature.clone()));
                    self.node.sent.insert(key, signature.clone());
                    let Some(&dest) = self.shared.principal_index.get(&to) else {
                        continue;
                    };
                    per_dest.entry(dest).or_default().push(UpdateDelta {
                        op: DeltaOp::Assert,
                        pred: param.to_string(),
                        tuple,
                        signature,
                    });
                }
            } else if let Some(param) = pred.strip_prefix("anon_says$") {
                let tuples = self.node.workspace.query(pred);
                for tuple in tuples {
                    if tuple.len() < 2 {
                        continue;
                    }
                    let from = tuple[0].as_str().unwrap_or_default().to_string();
                    let to = tuple[1].as_str().unwrap_or_default().to_string();
                    if from != self_principal {
                        continue;
                    }
                    let key = (pred.clone(), tuple.clone());
                    if self.node.sent.contains_key(&key) {
                        continue;
                    }
                    export_marks.push((key.0.clone(), key.1.clone(), Vec::new()));
                    self.node.sent.insert(key, Vec::new());
                    let message = self.onion_wrap_forward(param, &to, &tuple, DeltaOp::Assert)?;
                    anon_outgoing.push(message);
                }
            } else if let Some(param) = pred.strip_prefix("anon_says_id_out$") {
                let tuples = self.node.workspace.query(pred);
                for tuple in tuples {
                    if tuple.is_empty() {
                        continue;
                    }
                    let key = (pred.clone(), tuple.clone());
                    if self.node.sent.contains_key(&key) {
                        continue;
                    }
                    export_marks.push((key.0.clone(), key.1.clone(), Vec::new()));
                    self.node.sent.insert(key, Vec::new());
                    if let Some(message) =
                        self.onion_wrap_backward(param, &tuple, DeltaOp::Assert)?
                    {
                        anon_outgoing.push(message);
                    }
                }
            }
        }

        // Persist the export-cursor mutations before anything ships: a mark
        // must hit the WAL no later than its message leaves, or a crash in
        // between would lose the recovery obligation the message created.
        if !export_clears.is_empty() || !export_marks.is_empty() {
            if let Some(store) = &mut self.node.store {
                store
                    .log_export_clears(export_clears.iter().map(|(p, t)| (p.as_str(), t)), now)
                    .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
                store
                    .log_export_marks(
                        export_marks
                            .iter()
                            .map(|(p, t, s)| (p.as_str(), t, s.as_slice())),
                        now,
                    )
                    .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
            }
        }

        // 3. Export processing (serialization, signature lookup, encryption)
        //    costs real compute; charge it to the node's virtual clock, then
        //    ship through the per-link outboxes (coalescing, annihilation,
        //    credit) over the FIFO stream.
        let overhead = started.elapsed();
        let send_time = now + overhead.as_nanos() as u64;
        self.node.available_at = self.node.available_at.max(send_time);
        for (dest, deltas) in per_dest {
            let high_water = self.config.streaming.queue_high_water;
            let outbox = self
                .node
                .outboxes
                .entry(dest)
                .or_insert_with(|| LinkOutbox::new(high_water));
            for delta in deltas {
                if outbox.push(delta) {
                    secureblox_telemetry::counter!("engine_stream_annihilated_total").add(2);
                }
            }
            self.drain_outbox(dest, send_time, false)?;
        }
        for (_, message) in anon_outgoing {
            self.send(message, send_time, true);
        }
        Ok(())
    }

    /// Ship as much of this node's `dest` outbox as its credit window
    /// allows, in envelopes of up to `batch_max` deltas each.  Marks the
    /// outbox stalled when deltas remain with no credit left — the stall ends
    /// (and shipping resumes) when the receiver's credit grant arrives.
    ///
    /// Unless `force`d, a residue smaller than `batch_max` is *held* (Nagle
    /// style): while other traffic is still in flight, the next flushes keep
    /// topping the outbox up and whole-batch envelopes amortize the
    /// receiver's per-transaction cost.  Both executors force-flush every
    /// outbox at quiescence, so held deltas always ship before a run can
    /// converge.
    pub(crate) fn drain_outbox(
        &mut self,
        dest: usize,
        now: VirtualTime,
        force: bool,
    ) -> Result<()> {
        let batch_max = self.config.streaming.batch_max;
        loop {
            let Some(outbox) = self.node.outboxes.get_mut(&dest) else {
                return Ok(());
            };
            if outbox.live() == 0 || (!force && outbox.live() < batch_max) {
                return Ok(());
            }
            if outbox.credit() == 0 {
                outbox.mark_stalled(now);
                return Ok(());
            }
            let take = batch_max.min(outbox.credit());
            let deltas = outbox.take_batch(take);
            outbox.consume_credit(deltas.len());
            if deltas.is_empty() {
                return Ok(());
            }
            secureblox_telemetry::histogram!("engine_stream_batch_deltas")
                .record(deltas.len() as u64);
            let seq = self.node.stream_seq.entry(dest).or_insert(0);
            *seq += 1;
            let envelope = UpdateEnvelope { seq: *seq, deltas };
            self.ship_envelope(dest, envelope, now)?;
        }
    }

    /// Every send this node makes: charge `message` to the node's traffic
    /// statistics, then hand it to the network — on its link's FIFO stream
    /// when `fifo`, else as a plain latency-modelled send (credit grants,
    /// which are cumulative counts and order-free).
    fn send(&mut self, message: Message, now: VirtualTime, fifo: bool) {
        self.node.stats.record_send(&message);
        if fifo {
            self.net.send_fifo(message, now);
        } else {
            self.net.send(message, now);
        }
    }

    /// Encode (and, under AES, encrypt) one update-stream envelope and send
    /// it on the link's FIFO stream.
    fn ship_envelope(
        &mut self,
        dest: usize,
        envelope: UpdateEnvelope,
        send_time: VirtualTime,
    ) -> Result<()> {
        if self.config.sharding.is_some() {
            let bytes: usize = envelope
                .deltas
                .iter()
                .filter(|delta| is_exchange_pred(&delta.pred))
                .map(|delta| {
                    delta.pred.len() + serialize_tuple(&delta.tuple).len() + delta.signature.len()
                })
                .sum();
            if bytes > 0 {
                self.node.exchange_bytes += bytes;
                secureblox_telemetry::counter!("engine_shard_exchange_bytes_total")
                    .add(bytes as u64);
            }
        }
        let mut payload = envelope.encode();
        if self.config.security.enc == EncScheme::Aes128 {
            let from_principal = &self.node.info.principal;
            let to_principal = &self.shared.principals[dest];
            let secret = self
                .shared
                .keystore
                .shared_secret(from_principal, to_principal)
                .map_err(|e| DatalogError::Eval(e.to_string()))?;
            payload = aes128_ctr_encrypt(secret, &payload);
        }
        self.send(
            Message::new(
                NodeId(self.index as u32),
                NodeId(dest as u32),
                MessageKind::Update,
                payload,
            ),
            send_time,
            true,
        );
        Ok(())
    }

    /// Find the detached signature for a `says$T` tuple in the corresponding
    /// `sig$T` relation (empty when the scheme carries no signatures), via a
    /// secondary index on the tuple prefix — built once, maintained
    /// incrementally — instead of a linear scan per exported tuple.
    fn lookup_signature(&mut self, param: &str, says_tuple: &[Value]) -> Vec<u8> {
        let sig_pred = format!("sig${param}");
        let cols = column_set(0..says_tuple.len());
        for tuple in self
            .node
            .workspace
            .probe_indexed(&sig_pred, cols, says_tuple)
        {
            if tuple.len() == says_tuple.len() + 1 {
                if let Some(bytes) = tuple[says_tuple.len()].as_bytes() {
                    return bytes.to_vec();
                }
            }
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Anonymity circuits
    // ------------------------------------------------------------------

    fn circuit_for(&self, endpoint: &str) -> Option<&Circuit> {
        let endpoint_index = *self.shared.principal_index.get(endpoint)?;
        self.shared
            .circuits
            .iter()
            .find(|c| c.initiator == self.index && c.endpoint == endpoint_index)
    }

    /// Wrap an `anon_says$T` delta in onion layers and address it to the
    /// first hop of this node's circuit to the destination.
    fn onion_wrap_forward(
        &self,
        param: &str,
        destination: &str,
        tuple: &[Value],
        op: DeltaOp,
    ) -> Result<(usize, Message)> {
        let circuit = self.circuit_for(destination).ok_or_else(|| {
            DatalogError::Eval(format!(
                "no anonymity circuit from {} to {destination}; declare it in DeploymentConfig::circuits",
                self.node.info.principal
            ))
        })?;
        // The serialized payload omits the initiator: the endpoint can only
        // name the circuit (paper §6.2).  Circuit traffic rides the same
        // delta envelope as peer streams; the onion layers authenticate it in
        // place of a detached signature.
        let envelope = UpdateEnvelope {
            seq: 0,
            deltas: vec![UpdateDelta {
                op,
                pred: param.to_string(),
                tuple: tuple[2..].to_vec(),
                signature: Vec::new(),
            }],
        };
        let mut body = envelope.encode();
        for key in circuit.keys.iter().rev() {
            body = aes128_ctr_encrypt(key, &body);
        }
        let first_hop = circuit.relays.first().copied().unwrap_or(circuit.endpoint);
        let payload = encode_anon_cell(circuit.id, 0, &body);
        Ok((
            first_hop,
            Message::new(
                NodeId(self.index as u32),
                NodeId(first_hop as u32),
                MessageKind::AnonForward,
                payload,
            ),
        ))
    }

    /// Wrap an `anon_says_id_out$T` reply delta for the backward direction.
    fn onion_wrap_backward(
        &self,
        param: &str,
        tuple: &[Value],
        op: DeltaOp,
    ) -> Result<Option<(usize, Message)>> {
        let Some(circuit_id) = tuple[0].as_int() else {
            return Ok(None);
        };
        let Some(circuit) = self
            .shared
            .circuits
            .iter()
            .find(|c| c.id == circuit_id as u64 && c.endpoint == self.index)
        else {
            return Ok(None);
        };
        let envelope = UpdateEnvelope {
            seq: 0,
            deltas: vec![UpdateDelta {
                op,
                pred: param.to_string(),
                tuple: tuple[1..].to_vec(),
                signature: Vec::new(),
            }],
        };
        // The endpoint adds its own layer; each relay will add one more on
        // the way back and the initiator peels them all.
        let body = aes128_ctr_encrypt(
            circuit.keys.last().expect("endpoint key"),
            &envelope.encode(),
        );
        let (next, hop) = match circuit.relays.last() {
            Some(&relay) => (relay, circuit.relays.len() as u32 - 1),
            None => (circuit.initiator, u32::MAX),
        };
        let payload = encode_anon_cell(circuit.id, hop, &body);
        Ok(Some((
            next,
            Message::new(
                NodeId(self.index as u32),
                NodeId(next as u32),
                MessageKind::AnonBackward,
                payload,
            ),
        )))
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    pub(crate) fn deliver(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        match message.kind {
            MessageKind::Update => self.deliver_update(message, arrival),
            MessageKind::AnonForward => self.deliver_anon_forward(message, arrival),
            MessageKind::AnonBackward => self.deliver_anon_backward(message, arrival),
            MessageKind::Credit => self.deliver_credit(message, arrival),
        }
    }

    /// A credit grant travelling back to a sender: top up the link's outbox
    /// window (capped at the high-water mark, so forged or replayed grants
    /// can refill but never grow it) and resume a stalled stream.
    fn deliver_credit(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let Some(granted) = secureblox_net::message::decode_credit(&message.payload) else {
            // Malformed grant — drop it rather than trusting the count.
            self.node.stats.record_rejection(arrival);
            return Ok(());
        };
        // The grant is addressed to the sender side of the data stream: this
        // node is the sender, `message.from` the receiver that granted.
        let dest = message.from.index();
        let Some(outbox) = self.node.outboxes.get_mut(&dest) else {
            // Credit for a stream that never sent anything (forged): ignore.
            return Ok(());
        };
        if let Some(stalled_for) = outbox.grant_credit(granted, arrival) {
            secureblox_telemetry::histogram!("engine_stream_stall_ns").record(stalled_for);
        }
        self.drain_outbox(dest, arrival, false)
    }

    /// Apply one inbound update-stream envelope: decrypt, decode, drop stale
    /// duplicates, then apply its deltas in order, each with its own verdict
    /// (paper semantics) — every `Assert` is its own ACID
    /// [`Workspace::transaction`], every `Retract` is authorized and
    /// DRed-applied individually.  What the envelope amortizes is
    /// *scheduling*, not semantics: one export flush per envelope instead of
    /// one per committed delta (flushes are idempotent — the `sent` cursor
    /// dedups — so deferring them cannot change what ships), plus the
    /// sender-side coalescing and the credit return.
    fn deliver_update(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let _apply_timer = secureblox_telemetry::histogram!("engine_update_apply_ns").start_timer();
        let mut update_span =
            secureblox_telemetry::span("engine", "update_apply").node(message.to.0 as u64);
        let from_principal = self.shared.principals[message.from.index()].clone();
        let to_principal = self.node.info.principal.clone();
        let mut payload = message.payload.to_vec();
        if self.config.security.enc == EncScheme::Aes128 {
            let secret = self
                .shared
                .keystore
                .shared_secret(&to_principal, &from_principal)
                .map_err(|e| DatalogError::Eval(e.to_string()))?;
            match aes128_ctr_decrypt(secret, &payload) {
                Ok(plain) => payload = plain,
                Err(_) => {
                    self.node.stats.record_rejection(arrival);
                    return Ok(());
                }
            }
        }
        let envelope = match UpdateEnvelope::decode(&payload) {
            Ok(envelope) => envelope,
            Err(_) => {
                self.node.stats.record_rejection(arrival);
                return Ok(());
            }
        };
        // At-most-once per delta: links are FIFO, so a sequence number at or
        // below the highest *accepted* sequence from this sender is a
        // duplicate of an already applied envelope and is dropped whole.
        if let Some(&last) = self.node.last_update_seq_in.get(&message.from.0) {
            if envelope.seq <= last {
                return Ok(());
            }
        }
        // The watermark advances below only when some delta produces
        // policy-accepted evidence (a committed transaction or a
        // signature-verified retraction).  An envelope of forged deltas —
        // whatever sequence number it claims — must not be able to mute the
        // link for the peer's legitimate traffic.
        update_span.record_field("from", message.from.0 as u64);
        update_span.record_field("seq", envelope.seq);
        update_span.record_field("deltas", envelope.deltas.len() as u64);
        // Shuffle-apply latency: wall time to apply an envelope that carries
        // exchange deltas — the receive half of a shard exchange step.
        let _shuffle_timer = envelope
            .deltas
            .iter()
            .any(|delta| is_exchange_pred(&delta.pred))
            .then(|| {
                secureblox_telemetry::histogram!("engine_shard_shuffle_apply_ns").start_timer()
            });
        secureblox_telemetry::histogram!("engine_stream_recv_batch_deltas")
            .record(envelope.deltas.len() as u64);
        let mut accepted = false;
        let mut dirty = false;
        for delta in &envelope.deltas {
            match delta.op {
                DeltaOp::Assert => {
                    // The receiver's own constraints (signature verification,
                    // trust, write access) accept or roll back the delta.
                    if self.apply_transaction(delta_batch(delta), arrival)? {
                        accepted = true;
                        dirty = true;
                    }
                }
                DeltaOp::Retract => {
                    // Channel-level checks mirror the datalog-side assert
                    // constraints: only the principal that said a fact — and
                    // whose signature still verifies over it — may retract
                    // it, and only at the addressee.
                    let authorized = delta.tuple.len() >= 2
                        && delta.tuple[0].as_str() == Some(from_principal.as_str())
                        && delta.tuple[1].as_str() == Some(to_principal.as_str())
                        && self.verify_update_signature(&from_principal, &to_principal, delta)?;
                    if !authorized {
                        self.node.stats.record_rejection(arrival);
                        continue;
                    }
                    accepted = true;
                    dirty |= self.apply_retraction(delta_batch(delta), arrival)?;
                }
            }
        }
        if dirty {
            let now = self.node.available_at;
            self.flush_updates(now)?;
        }
        if !envelope.deltas.is_empty() {
            // Return the drained deltas' credit once the applies finish.  The
            // grant is unconditional — rejected deltas were still drained —
            // so every shipped delta eventually refills the sender's window
            // and a stalled outbox can never deadlock.  Credit rides a plain
            // (unordered) message: grants are cumulative counts, order-free.
            let send_at = arrival.max(self.node.available_at);
            secureblox_telemetry::counter!("engine_stream_credits_total").inc();
            self.send(
                Message::new(
                    message.to,
                    message.from,
                    MessageKind::Credit,
                    secureblox_net::message::encode_credit(envelope.deltas.len() as u64),
                ),
                send_at,
                false,
            );
        }
        if accepted {
            let last = self
                .node
                .last_update_seq_in
                .entry(message.from.0)
                .or_insert(0);
            *last = (*last).max(envelope.seq);
        }
        update_span.record_field("accepted", accepted as u64);
        Ok(())
    }

    /// Verify a retract delta's detached signature under the deployment's
    /// authentication scheme — the same coverage the generated `sig$T` rules
    /// sign: the canonical encoding of the payload columns (after the two
    /// principal columns).
    fn verify_update_signature(
        &self,
        from_principal: &str,
        to_principal: &str,
        delta: &UpdateDelta,
    ) -> Result<bool> {
        secureblox_telemetry::counter!("engine_signature_checks_total").inc();
        let _verify_timer =
            secureblox_telemetry::histogram!("engine_update_verify_ns").start_timer();
        let payload = serialize_tuple(&delta.tuple[2..]);
        match self.config.security.auth {
            AuthScheme::NoAuth => Ok(true),
            AuthScheme::HmacSha1 => {
                let secret = self
                    .shared
                    .keystore
                    .shared_secret(to_principal, from_principal)
                    .map_err(|e| DatalogError::Eval(e.to_string()))?;
                Ok(hmac_sha1_verify(secret, &payload, &delta.signature))
            }
            AuthScheme::Rsa => {
                let public = self
                    .shared
                    .keystore
                    .public_key(from_principal)
                    .map_err(|e| DatalogError::Eval(e.to_string()))?;
                Ok(public.verify(&payload, &RsaSignature(delta.signature.clone())))
            }
        }
    }

    /// DRed the batch out of the workspace, WAL-log it (so recovery replays
    /// it in order), and record the verdict.  Returns whether stored facts
    /// were actually deleted — only then does the caller need to flush
    /// update streams for cascaded withdrawals.
    fn apply_retraction(
        &mut self,
        batch: Vec<(String, Tuple)>,
        arrival: VirtualTime,
    ) -> Result<bool> {
        let start_virtual = arrival.max(self.node.available_at);
        let started = Instant::now();
        let outcome = self.node.workspace.retract(batch.clone());
        let elapsed = started.elapsed();
        secureblox_telemetry::histogram!("engine_retraction_apply_ns").record_duration(elapsed);
        let finish = start_virtual + elapsed.as_nanos() as u64;
        self.node.available_at = finish;
        match outcome {
            Ok(stats) => {
                if stats.base_deleted == 0 {
                    // Nothing was stored here (e.g. the assert had been
                    // rejected); at-most-once means there is nothing to log
                    // or propagate.
                    return Ok(false);
                }
                if let Some(store) = &mut self.node.store {
                    store
                        .log_retracts(batch.iter().map(|(p, t)| (p.as_str(), t)), finish)
                        .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
                }
                // A cascade: the retraction removed stored facts and may now
                // propagate further withdrawals through this node's streams.
                secureblox_telemetry::counter!("engine_retraction_cascades_total").inc();
                secureblox_telemetry::histogram!("engine_retraction_deleted_facts")
                    .record((stats.base_deleted + stats.over_deleted) as u64);
                self.node.stats.record_retraction(finish);
                self.node.needs_retraction_scan = true;
                Ok(true)
            }
            Err(DatalogError::ConstraintViolation(_)) => {
                // Deleting the fact would violate a constraint: the whole
                // retraction rolls back, mirroring assert-batch semantics.
                self.node.stats.record_rejection(finish);
                Ok(false)
            }
            Err(DatalogError::FunctionalDependency { .. }) => {
                self.node.stats.record_conflict(finish);
                Ok(false)
            }
            Err(other) => Err(other),
        }
    }

    /// Apply the deltas a circuit delivered at its endpoint or initiator,
    /// each as the one fact `fact_of` maps it to, flushing update streams
    /// after every delta that changed the workspace.  The onion layers
    /// already authenticate circuit traffic, so a withdrawal needs no
    /// detached signature.
    fn apply_circuit_deltas(
        &mut self,
        deltas: Vec<UpdateDelta>,
        arrival: VirtualTime,
        fact_of: impl Fn(UpdateDelta) -> (String, Tuple),
    ) -> Result<()> {
        for delta in deltas {
            let op = delta.op;
            let batch = vec![fact_of(delta)];
            let changed = match op {
                DeltaOp::Assert => self.apply_transaction(batch, arrival)?,
                DeltaOp::Retract => self.apply_retraction(batch, arrival)?,
            };
            if changed {
                let now = self.node.available_at;
                self.flush_updates(now)?;
            }
        }
        Ok(())
    }

    fn deliver_anon_forward(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let here = self.index;
        let Some((circuit_id, hop, body)) = decode_anon_cell(&message.payload) else {
            self.node.stats.record_rejection(arrival);
            return Ok(());
        };
        let Some(circuit) = self
            .shared
            .circuits
            .iter()
            .find(|c| c.id == circuit_id)
            .cloned()
        else {
            self.node.stats.record_rejection(arrival);
            return Ok(());
        };
        let key = circuit.keys.get(hop as usize).cloned().unwrap_or_default();
        let Ok(peeled) = aes128_ctr_decrypt(&key, &body) else {
            self.node.stats.record_rejection(arrival);
            return Ok(());
        };
        let is_endpoint = (hop as usize) == circuit.relays.len();
        if is_endpoint || circuit.relays.is_empty() && here == circuit.endpoint {
            // Deliver into the endpoint's workspace keyed by the circuit.
            let envelope = match UpdateEnvelope::decode(&peeled) {
                Ok(envelope) => envelope,
                Err(_) => {
                    self.node.stats.record_rejection(arrival);
                    return Ok(());
                }
            };
            return self.apply_circuit_deltas(envelope.deltas, arrival, |delta| {
                let mut tuple = vec![Value::Int(circuit.id as i64)];
                tuple.extend(delta.tuple);
                (format!("anon_says_id_in${}", delta.pred), tuple)
            });
        }
        // Relay: forward the peeled cell to the next hop.
        let next_hop_index = hop as usize + 1;
        let next = if next_hop_index == circuit.relays.len() {
            circuit.endpoint
        } else {
            circuit.relays[next_hop_index]
        };
        let forward = Message::new(
            NodeId(here as u32),
            NodeId(next as u32),
            MessageKind::AnonForward,
            encode_anon_cell(circuit_id, next_hop_index as u32, &peeled),
        );
        let send_at = arrival.max(self.node.available_at);
        self.node.available_at = send_at;
        self.send(forward, send_at, true);
        Ok(())
    }

    fn deliver_anon_backward(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let here = self.index;
        let Some((circuit_id, hop, body)) = decode_anon_cell(&message.payload) else {
            self.node.stats.record_rejection(arrival);
            return Ok(());
        };
        let Some(circuit) = self
            .shared
            .circuits
            .iter()
            .find(|c| c.id == circuit_id)
            .cloned()
        else {
            self.node.stats.record_rejection(arrival);
            return Ok(());
        };
        if hop == u32::MAX || here == circuit.initiator {
            // Initiator: peel every layer (relays in forward order, then the
            // endpoint's innermost layer).
            let mut plain = body;
            for key in &circuit.keys {
                match aes128_ctr_decrypt(key, &plain) {
                    Ok(next) => plain = next,
                    Err(_) => {
                        self.node.stats.record_rejection(arrival);
                        return Ok(());
                    }
                }
            }
            let envelope = match UpdateEnvelope::decode(&plain) {
                Ok(envelope) => envelope,
                Err(_) => {
                    self.node.stats.record_rejection(arrival);
                    return Ok(());
                }
            };
            return self.apply_circuit_deltas(envelope.deltas, arrival, |delta| {
                (format!("anon_reply${}", delta.pred), delta.tuple)
            });
        }
        // Relay: add this hop's layer and forward towards the initiator.
        let key = circuit.keys.get(hop as usize).cloned().unwrap_or_default();
        let wrapped = aes128_ctr_encrypt(&key, &body);
        let (next, next_hop) = if hop == 0 {
            (circuit.initiator, u32::MAX)
        } else {
            (circuit.relays[hop as usize - 1], hop - 1)
        };
        let forward = Message::new(
            NodeId(here as u32),
            NodeId(next as u32),
            MessageKind::AnonBackward,
            encode_anon_cell(circuit_id, next_hop, &wrapped),
        );
        let send_at = arrival.max(self.node.available_at);
        self.node.available_at = send_at;
        self.send(forward, send_at, true);
        Ok(())
    }
}

/// The receiver-side insertion batch for one update-stream delta: the
/// `says$T` tuple plus, when a detached signature rides along, the matching
/// `sig$T` row the generated verification constraints consume.
fn delta_batch(delta: &UpdateDelta) -> Vec<(String, Tuple)> {
    let mut batch: Vec<(String, Tuple)> =
        vec![(format!("says${}", delta.pred), delta.tuple.clone())];
    if !delta.signature.is_empty() {
        let mut sig_tuple = delta.tuple.clone();
        sig_tuple.push(Value::bytes(delta.signature.clone()));
        batch.push((format!("sig${}", delta.pred), sig_tuple));
    }
    batch
}

/// Encode an anonymity cell: circuit id, hop index, body.
fn encode_anon_cell(circuit_id: u64, hop: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&circuit_id.to_be_bytes());
    out.extend_from_slice(&hop.to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Decode an anonymity cell.
fn decode_anon_cell(payload: &[u8]) -> Option<(u64, u32, Vec<u8>)> {
    if payload.len() < 12 {
        return None;
    }
    let circuit_id = u64::from_be_bytes(payload[0..8].try_into().ok()?);
    let hop = u32::from_be_bytes(payload[8..12].try_into().ok()?);
    Some((circuit_id, hop, payload[12..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{SecurityConfig, TrustModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secureblox_crypto::{AuthScheme, EncScheme};

    /// A two-node "reachability gossip" application: each node says its links
    /// to the other node, which imports them into `remote_link`.
    const GOSSIP_APP: &str = r#"
        link(N1, N2) -> node(N1), node(N2).
        remote_link(N1, N2) -> node(N1), node(N2).
        exportable(`remote_link).

        says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    "#;

    fn two_node_specs() -> Vec<NodeSpec> {
        vec![
            NodeSpec {
                principal: "n0".into(),
                base_facts: vec![("link".into(), vec![Value::str("n0"), Value::str("n1")])],
            },
            NodeSpec {
                principal: "n1".into(),
                base_facts: vec![("link".into(), vec![Value::str("n1"), Value::str("n0")])],
            },
        ]
    }

    fn run_gossip(security: SecurityConfig) -> (Deployment, DeploymentReport) {
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let report = deployment.run().unwrap();
        (deployment, report)
    }

    #[test]
    fn noauth_gossip_exchanges_facts() {
        let (deployment, report) =
            run_gossip(SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None));
        assert_eq!(
            deployment.query("n0", "remote_link"),
            vec![vec![Value::str("n1"), Value::str("n0")]]
        );
        assert_eq!(
            deployment.query("n1", "remote_link"),
            vec![vec![Value::str("n0"), Value::str("n1")]]
        );
        assert_eq!(report.rejected_batches, 0);
        assert!(report.total_messages >= 2);
        assert!(report.fixpoint_latency > Duration::ZERO);
        assert!(report.per_node_kb > 0.0);
        // The report folds the nodes' statistics: the fixpoint is the last
        // node to go quiet, and the per-node KB is the mean of sent bytes.
        assert_eq!(
            report.convergence_times.iter().max(),
            Some(&report.fixpoint_latency)
        );
        let mean_kb = report.per_node_bytes.iter().sum::<usize>() as f64 / 1024.0 / 2.0;
        assert!((report.per_node_kb - mean_kb).abs() < 1e-12);
        assert!(report.total_transactions >= 2);
        assert!(report.average_transaction > Duration::ZERO);
        assert!(report.apply_latency_p50 <= report.apply_latency_p99);
        // The convergence CDF is monotone and ends at 1, for this run's
        // times and for arbitrary ones.
        let mut report = report;
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..16 {
            let samples = rng.gen_range(2..50usize);
            let cdf = report.convergence_cdf(samples);
            assert_eq!(cdf.len(), samples + 1);
            assert_eq!(cdf[0].0, Duration::ZERO);
            for pair in cdf.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].0 && pair[1].1 >= pair[0].1,
                    "round {round}"
                );
            }
            assert_eq!(cdf.last().unwrap().1, 1.0, "round {round}");
            let nodes = rng.gen_range(1..24usize);
            report.convergence_times = (0..nodes)
                .map(|_| Duration::from_nanos(rng.gen_range(0..1_000_000u64)))
                .collect();
        }
    }

    #[test]
    fn hmac_and_rsa_gossip_verify_and_cost_more_bytes() {
        let (_, noauth) = run_gossip(SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None));
        let (hmac_dep, hmac) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None));
        let (rsa_dep, rsa) = run_gossip(SecurityConfig::new(AuthScheme::Rsa, EncScheme::None));
        // Facts still arrive.
        assert_eq!(hmac_dep.query("n0", "remote_link").len(), 1);
        assert_eq!(rsa_dep.query("n0", "remote_link").len(), 1);
        assert_eq!(hmac.rejected_batches, 0);
        assert_eq!(rsa.rejected_batches, 0);
        // Signature overhead ordering matches Figure 6.
        assert!(noauth.per_node_kb < hmac.per_node_kb);
        assert!(hmac.per_node_kb < rsa.per_node_kb);
    }

    #[test]
    fn aes_encryption_still_delivers_and_adds_bytes() {
        let (deployment, plain) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None));
        let (enc_dep, enc) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::Aes128));
        assert_eq!(
            deployment.query("n0", "remote_link"),
            enc_dep.query("n0", "remote_link")
        );
        assert!(enc.per_node_kb > plain.per_node_kb);
    }

    #[test]
    fn untrusted_principal_rejected_with_trustworthy_model() {
        // n1 is not trustworthy at n0, so n0 must not import its fact, but n1
        // (which trusts everyone it lists) still imports n0's fact.
        let security = SecurityConfig {
            auth: AuthScheme::NoAuth,
            trust: TrustModel::Trustworthy,
            ..SecurityConfig::default()
        };
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        // Remove n1 from n0's trustworthy relation before running.
        deployment.nodes[0]
            .workspace
            .retract(vec![("trustworthy".into(), vec![Value::str("n1")])])
            .unwrap();
        deployment.run().unwrap();
        assert_eq!(deployment.query("n0", "remote_link").len(), 0);
        assert_eq!(deployment.query("n1", "remote_link").len(), 1);
        // The says fact from n1 itself was accepted (n1 is a known
        // principal); only the import into remote_link is withheld.  n0 also
        // stores its own outgoing says tuple, hence two rows.
        let incoming: Vec<_> = deployment
            .query("n0", "says$remote_link")
            .into_iter()
            .filter(|t| t[1].as_str() == Some("n0"))
            .collect();
        assert_eq!(incoming.len(), 1);
    }

    #[test]
    fn forged_signature_rolls_back_batch() {
        let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        // Forge a message from n1 to n0 with a bad tag by injecting it
        // directly into the network.
        let envelope = UpdateEnvelope {
            seq: 0,
            deltas: vec![UpdateDelta {
                op: DeltaOp::Assert,
                pred: "remote_link".into(),
                tuple: vec![
                    Value::str("n1"),
                    Value::str("n0"),
                    Value::str("evil"),
                    Value::str("evil2"),
                ],
                signature: vec![0u8; 20],
            }],
        };
        deployment.inject_message(1, 0, envelope.encode());
        let report = deployment.run().unwrap();
        assert!(report.rejected_batches >= 1);
        assert!(!deployment
            .query("n0", "remote_link")
            .contains(&vec![Value::str("evil"), Value::str("evil2")]));
        // Legitimate traffic still arrived.
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
    }

    #[test]
    fn write_access_constraint_enforced() {
        let security = SecurityConfig {
            auth: AuthScheme::NoAuth,
            write_access: true,
            ..SecurityConfig::default()
        };
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        // Revoke n1's write access to remote_link at n0.
        deployment.nodes[0]
            .workspace
            .retract(vec![(
                "writeAccess$remote_link".into(),
                vec![Value::str("n1")],
            )])
            .unwrap();
        let report = deployment.run().unwrap();
        assert!(report.rejected_batches >= 1);
        assert_eq!(deployment.query("n0", "remote_link").len(), 0);
        assert_eq!(deployment.query("n1", "remote_link").len(), 1);
    }

    #[test]
    fn parallel_deployment_matches_serial_and_reports_workers() {
        let serial_config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            parallelism: 1,
            ..DeploymentConfig::default()
        };
        let mut serial = Deployment::build(GOSSIP_APP, &two_node_specs(), serial_config).unwrap();
        let serial_report = serial.run().unwrap();
        let parallel_config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            parallelism: 4,
            ..DeploymentConfig::default()
        };
        let mut parallel =
            Deployment::build(GOSSIP_APP, &two_node_specs(), parallel_config).unwrap();
        let parallel_report = parallel.run().unwrap();
        assert_eq!(serial_report.workers, 1);
        assert_eq!(parallel_report.workers, 4);
        assert!(parallel_report.worker_utilization >= 0.0);
        assert!(parallel_report.worker_utilization <= 1.0);
        for principal in ["n0", "n1"] {
            assert_eq!(
                serial.query(principal, "remote_link"),
                parallel.query(principal, "remote_link"),
                "parallel evaluation must not change {principal}'s fixpoint"
            );
        }
        assert_eq!(
            serial_report.rejected_batches,
            parallel_report.rejected_batches
        );
    }

    #[test]
    fn stale_seq_replay_is_rejected_even_out_of_order() {
        // NoAuth, so nothing but the sequence watermark stands between an
        // injected replay and the workspace: the deltas would be accepted if
        // the envelope were fresh.
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        deployment.run().unwrap();
        // The legitimate n1→n0 stream used sequence 1; replay that sequence
        // with attacker-chosen contents.  `inject_message` sends at virtual
        // time 0, bypassing the per-link FIFO floor — the replay arrives
        // *before* anything else queued on the link, the strongest reordering
        // an on-path adversary can force.
        let replay = UpdateEnvelope {
            seq: 1,
            deltas: vec![UpdateDelta {
                op: DeltaOp::Assert,
                pred: "remote_link".into(),
                tuple: vec![
                    Value::str("n1"),
                    Value::str("n0"),
                    Value::str("evil"),
                    Value::str("evil2"),
                ],
                signature: Vec::new(),
            }],
        };
        let sent_before = deployment.report().per_node_bytes[1];
        deployment.inject_message(1, 0, replay.encode());
        let report = deployment.run().unwrap();
        // The injected payload is charged to its claimed sender; the
        // dropped replay causes no further traffic.
        assert_eq!(
            report.per_node_bytes[1],
            sent_before + replay.encode().len() + secureblox_net::message::HEADER_OVERHEAD_BYTES
        );
        assert!(
            !deployment
                .query("n0", "remote_link")
                .contains(&vec![Value::str("evil"), Value::str("evil2")]),
            "stale-sequence replay must be dropped whole, not applied"
        );
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
    }

    #[test]
    fn exhausted_message_budget_names_busiest_links() {
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            message_budget: 1,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let err = deployment.run().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("message budget of 1"), "got: {text}");
        assert!(text.contains("busiest links:"), "got: {text}");
        assert!(text.contains("msgs"), "got: {text}");
    }

    /// The update stream is knob-invariant: the tightest schedule (one
    /// delta per envelope, a credit window of one) and the squeezed and
    /// default knobs agree on every relation and verdict.
    #[test]
    fn gossip_outcome_is_independent_of_stream_knobs() {
        let run = |streaming: StreamingConfig| {
            let config = DeploymentConfig {
                security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
                streaming,
                ..DeploymentConfig::default()
            };
            let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
            let report = deployment.run().unwrap();
            (deployment, report)
        };
        let (tightest, tightest_report) = run(StreamingConfig::with_knobs(1, 1));
        for streaming in [
            StreamingConfig::with_knobs(8, 32),
            StreamingConfig::default(),
        ] {
            let label = format!("{streaming:?}");
            let (other, other_report) = run(streaming);
            for principal in ["n0", "n1"] {
                for pred in ["remote_link", "says$remote_link", "link"] {
                    assert_eq!(
                        tightest.query(principal, pred),
                        other.query(principal, pred),
                        "{principal}/{pred} diverged under {label}"
                    );
                }
            }
            assert_eq!(
                tightest_report.rejected_batches,
                other_report.rejected_batches
            );
            assert_eq!(
                tightest_report.retractions_applied,
                other_report.retractions_applied
            );
        }
    }

    #[test]
    fn build_refuses_a_disabled_update_stream() {
        let mut config = DeploymentConfig::default();
        config.streaming.enabled = false;
        let err = Deployment::build(GOSSIP_APP, &two_node_specs(), config)
            .err()
            .expect("a disabled update stream must be refused");
        let text = err.to_string();
        assert!(text.contains("per-envelope update path"), "got: {text}");
        assert!(text.contains("removed"), "got: {text}");
    }

    #[test]
    fn streaming_retraction_converges_and_annihilates_nothing_shipped() {
        // Assert, converge, retract at the source: the withdrawal must cross
        // the wire as a Retract delta and remove the remote copy.
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming: StreamingConfig::with_knobs(8, 32),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        deployment.run().unwrap();
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
        deployment
            .retract(
                "n1",
                vec![("link".into(), vec![Value::str("n1"), Value::str("n0")])],
            )
            .unwrap();
        let report = deployment.run().unwrap();
        assert_eq!(deployment.query("n0", "remote_link").len(), 0);
        assert!(report.retractions_applied >= 1);
    }

    /// Regression: the non-convergence guard must count only
    /// data-plane deliveries.  A streaming gossip exchange is exactly two
    /// Update envelopes plus two Credit grants; with the old counting the
    /// credits spent half the budget and a budget of 2 tripped spuriously.
    #[test]
    fn credit_messages_do_not_spend_the_message_budget() {
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming: StreamingConfig::with_knobs(8, 32),
            message_budget: 2,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        deployment.run().expect(
            "a budget equal to the data-plane message count must suffice; \
             credit grants are control traffic",
        );
        let sent = |kind| -> usize {
            deployment
                .nodes
                .iter()
                .map(|node| node.stats.messages_of_kind(kind))
                .sum()
        };
        assert_eq!(sent(MessageKind::Update), 2);
        assert!(
            sent(MessageKind::Credit) >= 2,
            "backpressure credits must actually have flowed for this test to bite"
        );
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
        assert_eq!(deployment.query("n1", "remote_link").len(), 1);
    }

    #[test]
    fn reactor_gossip_matches_reference() {
        let (reference, reference_report) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None));
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            reactor: ReactorConfig::with_threads(2),
            ..DeploymentConfig::default()
        };
        let mut reactor = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let reactor_report = reactor.run().unwrap();
        for principal in ["n0", "n1"] {
            for pred in ["remote_link", "says$remote_link", "link"] {
                assert_eq!(
                    reference.query(principal, pred),
                    reactor.query(principal, pred),
                    "{principal}/{pred} diverged under the reactor executor"
                );
            }
        }
        assert_eq!(
            reference_report.rejected_batches,
            reactor_report.rejected_batches
        );
        // Each node records its own statistics under either executor, so
        // the traffic and verdict figures agree exactly.
        assert_eq!(
            reference_report.total_messages,
            reactor_report.total_messages
        );
        assert_eq!(
            reference_report.per_node_bytes,
            reactor_report.per_node_bytes
        );
        assert_eq!(
            reference_report.total_transactions,
            reactor_report.total_transactions
        );
        assert_eq!(
            reference_report.retractions_applied,
            reactor_report.retractions_applied
        );
        for kind in [MessageKind::Update, MessageKind::Credit] {
            for (a, b) in reference.nodes.iter().zip(&reactor.nodes) {
                assert_eq!(
                    a.stats.messages_of_kind(kind),
                    b.stats.messages_of_kind(kind),
                    "{kind:?} messages from {}",
                    a.info.principal
                );
            }
        }
    }

    #[test]
    fn reactor_budget_exhaustion_reports_like_the_reference() {
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            message_budget: 1,
            reactor: ReactorConfig::with_threads(2),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let err = deployment.run().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("message budget of 1"), "got: {text}");
        assert!(text.contains("busiest links:"), "got: {text}");
    }

    #[test]
    fn anon_cell_roundtrip() {
        let cell = encode_anon_cell(7, 2, b"body bytes");
        let (id, hop, body) = decode_anon_cell(&cell).unwrap();
        assert_eq!((id, hop), (7, 2));
        assert_eq!(body, b"body bytes");
        assert!(decode_anon_cell(&cell[..5]).is_none());
    }
}

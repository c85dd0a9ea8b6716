//! Horizontal-sharding scaling: aggregate sustained updates/sec and join
//! throughput as the partition count grows at **fixed per-node data size**
//! (weak scaling), at 6 / 18 / 36 nodes.
//!
//! The workload is the shard-layer hash join (`BENCH_APP` below, the §8.2
//! table shape): both tables are declared sharded on their first key
//! column, the join is written partition-blind, and the exchange planner
//! generates the both-sides shuffle on the join attribute.  Every
//! exchanged tuple rides the signed update stream, and each partition
//! keeps its own shard of the result (no collection sink — see
//! `BENCH_APP`).  Tables grow linearly with the partition count, so
//! per-partition work stays constant and the *aggregate* rate — tuples
//! exchanged (and join results produced) per second of virtual fixpoint
//! latency — measures how capacity grows with the group.
//!
//! Before reporting any number, the bench asserts:
//!
//! * the sharded join result (union across partitions) is **tuple-identical**
//!   to an unsharded single-node reference over the same tables, and matches
//!   the combinatorially expected join size;
//! * two independent durable sharded runs land on **bit-identical per-node
//!   EDB Merkle roots** — the sharded outcome is deterministic down to each
//!   partition's store commitment.
//!
//! Writes `BENCH_shard_scaling.json` (to `SECUREBLOX_BENCH_DIR` or the
//! working directory).  CI's regression gate compares the aggregate
//! updates/sec at 6 nodes against the committed artifact.
//! `CRITERION_QUICK=1` runs the 6-node point only and tags the report so
//! the gate skips monotonicity.

use secureblox::apps::hashjoin::{
    expected_join_size, generate_tables, principal_name, HashJoinConfig,
};
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, ShardMap, StreamingConfig};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::path::PathBuf;
use std::time::Duration;

/// Per-partition table sizes (the §8.2 shape scaled down per node).
const ROWS_A_PER_NODE: usize = 60;
const ROWS_B_PER_NODE: usize = 50;
const DISTINCT_PER_NODE: usize = 18;

/// The bench workload: the partition-blind join with **no collection sink**.
/// The hashjoin app's `sharded_app_source` additionally ships every result
/// to a single initiator, which is the right outcome shape for the §7.2
/// figure but the wrong thing to weak-scale: virtual time charges each
/// node's transactions serially, so a global sink serializes O(total
/// results) at one node and the sweep measures the funnel, not the shard
/// plane.  Here each partition keeps its shard of `joinresult` (the shuffle
/// lands both sides of every match at the join-value's ring owner) and the
/// bench verifies the *union* across partitions against the unsharded
/// reference.
const BENCH_APP: &str = r#"
    tableA(E1, E2) -> int[32](E1), int[32](E2).
    tableB(E3, E2) -> int[32](E3), int[32](E2).
    joinresult(E1, E2, E3) -> int[32](E1), int[32](E2), int[32](E3).

    // Partition-blind join: the shard planner rewrites both body atoms to
    // their exchanged (rehashed-on-E2) copies.
    joinresult(E1, E2, E3) <- tableA(E1, E2), tableB(E3, E2).
"#;

fn tables_for(n: usize) -> HashJoinConfig {
    HashJoinConfig {
        num_nodes: n,
        table_a_rows: ROWS_A_PER_NODE * n,
        table_b_rows: ROWS_B_PER_NODE * n,
        distinct_join_values: DISTINCT_PER_NODE * n,
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        seed: 7,
        ..HashJoinConfig::default()
    }
}

fn table_facts(config: &HashJoinConfig) -> Vec<(String, Tuple)> {
    let (table_a, table_b) = generate_tables(config);
    let mut facts = Vec::with_capacity(table_a.len() + table_b.len());
    for (e1, e2) in table_a {
        facts.push(("tableA".to_string(), vec![Value::Int(e1), Value::Int(e2)]));
    }
    for (e3, e2) in table_b {
        facts.push(("tableB".to_string(), vec![Value::Int(e3), Value::Int(e2)]));
    }
    facts
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-shard-bench-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct ShardedResult {
    /// Virtual time to fixpoint — N nodes computing in parallel.
    virtual_latency: Duration,
    /// Tuples that crossed the exchange plane (extension of the generated
    /// `shard_xchg_*` relations, each tuple landing at exactly one owner).
    exchanged: usize,
    exchange_bytes: usize,
    join_results: Vec<Tuple>,
    roots: Vec<(String, String)>,
    skew: f64,
}

fn run_sharded(n: usize, trial: usize) -> ShardedResult {
    let config = tables_for(n);
    let dir = fresh_dir(&format!("n{n}-t{trial}"));
    let principals: Vec<String> = (0..n).map(principal_name).collect();
    let specs: Vec<NodeSpec> = principals.iter().map(NodeSpec::new).collect();
    let deployment_config = DeploymentConfig {
        security: config.security.clone(),
        seed: config.seed,
        shared_facts: table_facts(&config),
        sharding: Some(
            ShardMap::new(principals.clone())
                .shard("tableA", 0)
                .shard("tableB", 0),
        ),
        // Default knobs, pinned so the environment cannot change the
        // measured schedule: exchange deltas coalesce into multi-delta
        // envelopes and every delta applies through its own seeded
        // transaction.
        streaming: StreamingConfig::with_knobs(64, 256),
        durability: Some(DurabilityConfig::new(&dir)),
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(BENCH_APP, &specs, deployment_config)
        .expect("build sharded join deployment");
    let report = deployment.run().expect("sharded join converges");

    let mut exchanged = 0usize;
    for principal in &principals {
        exchanged += deployment.query(principal, "shard_xchg_c1_tableA").len();
        exchanged += deployment.query(principal, "shard_xchg_c1_tableB").len();
    }
    let shard_view = report.shard.expect("sharded run reports the shard plane");
    let result = ShardedResult {
        virtual_latency: report.fixpoint_latency,
        exchanged,
        exchange_bytes: shard_view.exchange_bytes,
        join_results: sorted(deployment.query_union("joinresult")),
        roots: deployment.edb_roots().expect("durable roots"),
        skew: shard_view.skew,
    };
    drop(deployment);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The unsharded reference: every table row on one node, the same
/// partition-blind program, no shard map.
fn run_unsharded_reference(n: usize) -> Vec<Tuple> {
    let config = tables_for(n);
    let mut spec = NodeSpec::new(principal_name(0));
    spec.base_facts = table_facts(&config);
    let deployment_config = DeploymentConfig {
        security: config.security.clone(),
        seed: config.seed,
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(BENCH_APP, &[spec], deployment_config)
        .expect("build unsharded reference");
    deployment.run().expect("unsharded reference converges");
    sorted(deployment.query("n0", "joinresult"))
}

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by_key(|t| serialize_tuple(t));
    tuples
}

fn main() {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let node_counts: Vec<usize> = if quick { vec![6] } else { vec![6, 18, 36] };

    let mut entries = Vec::new();
    let mut update_rates = Vec::new();
    let mut join_rates = Vec::new();
    for &n in &node_counts {
        eprintln!("shard_scaling: n={n} ...");
        let config = tables_for(n);
        let (table_a, table_b) = generate_tables(&config);
        let expected = expected_join_size(&table_a, &table_b);

        let mut sharded = run_sharded(n, 0);
        let repeat = run_sharded(n, 1);
        assert_eq!(
            sharded.roots, repeat.roots,
            "two sharded runs diverged in per-node EDB Merkle roots at {n} nodes"
        );
        // Virtual latency folds in measured per-transaction wall time, so it
        // carries host noise; the minimum of the trials is the steadier
        // estimate (contents and roots are bit-identical across them).
        sharded.virtual_latency = sharded.virtual_latency.min(repeat.virtual_latency);
        let reference = run_unsharded_reference(n);
        assert_eq!(
            sharded.join_results.len(),
            expected,
            "sharded join size mismatch at {n} nodes"
        );
        assert_eq!(
            sharded.join_results, reference,
            "sharded join diverged from the unsharded reference at {n} nodes"
        );

        let seconds = sharded.virtual_latency.as_secs_f64().max(1e-9);
        let updates_per_sec = sharded.exchanged as f64 / seconds;
        let join_per_sec = expected as f64 / seconds;
        update_rates.push(updates_per_sec);
        join_rates.push(join_per_sec);
        println!(
            "bench shard_scaling/n{n:<3} exchanged {:>6} updates {updates_per_sec:>10.0}/s  \
             join {expected:>6} results {join_per_sec:>10.0}/s  virtual {:?}  skew {:.2}  \
             (results+roots verified)",
            sharded.exchanged, sharded.virtual_latency, sharded.skew
        );
        entries.push(format!(
            r#"    {{"n": {n}, "rows_per_node": {}, "exchanged_updates": {}, "exchange_bytes": {}, "virtual_fixpoint_ns": {}, "updates_per_sec": {updates_per_sec:.1}, "join_results": {expected}, "join_per_sec": {join_per_sec:.1}, "partition_skew": {:.3}, "results_match_unsharded": true, "merkle_roots_deterministic": true}}"#,
            ROWS_A_PER_NODE + ROWS_B_PER_NODE,
            sharded.exchanged,
            sharded.exchange_bytes,
            sharded.virtual_latency.as_nanos(),
            sharded.skew,
        ));
    }

    // Weak scaling: on the full sweep, aggregate throughput must grow with
    // the partition count.
    if node_counts.len() >= 2 && node_counts.windows(2).all(|w| w[0] < w[1]) {
        for rates in [&update_rates, &join_rates] {
            for window in rates.windows(2) {
                assert!(
                    window[1] > window[0],
                    "aggregate throughput must grow with partition count: {rates:?}"
                );
            }
        }
    }

    let dir = std::env::var_os("SECUREBLOX_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).expect("create bench report dir");
    let path = dir.join("BENCH_shard_scaling.json");
    let json = format!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \"quick\": {quick},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write bench report");
    println!("bench report written to {}", path.display());
}

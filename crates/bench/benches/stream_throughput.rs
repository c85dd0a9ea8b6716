//! Update-stream throughput: sustained deltas applied per second through
//! the streaming scheduler at its default knobs, at 6 / 18 / 36 nodes.
//!
//! The workload is a gossip flood on a ring: every node exports its own
//! `link` facts *and everything it has heard* to every other principal, so
//! each of the `2n` directed link facts eventually crosses every one of the
//! `n·(n-1)` directed pairs exactly once — `O(n²)` signed deltas riding many
//! small cascading transactions, the exact shape the per-link outbox was
//! built to coalesce.  The app is deterministic (no existentials, no
//! functional dependencies), so its fixpoint has a closed form: every node
//! holds its own two links, all `2n` ring links as `remote_link`, and
//! `4n(n-1)` `says$remote_link` rows (`2n` links said to and heard from each
//! of the `n-1` peers).  The bench asserts that state before reporting
//! throughput.
//!
//! Writes `BENCH_stream_throughput.json` (to `SECUREBLOX_BENCH_DIR` or the
//! working directory) with updates/sec and p50/p99 update-apply latency per
//! node count — CI's regression gate compares the streaming updates/sec
//! against the committed artifact.  `CRITERION_QUICK=1` runs the 6-node
//! point only and tags the report so the gate skips it.

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, StreamingConfig};
use secureblox::{AuthScheme, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
use std::time::{Duration, Instant};

const GOSSIP_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].
"#;

fn principal(i: usize) -> String {
    format!("n{i}")
}

/// Ring specs: node i owns directed links to both neighbours.
fn ring_specs(n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| {
            let mut spec = NodeSpec::new(principal(i));
            for j in [(i + 1) % n, (i + n - 1) % n] {
                spec.base_facts.push((
                    "link".into(),
                    vec![Value::str(principal(i)), Value::str(principal(j))],
                ));
            }
            spec
        })
        .collect()
}

struct RunResult {
    wall: Duration,
    updates: usize,
    apply_p50: Duration,
    apply_p99: Duration,
}

fn link(a: usize, b: usize) -> Vec<Value> {
    vec![Value::str(principal(a)), Value::str(principal(b))]
}

fn sorted(tuples: Vec<Vec<Value>>) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = tuples.iter().map(|t| serialize_tuple(t)).collect();
    bytes.sort();
    bytes
}

/// Check node `i`'s final relations against the ring gossip's closed form.
fn assert_closed_form(deployment: &Deployment, n: usize, i: usize) {
    let p = principal(i);
    let ring: Vec<Vec<Value>> = (0..n)
        .flat_map(|a| [link(a, (a + 1) % n), link(a, (a + n - 1) % n)])
        .collect();
    let own = vec![link(i, (i + 1) % n), link(i, (i + n - 1) % n)];
    let mut says = Vec::new();
    for peer in (0..n).filter(|&peer| peer != i) {
        for l in &ring {
            for (from, to) in [(i, peer), (peer, i)] {
                let mut tuple = link(from, to);
                tuple.extend(l.iter().cloned());
                says.push(tuple);
            }
        }
    }
    for (pred, expected) in [
        ("link", own),
        ("remote_link", ring),
        ("says$remote_link", says),
    ] {
        assert_eq!(
            sorted(deployment.query(&p, pred)),
            sorted(expected),
            "{p}/{pred} diverged from the ring gossip closed form at {n} nodes"
        );
    }
}

fn run(n: usize) -> RunResult {
    eprintln!("stream_throughput: n={n} ...");
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        // The shipped knobs, whatever `SECUREBLOX_BATCH_MAX` says.
        streaming: StreamingConfig::default(),
        ..DeploymentConfig::default()
    };
    let mut deployment =
        Deployment::build(GOSSIP_APP, &ring_specs(n), config).expect("build gossip deployment");
    let start = Instant::now();
    let report = deployment.run().expect("gossip flood converges");
    let wall = start.elapsed();

    let mut updates = 0usize;
    for i in 0..n {
        assert_closed_form(&deployment, n, i);
        updates += deployment.query(&principal(i), "says$remote_link").len();
    }
    assert_eq!(updates, 4 * n * n * (n - 1), "update count at {n} nodes");
    let result = RunResult {
        wall,
        updates,
        apply_p50: report.apply_latency_p50,
        apply_p99: report.apply_latency_p99,
    };
    eprintln!(
        "stream_throughput: n={n} done in {:?} ({} updates)",
        result.wall, result.updates
    );
    result
}

fn rate(result: &RunResult) -> f64 {
    result.updates as f64 / result.wall.as_secs_f64().max(1e-9)
}

fn result_json(result: &RunResult) -> String {
    format!(
        r#"{{"updates": {}, "wall_ns": {}, "updates_per_sec": {:.1}, "apply_p50_ns": {}, "apply_p99_ns": {}}}"#,
        result.updates,
        result.wall.as_nanos(),
        rate(result),
        result.apply_p50.as_nanos(),
        result.apply_p99.as_nanos(),
    )
}

fn main() {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let node_counts: Vec<usize> = match std::env::var("SECUREBLOX_STREAM_BENCH_NODES") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) if quick => vec![6],
        Err(_) => vec![6, 18, 36],
    };
    let mut entries = Vec::new();
    for &n in &node_counts {
        let result = run(n);
        println!(
            "bench stream_throughput/n{n:<3} streaming {:>10.0}/s  (p50 apply {:?}, p99 {:?})",
            rate(&result),
            result.apply_p50,
            result.apply_p99,
        );
        entries.push(format!(
            r#"    {{"n": {n}, "streaming": {}, "final_state_matches_closed_form": true}}"#,
            result_json(&result),
        ));
    }
    let dir = std::env::var_os("SECUREBLOX_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = dir.join("BENCH_stream_throughput.json");
    let json = format!(
        "{{\n  \"bench\": \"stream_throughput\",\n  \"quick\": {quick},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write bench report");
    println!("bench report written to {}", path.display());
}

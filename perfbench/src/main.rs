//! End-to-end SecureBlox benchmark with a per-layer cost ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pathvector_rsa|gossip_flood|sharded_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's job for `--seconds` seconds with
//! what users get (histograms on, spans off) and prints the end-to-end
//! metrics.  `--trace 1` runs the job once untraced and once traced (the
//! program's spans plus the benchmark's own around every call) and prints
//! the per-layer metrics and the ledger.  Every output is checked against
//! an oracle; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  See `perfbench/README.md`.

mod affinity;
mod common;
mod gossip;
mod ingest;
mod pathvector;
mod stats;
mod trace;
mod workload;

use affinity::Placement;
use common::{peak_rss_mb, Checks, Rep};
use secureblox::policy::compile_secured_program;
use secureblox::{AuthScheme, DeploymentConfig, EncScheme};
use secureblox_crypto::{aes128_ctr_encrypt, hmac_sha1, hmac_sha1_verify, KeyStore};
use secureblox_telemetry::{registry, Histogram};
use stats::{json_str, median, percentile, tail, Metrics};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{describe, sample, Sample, Workload};

const WORKLOADS: [&str; 3] = ["pathvector_rsa", "gossip_flood", "sharded_ingest"];
/// Set-up samples per run, at least, and fresh builds sampled after every
/// repetition so the samples spread over the run.
const MIN_SETUPS: usize = 21;
const SAMPLES_PER_REP: usize = 3;
/// Converge time below which those builds also converge.
const CHEAP_CONVERGE: Duration = Duration::from_millis(500);
/// Wall time per bench-timed crypto or compile measurement.
const MICRO_BUDGET: Duration = Duration::from_millis(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("perfbench: {message}");
            2
        }
    };
    std::process::exit(code);
}

/// Refuse to run under any `SECUREBLOX_*` variable: `Default` impls read
/// them, so one would silently change the workload.
fn forbid_environment() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key.starts_with("SECUREBLOX_") {
            return Err(format!(
                "environment variable {key} is set; it changes DeploymentConfig defaults \
                 and so the workload — unset it"
            ));
        }
    }
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}; got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    forbid_environment()?;
    let args = parse_args()?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let state_root = cwd
        .join(".perfbench_state")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&state_root).map_err(|e| format!("state dir: {e}"))?;
    let outcome = run_workload(&args, &state_root);
    let _ = std::fs::remove_dir_all(&state_root);
    let _ = std::fs::remove_dir(cwd.join(".perfbench_state"));
    let (metrics, checks) = outcome?;

    for m in &metrics.0 {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    );
    Ok(correct)
}

fn run_workload(args: &Args, state_root: &Path) -> Result<(Metrics, Checks), String> {
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "pathvector_rsa" => Box::new(pathvector::PathVector::new(args.seed)),
        "gossip_flood" => Box::new(gossip::Gossip::new(args.seed, state_root.to_path_buf())),
        _ => Box::new(ingest::Ingest::new(args.seed, state_root.to_path_buf())?),
    };
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"config\": {}, \"host\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        describe(workload.as_ref()),
        host()
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(workload.as_mut(), &mut checks)
    } else {
        measured(workload.as_mut(), args.seconds, &mut checks)
    };
    Ok((metrics, checks))
}

/// The end-to-end run: repeat the job for `seconds`, report medians.
/// Single-threaded jobs rotate over CPUs (see `affinity`) and report the
/// quietest CPU's median; multi-threaded ones report the plain median.
fn measured(workload: &mut dyn Workload, seconds: u64, checks: &mut Checks) -> Metrics {
    let config = workload.config();
    let placement = Placement::new(!config.reactor.enabled && config.parallelism <= 1);
    let mut tracer = Tracer::new(false);
    let mut setups: Vec<(usize, f64)> = Vec::new();
    let mut converge: Vec<(usize, f64)> = Vec::new();
    let mut rates: Vec<(usize, f64)> = Vec::new();
    let mut deltas: Vec<u64> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while reps.is_empty() || started.elapsed() < budget {
        let cpu = placement.pin(reps.len());
        let Ok(rep) = workload.rep(&mut tracer, checks) else {
            break;
        };
        let mut samples = vec![Sample {
            setup: rep.setup,
            converge: Some((rep.converge, rep.deltas)),
        }];
        // Where converge is short next to the rest of the job, extra
        // build-and-converge samples steady its median at little cost.
        let extra_converge = rep.converge < CHEAP_CONVERGE;
        for _ in 0..SAMPLES_PER_REP {
            match sample(workload, checks, extra_converge) {
                Ok(s) => samples.push(s),
                Err(_) => break,
            }
        }
        for s in samples {
            setups.push((cpu, s.setup.as_secs_f64()));
            if let Some((wall, n)) = s.converge {
                converge.push((cpu, wall.as_secs_f64()));
                rates.push((cpu, n as f64 / wall.as_secs_f64().max(1e-9)));
                deltas.push(n);
            }
        }
        reps.push(rep);
    }
    while setups.len() < MIN_SETUPS && checks.failed == 0 {
        let cpu = placement.pin(setups.len());
        match sample(workload, checks, false) {
            Ok(s) => setups.push((cpu, s.setup.as_secs_f64())),
            Err(_) => break,
        }
    }
    drop(placement);

    let wire: Vec<f64> = reps.iter().map(|r| r.wire_kb_per_node).collect();
    checks.check(
        "update delta count repeats exactly",
        deltas.windows(2).all(|w| w[0] == w[1]),
    );

    let mut metrics = Metrics::default();
    metrics.put("setup_s", print_timing("setup_s", "s", &setups, true), "s");
    metrics.put(
        "converge_s",
        print_timing("converge_s", "s", &converge, true),
        "s",
    );
    metrics.put(
        "updates_per_s",
        print_timing("updates_per_s", "1/s", &rates, false),
        "1/s",
    );
    metrics.put("wire_kb_per_node", median(&wire), "KB");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    print_job_extras(&reps, checks);
    metrics
}

/// Human-readable lines for the end-to-end quantities that only some
/// workloads have (open-loop changes, recovery), and the failure ratio.
fn print_job_extras(reps: &[Rep], checks: &Checks) {
    let latency: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.changes.iter().map(|c| c.latency.as_secs_f64() * 1e3))
        .collect();
    let lag: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.changes.iter().map(|c| c.lag.as_secs_f64() * 1e3))
        .collect();
    if !latency.is_empty() {
        println!(
            "e2e change_p50_ms {:.3} ms, change_p90_ms {:.3} ms, gen_lag_ms (p90) {:.3} ms, n={}",
            percentile(&latency, 50.0),
            percentile(&latency, 90.0),
            percentile(&lag, 90.0),
            latency.len()
        );
    }
    let recover: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.recover.map(|d| d.as_secs_f64()))
        .collect();
    if !recover.is_empty() {
        println!(
            "e2e recover_s median {:.6} s, n={}",
            median(&recover),
            recover.len()
        );
    }
    println!(
        "e2e failed_ops_ratio {} ({} of {} operations)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
}

/// Print, per CPU group, the median, the highest percentile with ten
/// samples beyond it and the sample count; return the quietest group's
/// median (lowest for times, highest for rates).
fn print_timing(name: &str, unit: &str, samples: &[(usize, f64)], lower_is_better: bool) -> f64 {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(cpu, value) in samples {
        groups.entry(cpu).or_default().push(value);
    }
    let mut best: Option<f64> = None;
    for (cpu, values) in &groups {
        let med = median(values);
        let tail = match tail(values) {
            Some((pct, value)) => format!("p{pct:.0} {value:.6} {unit}"),
            None => "tail n/a (<11 samples)".into(),
        };
        println!(
            "e2e {name} cpu {cpu}: median {med:.6} {unit}, {tail}, n={}",
            values.len()
        );
        best = Some(match best {
            Some(b) if lower_is_better => b.min(med),
            Some(b) => b.max(med),
            None => med,
        });
    }
    best.unwrap_or(0.0)
}

/// The traced run: one untraced repetition (the baseline for the tracing
/// overhead and the source of the end-to-end extras), then one traced
/// repetition after a registry reset, so every layer number is scoped to it.
fn traced(workload: &mut dyn Workload, checks: &mut Checks) -> Metrics {
    let mut metrics = Metrics::default();
    // Warm process-wide caches (RSA key pool) so both repetitions see them.
    if sample(workload, checks, false).is_err() {
        return metrics;
    }
    let mut quiet = Tracer::new(false);
    let started = Instant::now();
    let Ok(base) = workload.rep(&mut quiet, checks) else {
        return metrics;
    };
    let untraced_wall = started.elapsed().as_secs_f64() * 1e3;
    let reference = match workload.reference_converge(checks) {
        Some(Ok(wall)) => Some(wall),
        Some(Err(_)) => return metrics,
        None => None,
    };

    registry().reset();
    secureblox_telemetry::enable_tracing_to_ring();
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    let rep = workload.rep(&mut tracer, checks);
    let traced_wall = started.elapsed().as_secs_f64() * 1e3;
    secureblox_telemetry::disable_tracing();
    tracer.program_spans += secureblox_telemetry::take_spans().len();
    let Ok(rep) = rep else {
        return metrics;
    };
    // Reference-executor converge over reactor converge, both untraced.
    let speedup = reference.map_or(0.0, |r| r.as_secs_f64() / base.converge.as_secs_f64());
    layer_metrics(&mut metrics, &tracer, &rep, speedup);
    crypto_metrics(&mut metrics, workload.config(), &rep.payloads);
    let compile = time_repeated(|| {
        let config = workload.config();
        black_box(compile_secured_program(
            workload.app_source(),
            &config.security,
            &config.extra_policies,
        ))
        .is_ok()
    });
    metrics.put("generics.compile_ms", compile * 1e3, "ms");
    extras_metrics(&mut metrics, &base, checks);

    for (name, (count, ms)) in tracer.summary() {
        println!("span {name:<12} count {count:>6} wall {ms:>12.3} ms");
    }
    let ledger = tracer.ledger();
    metrics.put("ledger.wall_ms", ledger.wall_ms, "ms");
    metrics.put("ledger.unattributed_ms", ledger.unattributed_ms(), "ms");
    metrics.put("ledger.coverage", ledger.coverage(), "ratio");
    metrics.put(
        "ledger.tracing_overhead",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    metrics.put("ledger.program_spans", tracer.program_spans as f64, "count");
    metrics
}

fn hist(name: &str) -> &'static Histogram {
    registry().histogram(name)
}

fn hist_ms(name: &str) -> f64 {
    hist(name).sum() as f64 / 1e6
}

fn hist_mean(name: &str) -> f64 {
    let h = hist(name);
    h.sum() as f64 / h.count().max(1) as f64
}

fn counter(name: &str) -> f64 {
    registry().counter(name).get() as f64
}

/// Per-layer metrics of the traced repetition.  A layer the workload does
/// not exercise reports zero.
fn layer_metrics(m: &mut Metrics, t: &Tracer, rep: &Rep, speedup: f64) {
    let report = &rep.report;
    m.put("engine.build_ms", t.total_ms("build"), "ms");
    m.put("engine.commit_ms", t.total_ms("commit"), "ms");
    m.put("engine.run_ms", t.total_ms("run"), "ms");
    m.put(
        "engine.update_apply_ms",
        hist_ms("engine_update_apply_ns"),
        "ms",
    );
    m.put("engine.txn_apply_ms", hist_ms("engine_txn_apply_ns"), "ms");
    m.put("engine.verify_ms", hist_ms("engine_update_verify_ns"), "ms");
    m.put("engine.update_self_ms", t.update_self_ms(), "ms");
    m.put(
        "engine.retraction_apply_ms",
        hist_ms("engine_retraction_apply_ns"),
        "ms",
    );
    m.put(
        "engine.signature_checks",
        counter("engine_signature_checks_total"),
        "count",
    );
    m.put(
        "engine.rejected_batches",
        report.rejected_batches as f64,
        "count",
    );
    m.put(
        "engine.conflicting_batches",
        report.conflicting_batches as f64,
        "count",
    );

    m.put(
        "stream.batch_deltas_mean",
        hist_mean("engine_stream_batch_deltas"),
        "count",
    );
    m.put(
        "stream.recv_batch_deltas_mean",
        hist_mean("engine_stream_recv_batch_deltas"),
        "count",
    );
    // Stalls are measured on the simulator's virtual clock.
    m.put(
        "stream.stall_virtual_ms",
        hist_ms("engine_stream_stall_ns"),
        "ms",
    );
    m.put(
        "stream.annihilated",
        counter("engine_stream_annihilated_total"),
        "count",
    );
    m.put(
        "stream.credits",
        counter("engine_stream_credits_total"),
        "count",
    );

    m.put(
        "reactor.wake_latency_p50_us",
        hist("reactor_wake_latency_ns").quantile(0.5) as f64 / 1e3,
        "us",
    );
    m.put("reactor.parked_ms", hist_ms("reactor_parked_ns"), "ms");
    m.put("reactor.speedup_vs_reference", speedup, "ratio");

    let shard = report.shard.as_ref();
    m.put(
        "shard.shuffle_apply_ms",
        hist_ms("engine_shard_shuffle_apply_ns"),
        "ms",
    );
    m.put(
        "shard.exchanged_tuples",
        if shard.is_some() {
            rep.deltas as f64
        } else {
            0.0
        },
        "count",
    );
    m.put(
        "shard.exchange_bytes",
        shard.map_or(0.0, |s| s.exchange_bytes as f64),
        "bytes",
    );
    m.put("shard.skew", shard.map_or(0.0, |s| s.skew), "ratio");

    let plan = &report.plan;
    m.put("datalog.fixpoint_ms", hist_ms("datalog_fixpoint_ns"), "ms");
    m.put(
        "datalog.fixpoints",
        hist("datalog_fixpoint_ns").count() as f64,
        "count",
    );
    m.put(
        "datalog.join_ms",
        hist_ms("datalog_rule_batch_join_ns"),
        "ms",
    );
    m.put("datalog.retract_ms", hist_ms("datalog_retract_ns"), "ms");
    m.put(
        "datalog.plan_compile_ms",
        hist_ms("datalog_plan_compile_ns"),
        "ms",
    );
    let lookups = plan.plan_cache_hits + plan.plans_compiled + plan.plan_recompiles;
    m.put(
        "datalog.plan_cache_hit_ratio",
        plan.plan_cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put("datalog.index_probes", plan.index_probes as f64, "count");
    m.put("datalog.full_scans", plan.full_scans as f64, "count");
    m.put(
        "datalog.worker_utilization",
        report.worker_utilization,
        "ratio",
    );

    m.put("store.wal_append_ms", hist_ms("store_wal_append_ns"), "ms");
    m.put(
        "store.wal_records",
        counter("store_wal_records_total"),
        "count",
    );
    m.put(
        "store.wal_batch_mean",
        hist_mean("store_wal_batch_size"),
        "count",
    );
    m.put("store.checkpoint_ms", t.total_ms("checkpoint"), "ms");
    m.put("store.recover_ms", t.total_ms("recover"), "ms");
    m.put(
        "store.recovery_replay_ms",
        hist_ms("store_recovery_replay_ns"),
        "ms",
    );
    m.put("store.rerun_ms", t.total_ms("rerun"), "ms");

    m.put("net.messages", report.total_messages as f64, "count");
    m.put(
        "net.bytes",
        report.per_node_bytes.iter().sum::<usize>() as f64,
        "bytes",
    );
    // Modelled: the simulator's virtual-time fixpoint latency.
    m.put(
        "net.fixpoint_virtual_ms",
        report.fixpoint_latency.as_secs_f64() * 1e3,
        "ms",
    );
}

/// Seconds per call of `f`, timed over repeated calls for about
/// [`MICRO_BUDGET`].
fn time_repeated(mut f: impl FnMut() -> bool) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < MICRO_BUDGET {
        black_box(f());
        calls += 1;
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// Bench-timed signing, verification and encryption of the workload's own
/// exported payloads under the workload's scheme (zero when unused).
fn crypto_metrics(m: &mut Metrics, config: &DeploymentConfig, payloads: &[Vec<u8>]) {
    let secret = [0x5au8; 16];
    let mut i = 0usize;
    let mut next = || {
        i += 1;
        &payloads[i % payloads.len().max(1)]
    };
    let (mut sign_us, mut verify_us) = (0.0, 0.0);
    if !payloads.is_empty() {
        match config.security.auth {
            AuthScheme::NoAuth => {}
            AuthScheme::HmacSha1 => {
                let tags: Vec<[u8; 20]> = payloads.iter().map(|p| hmac_sha1(&secret, p)).collect();
                sign_us = time_repeated(|| hmac_sha1(&secret, next()).len() == 20) * 1e6;
                let mut j = 0usize;
                verify_us = time_repeated(|| {
                    j += 1;
                    let k = j % payloads.len();
                    hmac_sha1_verify(&secret, &payloads[k], &tags[k])
                }) * 1e6;
            }
            AuthScheme::Rsa => {
                if let Ok(keys) =
                    KeyStore::provision(&["perfbench"], config.security.rsa_bits, 1, config.seed)
                {
                    let pair = keys.keypair("perfbench").expect("provisioned principal");
                    let sigs: Vec<_> = payloads.iter().map(|p| pair.sign(p)).collect();
                    sign_us = time_repeated(|| !pair.sign(next()).0.is_empty()) * 1e6;
                    let mut j = 0usize;
                    verify_us = time_repeated(|| {
                        j += 1;
                        let k = j % payloads.len();
                        pair.public_key().verify(&payloads[k], &sigs[k])
                    }) * 1e6;
                }
            }
        }
    }
    let mut aes_us_per_kb = 0.0;
    if config.security.enc == EncScheme::Aes128 && !payloads.is_empty() {
        let kb = payloads.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
        let per_pass = time_repeated(|| {
            payloads
                .iter()
                .all(|p| !aes128_ctr_encrypt(&secret, p).is_empty())
        });
        aes_us_per_kb = per_pass * 1e6 / kb;
    }
    let checks = counter("engine_signature_checks_total");
    m.put("crypto.sign_us", sign_us, "us");
    m.put("crypto.verify_us", verify_us, "us");
    m.put("crypto.aes_us_per_kb", aes_us_per_kb, "us/KB");
    m.put("crypto.verify_est_ms", checks * verify_us / 1e3, "ms");
}

/// End-to-end quantities only some workloads have, taken from the untraced
/// repetition of the traced run.
fn extras_metrics(m: &mut Metrics, base: &Rep, checks: &Checks) {
    let latency: Vec<f64> = base
        .changes
        .iter()
        .map(|c| c.latency.as_secs_f64() * 1e3)
        .collect();
    let lag: Vec<f64> = base
        .changes
        .iter()
        .map(|c| c.lag.as_secs_f64() * 1e3)
        .collect();
    m.put("e2e.change_p50_ms", percentile(&latency, 50.0), "ms");
    m.put("e2e.change_p90_ms", percentile(&latency, 90.0), "ms");
    m.put("e2e.gen_lag_ms", percentile(&lag, 90.0), "ms");
    m.put("e2e.changes", latency.len() as f64, "count");
    m.put(
        "e2e.recover_s",
        base.recover.map_or(0.0, |d| d.as_secs_f64()),
        "s",
    );
    m.put("e2e.forged_envelopes", base.forged as f64, "count");
    m.put("e2e.replayed_envelopes", base.replays as f64, "count");
    m.put(
        "e2e.failed_ops_ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "ratio",
    );
}

/// Cores, CPU model, compiler and commit of the measuring host.
fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()))
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

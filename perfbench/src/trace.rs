//! The benchmark's own spans around each call into the program, and the
//! per-layer ledger computed from them.
//!
//! A span records name, start, end and parent, plus how much the program's
//! latency histograms below grew while it was open.  The histograms are
//! process-wide and monotone, so the growth across a call is the time that
//! layer spent inside that call.  The ledger takes their nesting from the
//! engine's code:
//!
//! ```text
//! run ─┬─ engine_update_apply_ns (one delivered envelope)
//!      │    ├─ engine_txn_apply_ns ── datalog_fixpoint_ns
//!      │    ├─ engine_update_verify_ns
//!      │    ├─ engine_retraction_apply_ns ── datalog_retract_ns
//!      │    ├─ store_wal_append_ns
//!      │    └─ (self: decode, export scan, signing flush)
//!      └─ reactor_parked_ns (reactor workers waiting for work)
//! ```
//!
//! Calls that do one thing (build, ingest, checkpoint, recover, query) are
//! attributed whole to their layer.  Inside `run` spans the attributed time
//! is `max(update_apply, txn + verify + retraction + wal) + parked`; the
//! rest of a run — scheduling, bootstrap flushes, credit traffic — is
//! unattributed.

use secureblox_telemetry::registry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The histograms read at every span boundary, in [`Sums`] order.
const HISTOGRAMS: [&str; 6] = [
    "engine_update_apply_ns",
    "engine_txn_apply_ns",
    "engine_update_verify_ns",
    "engine_retraction_apply_ns",
    "store_wal_append_ns",
    "reactor_parked_ns",
];
const UPDATE: usize = 0;
const TXN: usize = 1;
const VERIFY: usize = 2;
const RETRACTION_APPLY: usize = 3;
const WAL: usize = 4;
const PARKED: usize = 5;

/// Histogram sums (nanoseconds) at one instant, or their growth.
#[derive(Debug, Clone, Copy, Default)]
struct Sums([u64; HISTOGRAMS.len()]);

impl Sums {
    fn read() -> Sums {
        let mut sums = [0u64; HISTOGRAMS.len()];
        for (slot, name) in sums.iter_mut().zip(HISTOGRAMS) {
            *slot = registry().histogram(name).sum();
        }
        Sums(sums)
    }

    fn since(self, earlier: Sums) -> Sums {
        let mut out = self;
        for (slot, before) in out.0.iter_mut().zip(earlier.0) {
            *slot = slot.saturating_sub(before);
        }
        out
    }

    fn ms(&self, index: usize) -> f64 {
        self.0[index] as f64 / 1e6
    }

    /// Update apply minus the work nested in it.
    fn update_self_ms(&self) -> f64 {
        (self.ms(UPDATE) - self.nested_ms()).max(0.0)
    }

    fn nested_ms(&self) -> f64 {
        self.ms(TXN) + self.ms(VERIFY) + self.ms(RETRACTION_APPLY) + self.ms(WAL)
    }
}

/// One closed benchmark span.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    /// Threads the program ran on during the span (reactor runs use more
    /// than one, so their histogram time is thread time).
    threads: usize,
    delta: Sums,
}

impl SpanRecord {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn is_run(&self) -> bool {
        self.name == "run" || self.name == "rerun"
    }
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
    sums: Sums,
}

/// Records spans when on; when off it only reads the clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    /// Spans the program itself recorded (drained from its ring buffer).
    pub program_spans: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            program_spans: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_on(name, 1)
    }

    /// Open a span over work that runs on `threads` threads.
    pub fn begin_on(&mut self, name: &'static str, threads: usize) -> Open {
        let started = Instant::now();
        if !self.on {
            return Open {
                index: None,
                started,
                sums: Sums::default(),
            };
        }
        // Drain the program's own span ring so it stays bounded.
        self.program_spans += secureblox_telemetry::take_spans().len();
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start: started - self.origin,
            end: started - self.origin,
            parent: self.stack.last().copied(),
            threads,
            delta: Sums::default(),
        });
        self.stack.push(index);
        Open {
            index: Some(index),
            started,
            sums: Sums::read(),
        }
    }

    /// Close `open`, returning its wall time.
    pub fn end(&mut self, open: Open) -> Duration {
        let wall = open.started.elapsed();
        if let Some(index) = open.index {
            let record = &mut self.spans[index];
            record.end = record.start + wall;
            record.delta = Sums::read().since(open.sums);
            self.stack.pop();
        }
        wall
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Total wall milliseconds of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.ms())
    }

    /// Self time of the engine's update apply across `run` spans.
    pub fn update_self_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.is_run())
            .fold(0.0, |sum, s| sum + s.delta.update_self_ms())
    }

    /// Count and total wall milliseconds per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.ms();
        }
        out
    }

    /// The ledger over every root span.
    pub fn ledger(&self) -> Ledger {
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                has_child[parent] = true;
            }
        }
        let mut ledger = Ledger::default();
        for (span, has_child) in self.spans.iter().zip(has_child) {
            if span.parent.is_none() {
                ledger.capacity_ms += span.ms();
                ledger.wall_ms += span.ms();
            }
            if has_child {
                continue;
            }
            ledger.capacity_ms += span.ms() * span.threads.saturating_sub(1) as f64;
            ledger.attributed_ms += if span.is_run() {
                let d = &span.delta;
                d.ms(UPDATE).max(d.nested_ms()) + d.ms(PARKED)
            } else {
                span.ms()
            };
        }
        ledger
    }
}

/// Where a traced job's time went.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Wall time of the root spans.
    pub wall_ms: f64,
    /// Wall time plus the extra threads' time inside parallel runs.
    pub capacity_ms: f64,
    pub attributed_ms: f64,
}

impl Ledger {
    pub fn unattributed_ms(&self) -> f64 {
        self.capacity_ms - self.attributed_ms
    }

    pub fn coverage(&self) -> f64 {
        if self.capacity_ms > 0.0 {
            self.attributed_ms / self.capacity_ms
        } else {
            0.0
        }
    }
}

//! Batch-at-a-time rule execution over interned id columns.
//!
//! The tuple-at-a-time join in [`super::join`] materializes a [`super::Bindings`]
//! map per solution and compares [`crate::value::Value`]s at every probe.
//! For the common rule shape — positive stored-relation literals with
//! variable/constant terms and a head built from body variables — none of
//! that is necessary: every value is already a dense `u32` dictionary id
//! inside the relations' column groups, so the whole join can run as
//! integer-column operations and only *new* tuples are ever rehydrated into
//! `Value` rows (at insert, by [`crate::relation::Relation::insert_ids`]).
//!
//! ## Two phases, one thread contract
//!
//! `compile_batch` runs **only on the evaluator thread**: it is the one
//! place the batch path interns (head constants), which keeps dictionary id
//! assignment a pure function of the operation sequence — independent of
//! the worker count ([`crate::intern`] module docs).  `execute_batch` is
//! read-only and safe to run from pool workers.
//!
//! ## Determinism
//!
//! The executor's output is canonicalized — per head predicate, id rows are
//! sorted and deduplicated — so the result is independent of frame order,
//! sharding, and cache hits.  Since ids are worker-count-independent, so is
//! the id-sorted insertion order downstream.  Debug builds additionally
//! assert the rehydrated output equals the tuple-at-a-time enumeration
//! (`Evaluator::evaluate_round`).

use super::exec::EvalOptions;
use super::plan::{PlanStats, RulePlan};
use super::pool::WorkerPool;
use super::runtime_pred_name;
use crate::ast::{Literal, Rule, Term};
use crate::error::{DatalogError, Result};
use crate::intern::{fnv_ids, Interner, PassBuild};
use crate::relation::Relation;
use crate::schema::BUILTIN_TYPES;
use crate::udf::UdfRegistry;
use crate::value::Tuple;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One tuple as dictionary ids (scratch rows only; bulk data travels as
/// [`IdBatch`]).
pub(crate) type IdRow = Vec<u32>;

/// Fixed-stride, densely packed id rows — the batch plane's unit of bulk
/// data.  `data` holds `rows * stride` ids row-major in one contiguous
/// buffer, so moving a batch between pipeline stages (or across the worker
/// pool) costs zero per-row allocations and sorts compare adjacent memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IdBatch {
    stride: usize,
    rows: usize,
    data: Vec<u32>,
}

impl IdBatch {
    pub(crate) fn new(stride: usize) -> IdBatch {
        IdBatch {
            stride,
            rows: 0,
            data: Vec::new(),
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.stride);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    pub(crate) fn row(&self, index: usize) -> &[u32] {
        &self.data[index * self.stride..(index + 1) * self.stride]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows).map(move |index| self.row(index))
    }

    fn append(&mut self, other: &IdBatch) {
        debug_assert_eq!(self.stride, other.stride);
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Sort rows lexicographically and drop duplicates, in one pass over an
    /// index permutation (the row data itself moves once, into the rebuilt
    /// buffer).  Strides 1 and 2 sort packed integers instead — the
    /// lexicographic order of a `[u32]` row equals the numeric order of its
    /// big-endian packing.
    fn sort_dedup(&mut self) {
        if self.stride == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        if self.stride == 1 {
            self.data.sort_unstable();
            self.data.dedup();
            self.rows = self.data.len();
            return;
        }
        if self.stride == 2 {
            let mut packed: Vec<u64> = self
                .data
                .chunks_exact(2)
                .map(|pair| (u64::from(pair[0]) << 32) | u64::from(pair[1]))
                .collect();
            packed.sort_unstable();
            packed.dedup();
            self.data.clear();
            for value in &packed {
                self.data.push((value >> 32) as u32);
                self.data.push(*value as u32);
            }
            self.rows = packed.len();
            return;
        }
        let stride = self.stride;
        let data = &self.data;
        let mut order: Vec<u32> = (0..self.rows as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            data[a as usize * stride..][..stride].cmp(&data[b as usize * stride..][..stride])
        });
        let mut out: Vec<u32> = Vec::with_capacity(data.len());
        let mut kept = 0usize;
        for &index in &order {
            let row = &data[index as usize * stride..][..stride];
            if kept > 0 && &out[(kept - 1) * stride..][..stride] == row {
                continue;
            }
            out.extend_from_slice(row);
            kept += 1;
        }
        self.data = out;
        self.rows = kept;
    }
}

/// What one literal position constrains or produces.
#[derive(Debug, Clone, Copy)]
enum PosSpec {
    /// Must equal this interned constant.
    Const(u32),
    /// Must equal the frame column (a variable bound by an earlier step).
    Bound(usize),
    /// First occurrence of a variable: binds a fresh frame column.
    Fresh,
    /// Repeated fresh variable within the same literal: must equal the
    /// candidate's own value at the first-occurrence position.
    Dup(usize),
    /// Wildcard: unconstrained.
    Free,
}

/// Where a probe-key / head-row component comes from.
#[derive(Debug, Clone, Copy)]
enum IdSrc {
    Frame(usize),
    Const(u32),
}

struct ProbeExec {
    cols: u64,
    /// Key components in ascending bit order of `cols`.
    key: Vec<IdSrc>,
    /// True when `cols` covers every `Const`/`Bound` position, so matches
    /// depend only on the key and per-key caching is sound.
    cacheable: bool,
}

struct StepExec {
    pred: String,
    arity: usize,
    positions: Vec<PosSpec>,
    /// Literal positions that bind fresh frame columns, in order; position
    /// `fresh[i]` binds frame column `base + i`.
    fresh: Vec<usize>,
    probe: Option<ProbeExec>,
}

struct HeadExec {
    pred: String,
    srcs: Vec<IdSrc>,
}

/// A rule body compiled to id-space batch steps.
pub(crate) struct BatchJob {
    steps: Vec<StepExec>,
    heads: Vec<HeadExec>,
    /// Delta rows driving step 0, pre-encoded on the evaluator thread and
    /// pre-filtered to step 0's arity.
    delta_rows: Option<IdBatch>,
    /// A body constant is absent from the dictionary: no stored tuple can
    /// match, so the derivation is provably empty.
    impossible: bool,
}

/// Compile `rule` for batch execution, or `None` when the body falls outside
/// the batch-executable shape (negation, comparisons, UDFs, builtin type
/// checks, expression terms, singleton refs, head existentials, a relation
/// on a foreign dictionary, or a delta literal the plan did not pin first).
///
/// Must run on the evaluator thread: head constants are interned here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compile_batch(
    rule: &Rule,
    plan: &RulePlan,
    delta: Option<(usize, &HashSet<Tuple>)>,
    relations: &HashMap<String, Relation>,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
) -> Option<BatchJob> {
    if rule.agg.is_some() || plan.order.is_empty() {
        return None;
    }
    if let Some((index, _)) = delta {
        if plan.order[0].literal != index {
            return None;
        }
    }

    let mut vars: HashMap<String, usize> = HashMap::new();
    let mut impossible = false;
    let mut steps = Vec::with_capacity(plan.order.len());
    for step in &plan.order {
        let Literal::Pos(atom) = &rule.body[step.literal] else {
            return None;
        };
        let pred = runtime_pred_name(&atom.pred).ok()?;
        if udfs.is_udf(&pred) || (BUILTIN_TYPES.contains(&pred.as_str()) && atom.terms.len() == 1) {
            return None;
        }
        if let Some(relation) = relations.get(&pred) {
            if !Arc::ptr_eq(relation.interner(), interner) {
                return None;
            }
        }
        let mut positions = Vec::with_capacity(atom.terms.len());
        let mut fresh: Vec<usize> = Vec::new();
        let mut local: HashMap<&str, usize> = HashMap::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            let spec = match term {
                Term::Wildcard => PosSpec::Free,
                Term::Const(value) => match interner.try_id(value) {
                    Some(id) => PosSpec::Const(id),
                    None => {
                        impossible = true;
                        PosSpec::Free
                    }
                },
                Term::Var(name) => {
                    if let Some(&col) = vars.get(name.as_str()) {
                        PosSpec::Bound(col)
                    } else if let Some(&first) = local.get(name.as_str()) {
                        PosSpec::Dup(first)
                    } else {
                        local.insert(name, pos);
                        fresh.push(pos);
                        PosSpec::Fresh
                    }
                }
                _ => return None,
            };
            positions.push(spec);
        }
        let base = vars.len();
        for (offset, &pos) in fresh.iter().enumerate() {
            if let Term::Var(name) = &atom.terms[pos] {
                vars.insert(name.clone(), base + offset);
            }
        }

        let is_delta = delta.map(|(index, _)| index) == Some(step.literal);
        let probe = match step.probe {
            Some(cols) if cols != 0 && !is_delta => {
                let mut key = Vec::new();
                let mut coverable = true;
                for (pos, spec) in positions.iter().enumerate() {
                    if pos >= 64 || cols & (1u64 << pos) == 0 {
                        continue;
                    }
                    match spec {
                        PosSpec::Const(id) => key.push(IdSrc::Const(*id)),
                        PosSpec::Bound(col) => key.push(IdSrc::Frame(*col)),
                        // A probe bit can land on a position the key cannot
                        // cover: an intra-literal duplicate, or a constant
                        // missing from the dictionary.  Scan instead.
                        _ => {
                            coverable = false;
                            break;
                        }
                    }
                }
                if coverable {
                    let cacheable = positions.iter().enumerate().all(|(pos, spec)| match spec {
                        PosSpec::Const(_) | PosSpec::Bound(_) => {
                            pos < 64 && cols & (1u64 << pos) != 0
                        }
                        _ => true,
                    });
                    Some(ProbeExec {
                        cols,
                        key,
                        cacheable,
                    })
                } else {
                    None
                }
            }
            _ => None,
        };
        steps.push(StepExec {
            pred,
            arity: atom.terms.len(),
            positions,
            fresh,
            probe,
        });
    }

    let mut heads = Vec::with_capacity(rule.head.len());
    for atom in &rule.head {
        let pred = runtime_pred_name(&atom.pred).ok()?;
        let mut srcs = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            match term {
                Term::Var(name) => srcs.push(IdSrc::Frame(*vars.get(name.as_str())?)),
                Term::Const(value) => srcs.push(IdSrc::Const(interner.intern(value))),
                _ => return None,
            }
        }
        heads.push(HeadExec { pred, srcs });
    }

    // Encode the delta rows up front (still on the evaluator thread).  Delta
    // tuples were inserted into relations, so their values are already
    // interned; a miss means the set is not encodable and the tuple path
    // must run instead.
    let delta_rows = match delta {
        Some((_, tuples)) => {
            let arity = steps[0].arity;
            let mut batch = IdBatch::new(arity);
            let mut ids = Vec::new();
            for tuple in tuples {
                if !interner.try_row(tuple, &mut ids) {
                    return None;
                }
                // Rows of a different arity can never match step 0.
                if ids.len() == arity {
                    batch.push_row(&ids);
                }
            }
            Some(batch)
        }
        None => None,
    };

    Some(BatchJob {
        steps,
        heads,
        delta_rows,
        impossible,
    })
}

/// A columnar binding frame: one `u32` column per bound variable.
struct Frame {
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl Frame {
    fn unit() -> Frame {
        Frame {
            cols: Vec::new(),
            len: 1,
        }
    }
}

/// Execute a compiled batch job and return canonicalized (sorted,
/// deduplicated) id rows per head predicate.  Read-only over `relations`;
/// shards the driving rows across `pool` when they clear the configured
/// threshold.
pub(crate) fn execute_batch(
    job: &BatchJob,
    relations: &HashMap<String, Relation>,
    stats: &PlanStats,
    options: &EvalOptions,
    pool: Option<&WorkerPool>,
) -> Result<Vec<(String, IdBatch)>> {
    if job.impossible || job.steps.is_empty() {
        return Ok(Vec::new());
    }

    // Materialize the driving rows only when sharding; the serial path
    // streams step 0 straight from the column group (or the delta rows).
    let driving_len = match &job.delta_rows {
        Some(batch) => batch.rows(),
        None => relations
            .get(&job.steps[0].pred)
            .and_then(|r| r.group(job.steps[0].arity))
            .map(|g| g.rows())
            .unwrap_or(0),
    };
    let want_shards = options.parallel_enabled()
        && pool.is_some()
        && job.steps[0].probe.is_none()
        && driving_len >= options.parallel_threshold;

    if want_shards {
        let pool = pool.expect("checked above");
        let workers = options.workers;
        let arity = job.steps[0].arity;
        let mut shards: Vec<IdBatch> = (0..workers).map(|_| IdBatch::new(arity)).collect();
        match &job.delta_rows {
            Some(batch) => {
                for row in batch.iter() {
                    shards[shard_of_ids(row, workers)].push_row(row);
                }
            }
            None => {
                if let Some(group) = relations
                    .get(&job.steps[0].pred)
                    .and_then(|r| r.group(arity))
                {
                    let mut row = Vec::with_capacity(group.arity());
                    for index in 0..group.rows() {
                        row.clear();
                        for col in 0..group.arity() {
                            row.push(group.col(col)[index]);
                        }
                        shards[shard_of_ids(&row, workers)].push_row(&row);
                    }
                }
            }
        }
        let occupied: Vec<IdBatch> = shards.into_iter().filter(|s| s.rows() > 0).collect();
        if occupied.len() > 1 {
            PlanStats::bump(&stats.parallel_batches);
            let tasks: Vec<_> = occupied
                .iter()
                .map(|shard| {
                    move || {
                        PlanStats::bump(&stats.shards_executed);
                        run_steps(job, relations, Some(shard), stats)
                    }
                })
                .collect();
            let mut merged: Vec<(String, IdBatch)> = Vec::new();
            for result in pool.execute(tasks) {
                let buffer = result
                    .map_err(|_| DatalogError::Eval("evaluation worker panicked".into()))??;
                merged.extend(buffer);
            }
            return Ok(canonicalize(merged));
        }
        // Everything hashed into one shard: fall through to the serial path.
    }

    PlanStats::bump(&stats.serial_batches);
    let rows = run_steps(job, relations, job.delta_rows.as_ref(), stats)?;
    Ok(canonicalize(rows))
}

/// Content hash of an id row, for sharding (worker-count dependent bucketing
/// is fine: the output is canonicalized).
fn shard_of_ids(row: &[u32], workers: usize) -> usize {
    (fnv_ids(row.len() as u64, row.iter().copied()) % workers as u64) as usize
}

/// Run the step pipeline over one driving set (`driving` overrides step 0's
/// scan; `None` streams the full column group) and project the heads.
fn run_steps(
    job: &BatchJob,
    relations: &HashMap<String, Relation>,
    driving: Option<&IdBatch>,
    stats: &PlanStats,
) -> Result<Vec<(String, IdBatch)>> {
    let mut frame = Frame::unit();
    for (index, step) in job.steps.iter().enumerate() {
        let source = if index == 0 { driving } else { None };
        frame = extend_frame(&frame, step, source, relations, stats)?;
        if frame.len == 0 {
            return Ok(Vec::new());
        }
    }

    let mut out: Vec<(String, IdBatch)> = Vec::with_capacity(job.heads.len());
    for head in &job.heads {
        let mut batch = IdBatch::new(head.srcs.len());
        batch.data.reserve(frame.len * head.srcs.len());
        for i in 0..frame.len {
            for src in &head.srcs {
                batch.data.push(match src {
                    IdSrc::Frame(col) => frame.cols[*col][i],
                    IdSrc::Const(id) => *id,
                });
            }
        }
        batch.rows = frame.len;
        out.push((head.pred.clone(), batch));
    }
    Ok(out)
}

/// Join one step against the frame, producing the extended frame.
fn extend_frame(
    frame: &Frame,
    step: &StepExec,
    driving: Option<&IdBatch>,
    relations: &HashMap<String, Relation>,
    stats: &PlanStats,
) -> Result<Frame> {
    let base = frame.cols.len();
    let mut out = Frame {
        cols: vec![Vec::with_capacity(frame.len); base + step.fresh.len()],
        len: 0,
    };
    let mut emit = |frame_row: usize, fresh_vals: &[u32]| {
        for (col, out_col) in out.cols.iter_mut().enumerate().take(base) {
            out_col.push(frame.cols[col][frame_row]);
        }
        for (offset, &val) in fresh_vals.iter().enumerate() {
            out.cols[base + offset].push(val);
        }
        out.len += 1;
    };

    let relation = relations.get(&step.pred);
    let mut scratch: IdRow = Vec::with_capacity(step.arity);
    let mut fresh_vals: IdRow = Vec::with_capacity(step.fresh.len());

    if let Some(probe) = &step.probe {
        let Some(relation) = relation else {
            return Ok(out);
        };
        // Per-distinct-key cache of verified matches (each match = the fresh
        // column values).  Keyed by the key's content hash; the stored key
        // guards against collisions (a mismatch bypasses the cache).  Keys
        // and matches live in two flat arenas so cache entries are three
        // integers — no per-entry allocation.
        let fresh_len = step.fresh.len();
        let key_len = probe.key.len();
        let mut key_arena: Vec<u32> = Vec::new();
        let mut match_arena: Vec<u32> = Vec::new();
        // hash -> (key arena offset, match arena offset, match row count)
        let mut cache: HashMap<u64, (u32, u32, u32), PassBuild> = HashMap::default();
        // A cache over all-distinct keys pays an insert per frame row and
        // never hits; after a warm-up window with almost no hits, stop
        // maintaining it.  Purely a speed knob: the emitted matches are
        // identical either way.
        let mut caching = probe.cacheable;
        let mut lookups = 0usize;
        let mut hits = 0usize;
        // Resolve the index once per step; the plan ensured it, so a miss
        // means the relation was recreated since — fall back to scanning
        // the column group per key (candidates are verified regardless).
        let index = relation.index_map(probe.cols);
        let fallback: &[u32] = relation
            .group(step.arity)
            .map(|g| g.tuple_ids())
            .unwrap_or(&[]);
        let mut key: Vec<u32> = Vec::with_capacity(key_len);
        for i in 0..frame.len {
            key.clear();
            for src in &probe.key {
                key.push(match src {
                    IdSrc::Frame(col) => frame.cols[*col][i],
                    IdSrc::Const(id) => *id,
                });
            }
            let hash = fnv_ids(probe.cols, key.iter().copied());
            if caching {
                lookups += 1;
                if let Some(&(key_at, match_at, match_rows)) = cache.get(&hash) {
                    if key_arena[key_at as usize..][..key_len] == key[..] {
                        hits += 1;
                        for m in 0..match_rows as usize {
                            let vals =
                                &match_arena[match_at as usize + m * fresh_len..][..fresh_len];
                            emit(i, vals);
                        }
                        continue;
                    }
                }
                if lookups == 512 && hits * 8 < lookups {
                    caching = false;
                }
            }
            PlanStats::bump(&stats.index_probes);
            let candidates: &[u32] = match index {
                Some(map) => map.get(&hash).map(Vec::as_slice).unwrap_or(&[]),
                None => fallback,
            };
            let match_at = match_arena.len();
            let mut match_rows = 0u32;
            for &id in candidates {
                relation.row_ids(id, &mut scratch);
                if scratch.len() != step.arity {
                    continue;
                }
                if !verify(&step.positions, &scratch, |col| frame.cols[col][i]) {
                    continue;
                }
                fresh_vals.clear();
                fresh_vals.extend(step.fresh.iter().map(|&pos| scratch[pos]));
                emit(i, &fresh_vals);
                if caching {
                    match_arena.extend_from_slice(&fresh_vals);
                    match_rows += 1;
                }
            }
            if caching {
                let key_at = key_arena.len() as u32;
                key_arena.extend_from_slice(&key);
                cache.insert(hash, (key_at, match_at as u32, match_rows));
            }
        }
        return Ok(out);
    }

    // Scan step: pre-filter candidates on frame-independent constraints
    // (constants, intra-literal duplicates), then check the frame-dependent
    // `Bound` positions per frame row.
    let mut candidates = IdBatch::new(step.arity);
    match driving {
        Some(batch) => {
            debug_assert_eq!(batch.stride, step.arity);
            for row in batch.iter() {
                if verify_static(&step.positions, row) {
                    candidates.push_row(row);
                }
            }
        }
        None => {
            PlanStats::bump(&stats.full_scans);
            if let Some(group) = relation.and_then(|r| r.group(step.arity)) {
                let mut row = Vec::with_capacity(step.arity);
                for index in 0..group.rows() {
                    row.clear();
                    for col in 0..group.arity() {
                        row.push(group.col(col)[index]);
                    }
                    if verify_static(&step.positions, &row) {
                        candidates.push_row(&row);
                    }
                }
            }
        }
    }
    let bound: Vec<(usize, usize)> = step
        .positions
        .iter()
        .enumerate()
        .filter_map(|(pos, spec)| match spec {
            PosSpec::Bound(col) => Some((pos, *col)),
            _ => None,
        })
        .collect();
    for i in 0..frame.len {
        for candidate in candidates.iter() {
            if bound
                .iter()
                .any(|&(pos, col)| candidate[pos] != frame.cols[col][i])
            {
                continue;
            }
            fresh_vals.clear();
            fresh_vals.extend(step.fresh.iter().map(|&pos| candidate[pos]));
            emit(i, &fresh_vals);
        }
    }
    Ok(out)
}

/// Check every constrained position of a candidate row (which subsumes
/// probe-hash collision filtering: all key positions are re-verified).
fn verify(positions: &[PosSpec], row: &[u32], frame_val: impl Fn(usize) -> u32) -> bool {
    positions.iter().enumerate().all(|(pos, spec)| match spec {
        PosSpec::Const(id) => row[pos] == *id,
        PosSpec::Bound(col) => row[pos] == frame_val(*col),
        PosSpec::Dup(first) => row[pos] == row[*first],
        PosSpec::Fresh | PosSpec::Free => true,
    })
}

/// The frame-independent part of [`verify`].
fn verify_static(positions: &[PosSpec], row: &[u32]) -> bool {
    positions.iter().enumerate().all(|(pos, spec)| match spec {
        PosSpec::Const(id) => row[pos] == *id,
        PosSpec::Dup(first) => row[pos] == row[*first],
        _ => true,
    })
}

/// Merge per-head buffers by predicate, then sort and deduplicate the rows —
/// the canonical form that makes the output independent of enumeration
/// order, sharding, and caching.
fn canonicalize(buffers: Vec<(String, IdBatch)>) -> Vec<(String, IdBatch)> {
    let mut out: Vec<(String, IdBatch)> = Vec::new();
    for (pred, batch) in buffers {
        match out.iter_mut().find(|(existing, _)| *existing == pred) {
            Some((_, existing)) => existing.append(&batch),
            None => out.push((pred, batch)),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, batch) in &mut out {
        batch.sort_dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::{compile_body_plan, PlanStats};
    use crate::parser::parse_rule;
    use crate::value::Value;

    fn setup(facts: &[(&str, Vec<Value>)]) -> (HashMap<String, Relation>, Arc<Interner>) {
        let interner = Arc::new(Interner::new());
        let mut relations: HashMap<String, Relation> = HashMap::new();
        for (pred, tuple) in facts {
            relations
                .entry(pred.to_string())
                .or_insert_with(|| Relation::with_interner(*pred, None, Arc::clone(&interner)))
                .insert(tuple.clone())
                .unwrap();
        }
        (relations, interner)
    }

    fn rehydrate(
        interner: &Interner,
        batches: Vec<(String, IdBatch)>,
    ) -> Vec<(String, Vec<Value>)> {
        let mut out = Vec::new();
        for (pred, batch) in batches {
            for row in batch.iter() {
                out.push((pred.clone(), interner.resolve_row(row)));
            }
        }
        out
    }

    fn run(
        source: &str,
        facts: &[(&str, Vec<Value>)],
        build_indexes: bool,
    ) -> Option<Vec<(String, Vec<Value>)>> {
        let (mut relations, interner) = setup(facts);
        let rule = parse_rule(source).unwrap();
        let udfs = UdfRegistry::new();
        let plan = compile_body_plan(&rule.body, None, &relations, &udfs);
        if build_indexes {
            for spec in &plan.ensure {
                if let Some(relation) = relations.get_mut(&spec.pred) {
                    relation.ensure_index(spec.cols);
                }
            }
        }
        let job = compile_batch(&rule, &plan, None, &relations, &udfs, &interner)?;
        let stats = PlanStats::default();
        let rows = execute_batch(&job, &relations, &stats, &EvalOptions::serial(), None).unwrap();
        Some(rehydrate(&interner, rows))
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn triple_join_matches_expected() {
        let facts: Vec<(&str, Vec<Value>)> = (0..20)
            .flat_map(|i| {
                vec![
                    ("r", vec![int(i), int(i + 1)]),
                    ("s", vec![int(i + 1), int(i + 2)]),
                    ("t", vec![int(i + 2), int(i + 3)]),
                ]
            })
            .collect();
        let derived = run("out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).", &facts, true).unwrap();
        assert_eq!(derived.len(), 20);
        assert!(derived.contains(&("out".to_string(), vec![int(0), int(3)])));
        // Without indexes the scan fallback must agree.
        let scanned = run("out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).", &facts, false).unwrap();
        let mut a = derived.clone();
        let mut b = scanned;
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
    }

    #[test]
    fn constants_duplicates_and_wildcards() {
        let facts = vec![
            ("e", vec![int(1), int(1), int(9)]),
            ("e", vec![int(1), int(2), int(9)]),
            ("e", vec![int(2), int(2), int(7)]),
        ];
        let derived = run("loop(X) <- e(X, X, _).", &facts, true).unwrap();
        assert_eq!(derived.len(), 2);
        // Two matching rows project to the same head tuple: canonicalization
        // deduplicates them.
        let derived = run("nine(X) <- e(X, _, 9).", &facts, true).unwrap();
        assert_eq!(derived, vec![("nine".to_string(), vec![int(1)])]);
    }

    #[test]
    fn unknown_body_constant_is_provably_empty() {
        let facts = vec![("e", vec![int(1), int(2)])];
        let derived = run("out(X) <- e(X, 42).", &facts, true).unwrap();
        assert!(derived.is_empty());
    }

    #[test]
    fn ineligible_shapes_fall_back() {
        let facts = vec![("e", vec![int(1), int(2)])];
        // Negation, comparisons, and expression heads are tuple-path only.
        assert!(run("out(X) <- e(X, Y), !e(Y, X).", &facts, true).is_none());
        assert!(run("out(X) <- e(X, Y), Y < 3.", &facts, true).is_none());
        assert!(run("out(X, Y + 1) <- e(X, Y).", &facts, true).is_none());
    }

    #[test]
    fn head_constants_are_interned_at_compile() {
        let facts = vec![("e", vec![int(1), int(2)])];
        let derived = run("tagged(X, marker) <- e(X, _).", &facts, true).unwrap();
        assert_eq!(
            derived,
            vec![("tagged".to_string(), vec![int(1), Value::str("marker")])]
        );
    }

    #[test]
    fn sharded_execution_matches_serial() {
        let facts: Vec<(&str, Vec<Value>)> = (0..200)
            .flat_map(|i| {
                vec![
                    ("r", vec![int(i), int(i + 1)]),
                    ("s", vec![int(i + 1), int(i % 13)]),
                ]
            })
            .collect();
        let (mut relations, interner) = setup(&facts);
        let rule = parse_rule("out(X, Z) <- r(X, Y), s(Y, Z).").unwrap();
        let udfs = UdfRegistry::new();
        let plan = compile_body_plan(&rule.body, None, &relations, &udfs);
        for spec in &plan.ensure {
            if let Some(relation) = relations.get_mut(&spec.pred) {
                relation.ensure_index(spec.cols);
            }
        }
        let job = compile_batch(&rule, &plan, None, &relations, &udfs, &interner).unwrap();
        let stats = PlanStats::default();
        let serial = execute_batch(&job, &relations, &stats, &EvalOptions::serial(), None).unwrap();
        let pool = WorkerPool::new(4);
        let options = EvalOptions {
            workers: 4,
            parallel_threshold: 1,
        };
        let sharded = execute_batch(&job, &relations, &stats, &options, Some(&pool)).unwrap();
        assert_eq!(serial, sharded);
        assert!(stats.snapshot().parallel_batches > 0);
    }
}

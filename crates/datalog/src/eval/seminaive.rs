//! Semi-naïve fixpoint evaluation.
//!
//! The LogicBlox engine "evaluates rules using the semi-naïve algorithm until
//! a fixed-point is reached" (paper §2).  [`Evaluator`] implements that
//! algorithm stratum-by-stratum over a workspace's relations, with two
//! departures documented in DESIGN.md:
//!
//! * Aggregation rules are *recomputed from the full body relations* on every
//!   iteration of their stratum, replacing prior values for the same key.
//!   This supports the path-vector use case, whose `bestcost` aggregate is
//!   (syntactically) mutually recursive with the `says`-mediated import rules.
//! * Head-existential variables (allowed by DatalogLB rules such as the
//!   `pathvar` rule) mint one fresh entity per distinct body binding, memoized
//!   so re-derivations are idempotent.
//!
//! ## Round structure (DESIGN.md §10)
//!
//! Each round of a stratum runs in two phases.  **Phase A** evaluates every
//! `(rule, delta-literal)` combination read-only against the round-start
//! relations: batch-eligible combinations run the columnar id-space executor
//! ([`super::batch`]), the rest the tuple-at-a-time join, and independent
//! combinations fan out across the persistent worker pool.  **Phase B**
//! inserts the collected derivations sequentially in combination order.
//! Because phase A never observes phase B, the end state of a round is a
//! pure function of its start state — independent of the worker count.
//! Rules with head existentials always evaluate serially in phase A, and the
//! round mints their new entities together in canonical `(rule, binding)`
//! order, so ordinals are a function of the round's new bindings alone.

use super::aggregate::evaluate_agg_rule_exec;
use super::batch::{self, BatchJob, IdBatch};
use super::bindings::Bindings;
use super::exec::{self, EvalOptions};
use super::join::{DeltaRestriction, DeltaTuples, JoinContext};
use super::plan::{PlanCache, PlanKey, PlanStats, RulePlan};
use super::pool::WorkerPool;
use super::runtime_pred_name;
use super::EvalConfig;
use crate::ast::{Literal, Rule};
use crate::error::{DatalogError, Result};
use crate::intern::Interner;
use crate::relation::Relation;
use crate::schema::{PredicateKind, Schema};
use crate::udf::UdfRegistry;
use crate::value::{tuple_total_cmp, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Statistics of one fixpoint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Number of tuples newly derived (over all predicates).
    pub derived: usize,
    /// Total number of semi-naïve iterations across strata.
    pub iterations: usize,
}

/// A head-existential combination: rule index, compiled plan, and the
/// optional delta restriction of one body literal.
type ExistentialCombo<'a> = (
    usize,
    Option<&'a RulePlan>,
    Option<(usize, &'a HashSet<Tuple>)>,
);

/// Result of evaluating one `(rule, delta-literal)` combination in phase A.
/// Id-space derivations stay interned until insertion; only genuinely new
/// tuples are rehydrated (for the delta sets).
enum Derivation {
    Values(Vec<(String, Tuple)>),
    Ids(Vec<(String, IdBatch)>),
}

/// Undo log of the mutations one workspace transaction or retraction
/// performs, letting `Workspace` roll a failed one back without having
/// cloned the relation map.  Ops are recorded in execution order; undoing
/// replays them in reverse — an `Added` op removes the tuple again, a
/// `Removed` op re-inserts a tuple that an aggregate recomputation displaced
/// or DRed deleted, and the `Edb*` ops do the same for the workspace's set
/// of asserted facts.  Interleaving matters: one run can insert a tuple and
/// later displace it (or displace, then re-insert), and only strict
/// reverse-order replay restores the exact prior state.
#[derive(Debug, Default)]
pub struct EvalJournal {
    ops: Vec<JournalOp>,
    /// Relations created during the run, removed again on undo.
    created: Vec<String>,
    /// EDB-set entries created during the run, removed again on undo.
    edb_created: Vec<String>,
    /// Existential-memo keys minted during the run.
    minted: Vec<(usize, Vec<Value>)>,
}

#[derive(Debug)]
enum JournalOp {
    Added(String, Tuple),
    Removed(String, Tuple),
    EdbAdded(String, Tuple),
    EdbRemoved(String, Tuple),
}

impl EvalJournal {
    pub(crate) fn record_added(&mut self, pred: &str, tuple: Tuple) {
        self.ops.push(JournalOp::Added(pred.to_string(), tuple));
    }

    pub(crate) fn record_removed(&mut self, pred: &str, tuple: Tuple) {
        self.ops.push(JournalOp::Removed(pred.to_string(), tuple));
    }

    pub(crate) fn record_created(&mut self, pred: &str) {
        self.created.push(pred.to_string());
    }

    pub(crate) fn record_edb_added(&mut self, pred: &str, tuple: Tuple) {
        self.ops.push(JournalOp::EdbAdded(pred.to_string(), tuple));
    }

    pub(crate) fn record_edb_removed(&mut self, pred: &str, tuple: Tuple) {
        self.ops
            .push(JournalOp::EdbRemoved(pred.to_string(), tuple));
    }

    pub(crate) fn record_edb_created(&mut self, pred: &str) {
        self.edb_created.push(pred.to_string());
    }

    /// The run's surviving additions per predicate: every tuple recorded as
    /// inserted that is still stored (an aggregate displacement can remove
    /// an earlier insertion).  This is the incremental constraint-check
    /// delta.
    pub fn added_delta(
        &self,
        relations: &HashMap<String, Relation>,
    ) -> HashMap<String, HashSet<Tuple>> {
        let mut delta: HashMap<String, HashSet<Tuple>> = HashMap::new();
        for op in &self.ops {
            if let JournalOp::Added(pred, tuple) = op {
                if relations.get(pred).is_some_and(|r| r.contains(tuple)) {
                    delta.entry(pred.clone()).or_default().insert(tuple.clone());
                }
            }
        }
        delta
    }

    /// Roll every journaled mutation back.  Restores the relations, the
    /// EDB set and the existential memo to their exact pre-run state; the
    /// caller restores the (plain-copy) entity counter itself.
    pub fn undo(
        self,
        relations: &mut HashMap<String, Relation>,
        existential_memo: &mut HashMap<(usize, Vec<Value>), u64>,
        edb_facts: &mut HashMap<String, HashSet<Tuple>>,
    ) {
        for op in self.ops.into_iter().rev() {
            match op {
                JournalOp::Added(pred, tuple) => {
                    if let Some(relation) = relations.get_mut(&pred) {
                        relation.remove(&tuple);
                    }
                }
                JournalOp::Removed(pred, tuple) => {
                    // Whatever took the tuple's place was journaled as
                    // `Added` after this op, so reverse replay has already
                    // removed it; re-inserting cannot conflict.
                    if let Some(relation) = relations.get_mut(&pred) {
                        let _ = relation.insert_or_replace(tuple);
                    }
                }
                JournalOp::EdbAdded(pred, tuple) => {
                    if let Some(set) = edb_facts.get_mut(&pred) {
                        set.remove(&tuple);
                    }
                }
                JournalOp::EdbRemoved(pred, tuple) => {
                    edb_facts.entry(pred).or_default().insert(tuple);
                }
            }
        }
        for pred in self.created {
            relations.remove(&pred);
        }
        for pred in self.edb_created {
            edb_facts.remove(&pred);
        }
        for key in self.minted {
            existential_memo.remove(&key);
        }
    }
}

/// Mutable evaluation state borrowed from a workspace.
pub struct Evaluator<'a> {
    pub relations: &'a mut HashMap<String, Relation>,
    pub schema: &'a Schema,
    pub udfs: &'a UdfRegistry,
    pub config: &'a EvalConfig,
    /// Counter used to mint fresh entities for head-existential variables.
    pub entity_counter: &'a mut u64,
    /// Memo of already-minted existential entities, keyed by rule index and
    /// the binding of the rule's body variables.
    pub existential_memo: &'a mut HashMap<(usize, Vec<Value>), u64>,
    /// Compiled rule plans, reused across iterations (and across ticks when
    /// the owning workspace lives that long).
    pub plan_cache: &'a mut PlanCache,
    /// Planner / index counters.
    pub plan_stats: &'a PlanStats,
    /// The workspace dictionary every relation this evaluator creates must
    /// share — batch execution requires one dictionary per workspace (see
    /// [`crate::intern`]).
    pub interner: &'a Arc<Interner>,
    /// Persistent worker pool for sharded and rule-level fan-out.  `None`
    /// keeps every execution on the calling thread.
    pub pool: Option<&'a WorkerPool>,
    /// Undo log of every mutation, for rolling a failed workspace
    /// transaction or retraction back.
    pub journal: &'a mut EvalJournal,
}

impl<'a> Evaluator<'a> {
    /// Run all strata to fixpoint.  `strata` holds rule indices (into `rules`)
    /// grouped by stratum in evaluation order.
    ///
    /// Without `seed` every stratum's first round is naïve over the full
    /// relations.  With it — the base tuples inserted since the last
    /// fixpoint of a **converged** database — the first round of each
    /// stratum is driven off those tuples instead.  From a converged state
    /// the naïve round is pure overhead: a rule binding that touches no new
    /// tuple can only re-derive a tuple that is already stored.  Restricting
    /// the first round to combinations with at least one new-tuple literal
    /// therefore produces the same final state, the same genuinely-new
    /// deltas, and the same verdicts as the naïve round, at cost
    /// proportional to the seed's consequences rather than to the whole
    /// database.  The caller owns two preconditions: the database is at
    /// fixpoint, and no rule negates a predicate that can *shrink* between
    /// fixpoints — aggregate heads are the only such predicates
    /// (displacement is the one non-monotone mutation a committed
    /// transaction performs), which is what `Workspace` gates on before
    /// passing a seed.
    pub fn run(
        &mut self,
        rules: &[Rule],
        strata: &[Vec<usize>],
        seed: Option<HashMap<String, HashSet<Tuple>>>,
    ) -> Result<FixpointStats> {
        // Everything new since the pre-transaction fixpoint: the seed plus
        // every tuple derived so far.  Later strata must see earlier strata's
        // additions as first-round drivers, so each stratum merges its deltas
        // back in.
        let mut accumulated = seed;
        let mut stats = FixpointStats::default();
        for stratum in strata {
            let stratum_stats = self.run_stratum(rules, stratum, accumulated.as_mut())?;
            stats.derived += stratum_stats.derived;
            stats.iterations += stratum_stats.iterations;
        }
        Ok(stats)
    }

    /// One stratum (a set of mutually recursive rules) to fixpoint.  Without
    /// `accumulated` the first round is naïve over the full relations.  With
    /// it — the tuples new since the last fixpoint, see [`Evaluator::run`]
    /// — the first round runs only the
    /// `(rule, positive-literal)` combinations whose predicate has new
    /// tuples, and every round's delta merges back into it so later strata
    /// see this one's additions.  The semi-naïve rounds that follow are the
    /// same either way.
    fn run_stratum(
        &mut self,
        rules: &[Rule],
        stratum: &[usize],
        mut accumulated: Option<&mut HashMap<String, HashSet<Tuple>>>,
    ) -> Result<FixpointStats> {
        let mut stats = FixpointStats::default();
        // Head predicates derived in this stratum; deltas are tracked per
        // such predicate.
        let mut idb_preds: HashSet<String> = HashSet::new();
        for &rule_index in stratum {
            for atom in &rules[rule_index].head {
                idb_preds.insert(runtime_pred_name(&atom.pred)?);
            }
        }
        let (agg_rules, normal_rules): (Vec<usize>, Vec<usize>) = stratum
            .iter()
            .copied()
            .partition(|&i| rules[i].agg.is_some());

        let empty_delta = HashMap::new();
        let new_tuples = accumulated.as_deref().unwrap_or(&empty_delta);
        let mut combos: Vec<(usize, Option<usize>)> = Vec::new();
        for &rule_index in &normal_rules {
            if accumulated.is_none() {
                combos.push((rule_index, None));
                continue;
            }
            for (literal_index, literal) in rules[rule_index].body.iter().enumerate() {
                let Literal::Pos(atom) = literal else {
                    continue;
                };
                let pred = runtime_pred_name(&atom.pred)?;
                if new_tuples.get(&pred).is_some_and(|set| !set.is_empty()) {
                    combos.push((rule_index, Some(literal_index)));
                }
            }
        }
        let mut delta: HashMap<String, HashSet<Tuple>> = HashMap::new();
        for derivation in self.evaluate_round(rules, &combos, new_tuples)? {
            stats.derived += self.insert_derivation(derivation, &mut delta)?;
        }
        for &rule_index in &agg_rules {
            // A seeded round skips aggregation rules whose bodies are
            // untouched — recomputation would reproduce the stored values
            // exactly (the previous fixpoint's final round recomputed them
            // against this same state).
            if accumulated.is_some() && !rule_touched(&rules[rule_index], new_tuples) {
                continue;
            }
            let derived = self.recompute_aggregate(rules, rule_index)?;
            stats.derived += self.insert_replacing(derived, &mut delta)?;
        }
        stats.iterations += 1;

        // Semi-naïve iterations (aggregates recompute every round once the
        // stratum is in motion).
        loop {
            if let Some(accumulated) = accumulated.as_deref_mut() {
                merge_delta(accumulated, &delta);
            }
            if !delta.values().any(|d| !d.is_empty()) {
                return Ok(stats);
            }
            if stats.iterations > self.config.max_iterations {
                return Err(DatalogError::FixpointBudget {
                    iterations: self.config.max_iterations,
                });
            }
            let mut combos: Vec<(usize, Option<usize>)> = Vec::new();
            for &rule_index in &normal_rules {
                let rule = &rules[rule_index];
                for (literal_index, literal) in rule.body.iter().enumerate() {
                    let Literal::Pos(atom) = literal else {
                        continue;
                    };
                    let pred = runtime_pred_name(&atom.pred)?;
                    if !idb_preds.contains(&pred) {
                        continue;
                    }
                    let Some(pred_delta) = delta.get(&pred) else {
                        continue;
                    };
                    if pred_delta.is_empty() {
                        continue;
                    }
                    combos.push((rule_index, Some(literal_index)));
                }
            }
            let mut next_delta: HashMap<String, HashSet<Tuple>> = HashMap::new();
            for derivation in self.evaluate_round(rules, &combos, &delta)? {
                stats.derived += self.insert_derivation(derivation, &mut next_delta)?;
            }
            for &rule_index in &agg_rules {
                let derived = self.recompute_aggregate(rules, rule_index)?;
                stats.derived += self.insert_replacing(derived, &mut next_delta)?;
            }
            delta = next_delta;
            stats.iterations += 1;
        }
    }

    /// Phase A of one round: evaluate every `(rule, delta-literal)`
    /// combination against the round-start relations and return the
    /// derivations in combination order (phase B —
    /// [`Self::insert_derivation`] — is the caller's loop).
    ///
    /// Plans are prepared serially (they mutate the plan cache and build
    /// indexes); head-existential combinations evaluate serially next
    /// (entity minting is order-sensitive); the remaining combinations are
    /// read-only and fan out across the worker pool when any driving set
    /// clears the parallel threshold.  Errors surface in combination order,
    /// so failures are deterministic at any worker count.
    fn evaluate_round(
        &mut self,
        rules: &[Rule],
        combos: &[(usize, Option<usize>)],
        delta_sets: &HashMap<String, HashSet<Tuple>>,
    ) -> Result<Vec<Derivation>> {
        type ResolvedCombo<'a> = (usize, Option<(usize, &'a HashSet<Tuple>)>);
        let mut resolved: Vec<ResolvedCombo> = Vec::with_capacity(combos.len());
        for &(rule_index, literal) in combos {
            let delta = match literal {
                Some(literal_index) => {
                    let Literal::Pos(atom) = &rules[rule_index].body[literal_index] else {
                        return Err(DatalogError::Eval(
                            "delta combination on a non-positive literal".into(),
                        ));
                    };
                    let pred = runtime_pred_name(&atom.pred)?;
                    let set = delta_sets.get(&pred).ok_or_else(|| {
                        DatalogError::Eval("delta combination without a delta set".into())
                    })?;
                    Some((literal_index, set))
                }
                None => None,
            };
            resolved.push((rule_index, delta));
        }

        let mut plans: Vec<Option<RulePlan>> = Vec::with_capacity(resolved.len());
        for &(rule_index, delta) in &resolved {
            plans.push(self.prepare_plan(rules, rule_index, delta.map(|(i, _)| i)));
        }

        // Batch-compile on this (the evaluator) thread — the only place the
        // batch path interns, which keeps dictionary ids worker-independent.
        let mut results: Vec<Option<Derivation>> = combos.iter().map(|_| None).collect();
        let mut jobs: Vec<Option<BatchJob>> = Vec::with_capacity(resolved.len());
        let mut pending: Vec<usize> = Vec::new();
        let mut existential: Vec<usize> = Vec::new();
        for (index, &(rule_index, delta)) in resolved.iter().enumerate() {
            let rule = &rules[rule_index];
            if !rule.head_existentials().is_empty() {
                jobs.push(None);
                existential.push(index);
                continue;
            }
            jobs.push(plans[index].as_ref().and_then(|plan| {
                batch::compile_batch(rule, plan, delta, self.relations, self.udfs, self.interner)
            }));
            pending.push(index);
        }

        // Serial part: head-existential combinations, evaluated together so
        // the round mints its entities in one canonical order.
        let serial: Vec<_> = existential
            .iter()
            .map(|&index| (resolved[index].0, plans[index].as_ref(), resolved[index].1))
            .collect();
        for (&index, derived) in existential
            .iter()
            .zip(self.evaluate_existential(rules, &serial)?)
        {
            results[index] = Some(Derivation::Values(derived));
        }

        // Read-only part.
        let relations: &HashMap<String, Relation> = self.relations;
        let udfs = self.udfs;
        let stats = self.plan_stats;
        let options = &self.config.exec;
        let pool = self.pool;
        let run_one = |index: usize| -> Result<Derivation> {
            let (rule_index, delta) = resolved[index];
            match &jobs[index] {
                Some(job) => {
                    batch::execute_batch(job, relations, stats, options, pool).map(Derivation::Ids)
                }
                None => evaluate_tuple_combo(
                    &rules[rule_index],
                    plans[index].as_ref(),
                    delta,
                    relations,
                    udfs,
                    stats,
                    options,
                    pool,
                )
                .map(Derivation::Values),
            }
        };
        let fan_out = pool.is_some()
            && options.parallel_enabled()
            && pending.len() > 1
            && pending.iter().any(|&index| {
                let (rule_index, delta) = resolved[index];
                driving_size(&rules[rule_index], delta, relations) >= options.parallel_threshold
            });
        if fan_out {
            PlanStats::bump(&stats.parallel_batches);
            let run_one = &run_one;
            let tasks: Vec<_> = pending
                .iter()
                .map(|&index| move || run_one(index))
                .collect();
            let outcomes = pool.expect("fan-out requires a pool").execute(tasks);
            for (&index, outcome) in pending.iter().zip(outcomes) {
                let derivation = outcome
                    .map_err(|_| DatalogError::Eval("evaluation worker panicked".into()))??;
                results[index] = Some(derivation);
            }
        } else {
            for &index in &pending {
                results[index] = Some(run_one(index)?);
            }
        }

        #[cfg(debug_assertions)]
        for &index in &pending {
            if let (Some(_), Some(Derivation::Ids(rows))) = (&jobs[index], &results[index]) {
                let (rule_index, delta) = resolved[index];
                debug_verify_batch(
                    &rules[rule_index],
                    plans[index].as_ref(),
                    delta,
                    relations,
                    udfs,
                    self.interner,
                    rows,
                )?;
            }
        }

        Ok(results
            .into_iter()
            .map(|result| result.expect("every combination evaluated"))
            .collect())
    }

    /// Evaluate one (non-aggregate) rule, optionally restricting one body
    /// literal to a delta set, and return the derived `(predicate, tuple)`
    /// pairs without inserting them.
    ///
    /// Non-existential rules run through the read-only combination path
    /// (sharded across the worker pool when the driving set is large
    /// enough).  Rules with head existentials always run serially: entity
    /// minting is order-sensitive.
    pub fn evaluate_rule(
        &mut self,
        rules: &[Rule],
        rule_index: usize,
        delta: Option<(usize, &HashSet<Tuple>)>,
    ) -> Result<Vec<(String, Tuple)>> {
        let rule = &rules[rule_index];
        let plan = self.prepare_plan(rules, rule_index, delta.as_ref().map(|(i, _)| *i));
        if !rule.head_existentials().is_empty() {
            let combo = (rule_index, plan.as_ref(), delta);
            return Ok(self.evaluate_existential(rules, &[combo])?.swap_remove(0));
        }
        // One observation per (rule, delta) batch execution — coarse enough
        // to stay inside the telemetry overhead budget.
        let _batch_timer =
            secureblox_telemetry::histogram!("datalog_rule_batch_join_ns").start_timer();
        evaluate_tuple_combo(
            rule,
            plan.as_ref(),
            delta,
            self.relations,
            self.udfs,
            self.plan_stats,
            &self.config.exec,
            self.pool,
        )
    }

    /// Evaluate head-existential combinations together: join each, mint one entity per head-existential variable of
    /// every binding not yet in the memo — in canonical `(rule, binding)`
    /// order — then project heads.  Called once per round, this makes
    /// ordinals depend only on the round's set of new bindings, not on
    /// delta-set iteration order or on how the round's combinations split
    /// them, so a seeded fixpoint numbers entities exactly as a full one
    /// does (DESIGN.md §3).
    fn evaluate_existential(
        &mut self,
        rules: &[Rule],
        combos: &[ExistentialCombo<'_>],
    ) -> Result<Vec<Vec<(String, Tuple)>>> {
        let mut joined: Vec<Vec<(Bindings, Vec<Vec<Value>>)>> = Vec::new();
        let mut fresh: Vec<(usize, Vec<Value>)> = Vec::new();
        for &(rule_index, plan, delta) in combos {
            let _batch_timer =
                secureblox_telemetry::histogram!("datalog_rule_batch_join_ns").start_timer();
            PlanStats::bump(&self.plan_stats.serial_batches);
            let rule = &rules[rule_index];
            let existentials = rule.head_existentials().len();
            let mut body_vars: Vec<String> = Vec::new();
            for literal in &rule.body {
                literal.collect_vars(&mut body_vars);
            }
            body_vars.sort();
            body_vars.dedup();
            // Each solution with its memo keys: the body binding plus the
            // variable's offset among the rule's existentials.
            let mut solutions: Vec<(Bindings, Vec<Vec<Value>>)> = Vec::new();
            let mut collect = |b: &Bindings| {
                let binding: Vec<Value> =
                    body_vars.iter().filter_map(|v| b.get(v).cloned()).collect();
                let keys = (0..existentials)
                    .map(|offset| [binding.as_slice(), &[Value::Int(offset as i64)]].concat())
                    .collect();
                solutions.push((b.clone(), keys));
                Ok(())
            };
            let ctx = JoinContext::with_stats(self.relations, self.udfs, self.plan_stats);
            let mut bindings = Bindings::new();
            let restriction = delta.map(|(index, tuples)| DeltaRestriction {
                literal_index: index,
                delta: DeltaTuples::Set(tuples),
            });
            match plan {
                Some(plan) => {
                    ctx.join_planned(&rule.body, plan, restriction, &mut bindings, &mut collect)?
                }
                None => ctx.join(&rule.body, restriction, &mut bindings, &mut collect)?,
            }
            let memo = &*self.existential_memo;
            fresh.extend(
                solutions
                    .iter()
                    .flat_map(|(_, keys)| keys.iter().map(|key| (rule_index, key.clone())))
                    .filter(|key| !memo.contains_key(key)),
            );
            joined.push(solutions);
        }

        fresh.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| tuple_total_cmp(&a.1, &b.1)));
        fresh.dedup();
        for key in fresh {
            *self.entity_counter += 1;
            self.journal.minted.push(key.clone());
            self.existential_memo.insert(key, *self.entity_counter);
        }

        let mut derived = Vec::with_capacity(combos.len());
        for (&(rule_index, _, _), solutions) in combos.iter().zip(joined) {
            let rule = &rules[rule_index];
            let existentials = rule.head_existentials();
            let mut heads: Vec<(String, Tuple)> = Vec::new();
            for (mut solution, keys) in solutions {
                for (var, key) in existentials.iter().zip(keys) {
                    solution.bind(
                        var,
                        Value::Entity(self.existential_memo[&(rule_index, key)]),
                    );
                }
                // Same head projection the combination paths use — one
                // implementation, so the paths cannot drift.
                heads.append(&mut exec::project_heads(rule, &solution, self.relations)?);
            }
            derived.push(heads);
        }
        Ok(derived)
    }

    /// Compile (or fetch) the plan for a rule, build the secondary indexes it
    /// probes, and return it.  `None` when planning is disabled.
    fn prepare_plan(
        &mut self,
        rules: &[Rule],
        rule_index: usize,
        delta_literal: Option<usize>,
    ) -> Option<RulePlan> {
        if !self.config.use_planner {
            return None;
        }
        let plan = self.plan_cache.plan_for(
            PlanKey::Rule {
                rule: rule_index,
                delta: delta_literal,
            },
            &rules[rule_index].body,
            self.relations,
            self.udfs,
            self.plan_stats,
        );
        for spec in &plan.ensure {
            if let Some(relation) = self.relations.get_mut(&spec.pred) {
                if relation.ensure_index(spec.cols) {
                    PlanStats::bump(&self.plan_stats.index_builds);
                }
            }
        }
        Some(plan)
    }

    /// Recompute an aggregation rule from the full body relations, sharding
    /// the fold across the worker pool when the driving relation is large
    /// enough (accumulator merges are commutative and associative, so the
    /// result is order-independent).
    fn recompute_aggregate(
        &mut self,
        rules: &[Rule],
        rule_index: usize,
    ) -> Result<Vec<(String, Tuple)>> {
        let plan = self.prepare_plan(rules, rule_index, None);
        evaluate_agg_rule_exec(
            &rules[rule_index],
            self.relations,
            self.udfs,
            plan.as_ref(),
            Some(self.plan_stats),
            &self.config.exec,
            self.pool,
        )
    }

    /// Phase B: insert one combination's derivations with strict
    /// functional-dependency checking, adding new tuples to `delta`.
    /// Id-space derivations insert without rehydration; only genuinely new
    /// rows are resolved back to values (for the delta set).
    fn insert_derivation(
        &mut self,
        derivation: Derivation,
        delta: &mut HashMap<String, HashSet<Tuple>>,
    ) -> Result<usize> {
        match derivation {
            Derivation::Values(derived) => self.insert_derived(derived, delta),
            Derivation::Ids(derived) => {
                let mut inserted = 0usize;
                for (pred, batch) in derived {
                    self.relation_entry(&pred);
                    for index in 0..batch.rows() {
                        let row = batch.row(index);
                        let relation = self
                            .relations
                            .get_mut(&pred)
                            .expect("relation just ensured");
                        if relation.insert_ids(row)? {
                            inserted += 1;
                            let tuple = relation.interner().resolve_row(row);
                            self.journal.record_added(&pred, tuple.clone());
                            delta.entry(pred.clone()).or_default().insert(tuple);
                        }
                    }
                }
                Ok(inserted)
            }
        }
    }

    /// Insert derived tuples with strict functional-dependency checking.
    /// Newly inserted tuples are added to `delta`.
    fn insert_derived(
        &mut self,
        derived: Vec<(String, Tuple)>,
        delta: &mut HashMap<String, HashSet<Tuple>>,
    ) -> Result<usize> {
        let mut inserted = 0usize;
        for (pred, tuple) in derived {
            let relation = self.relation_entry(&pred);
            if relation.insert(tuple.clone())? {
                inserted += 1;
                self.journal.record_added(&pred, tuple.clone());
                delta.entry(pred).or_default().insert(tuple);
            }
        }
        Ok(inserted)
    }

    /// Insert derived tuples, replacing existing functional values (used for
    /// aggregate recomputation where new aggregates supersede old ones).
    fn insert_replacing(
        &mut self,
        derived: Vec<(String, Tuple)>,
        delta: &mut HashMap<String, HashSet<Tuple>>,
    ) -> Result<usize> {
        let mut inserted = 0usize;
        for (pred, tuple) in derived {
            let relation = self.relation_entry(&pred);
            let (added, displaced) = relation.insert_or_replace_returning(tuple.clone())?;
            // Displacement is journaled before the insertion that caused it —
            // reverse replay then restores the displaced value after removing
            // its replacement.
            if let Some(old) = displaced {
                self.journal.record_removed(&pred, old);
            }
            if added {
                self.journal.record_added(&pred, tuple.clone());
                inserted += 1;
                delta.entry(pred).or_default().insert(tuple);
            }
        }
        Ok(inserted)
    }

    /// Get or create the relation for `pred`, using the schema to decide the
    /// storage kind.  New relations share the evaluator's dictionary.
    pub fn relation_entry(&mut self, pred: &str) -> &mut Relation {
        if !self.relations.contains_key(pred) {
            let key_arity = self.schema.get(pred).and_then(|decl| match decl.kind {
                PredicateKind::Functional { key_arity } => Some(key_arity),
                PredicateKind::Relation => None,
            });
            self.relations.insert(
                pred.to_string(),
                Relation::with_interner(pred, key_arity, Arc::clone(self.interner)),
            );
            self.journal.record_created(pred);
        }
        self.relations
            .get_mut(pred)
            .expect("relation just inserted")
    }
}

/// Fold one round's delta into the accumulated new-tuple map of a seeded
/// run (so later strata — and rules positioned after the producing round —
/// see it as a first-round driver).
fn merge_delta(
    accumulated: &mut HashMap<String, HashSet<Tuple>>,
    delta: &HashMap<String, HashSet<Tuple>>,
) {
    for (pred, set) in delta {
        if set.is_empty() {
            continue;
        }
        accumulated
            .entry(pred.clone())
            .or_default()
            .extend(set.iter().cloned());
    }
}

/// Does any body literal of `rule` — positive or negative — read a
/// predicate with accumulated new tuples?  Untouched aggregation rules skip
/// recomputation in a seeded first round: their stored values are exactly
/// what recomputation would produce.
fn rule_touched(rule: &Rule, accumulated: &HashMap<String, HashSet<Tuple>>) -> bool {
    rule.body.iter().any(|literal| {
        let atom = match literal {
            Literal::Pos(atom) | Literal::Neg(atom) => atom,
            Literal::Cmp(..) => return false,
        };
        runtime_pred_name(&atom.pred)
            .is_ok_and(|pred| accumulated.get(&pred).is_some_and(|set| !set.is_empty()))
    })
}

/// Rough size of a combination's driving tuple set, for the rule-level
/// fan-out gate: the delta set when one is pinned, otherwise the first
/// stored body relation.
fn driving_size(
    rule: &Rule,
    delta: Option<(usize, &HashSet<Tuple>)>,
    relations: &HashMap<String, Relation>,
) -> usize {
    if let Some((_, set)) = delta {
        return set.len();
    }
    for literal in &rule.body {
        if let Literal::Pos(atom) = literal {
            if let Ok(pred) = runtime_pred_name(&atom.pred) {
                if let Some(relation) = relations.get(&pred) {
                    return relation.len();
                }
            }
        }
    }
    0
}

/// Evaluate one non-existential `(rule, delta)` combination read-only:
/// sharded across the worker pool when the driving set is large enough,
/// serial tuple-at-a-time otherwise.  Heads are projected inside the
/// enumeration callback — no per-solution `Bindings` clone.
#[allow(clippy::too_many_arguments)]
fn evaluate_tuple_combo(
    rule: &Rule,
    plan: Option<&RulePlan>,
    delta: Option<(usize, &HashSet<Tuple>)>,
    relations: &HashMap<String, Relation>,
    udfs: &UdfRegistry,
    stats: &PlanStats,
    options: &EvalOptions,
    pool: Option<&WorkerPool>,
) -> Result<Vec<(String, Tuple)>> {
    if let Some(merged) =
        evaluate_tuple_sharded(rule, plan, delta, relations, udfs, stats, options, pool)?
    {
        return Ok(merged);
    }
    PlanStats::bump(&stats.serial_batches);
    let ctx = JoinContext::with_stats(relations, udfs, stats);
    let restriction = delta.map(|(index, tuples)| DeltaRestriction {
        literal_index: index,
        delta: DeltaTuples::Set(tuples),
    });
    let mut derived: Vec<(String, Tuple)> = Vec::new();
    let mut bindings = Bindings::new();
    let mut collect = |b: &Bindings| {
        derived.append(&mut exec::project_heads(rule, b, relations)?);
        Ok(())
    };
    match plan {
        Some(plan) => {
            ctx.join_planned(&rule.body, plan, restriction, &mut bindings, &mut collect)?
        }
        None => ctx.join(&rule.body, restriction, &mut bindings, &mut collect)?,
    }
    Ok(derived)
}

/// Try the sharded parallel path for one combination.  Returns `Ok(None)`
/// when the execution should stay serial: parallelism disabled, a driving
/// set below the threshold, or a body with no stored relation to drive on.
///
/// The driving literal is the delta literal when one is pinned, otherwise
/// the first stored-relation literal in plan execution order (the join's
/// outer loop).  Its tuple set is hash-partitioned; each worker runs the
/// full planned join with its shard as a [`DeltaRestriction`] against shared
/// read-only relation views (every index the plan probes was built in
/// [`Evaluator::prepare_plan`] before this point), instantiating head tuples
/// in a worker-local buffer.  Workers sort and deduplicate their own
/// buffers; the caller folds them with a pipelined two-way merge as they
/// arrive — bit-identical to the serial result (asserted in debug builds).
#[allow(clippy::too_many_arguments)]
fn evaluate_tuple_sharded(
    rule: &Rule,
    plan: Option<&RulePlan>,
    delta: Option<(usize, &HashSet<Tuple>)>,
    relations: &HashMap<String, Relation>,
    udfs: &UdfRegistry,
    stats: &PlanStats,
    options: &EvalOptions,
    pool: Option<&WorkerPool>,
) -> Result<Option<Vec<(String, Tuple)>>> {
    if !options.parallel_enabled() {
        return Ok(None);
    }
    let (drive, shards) = match delta {
        Some((index, tuples)) => {
            if tuples.len() < options.parallel_threshold {
                return Ok(None);
            }
            (index, exec::partition(tuples.iter(), options.workers))
        }
        None => {
            let Some(sharded) =
                exec::shard_driving_relation(&rule.body, plan, relations, udfs, options)
            else {
                return Ok(None);
            };
            sharded
        }
    };
    PlanStats::bump(&stats.parallel_batches);
    let merged = exec::run_shards_merged(pool, &shards, |shard| {
        PlanStats::bump(&stats.shards_executed);
        let ctx = JoinContext::with_stats(relations, udfs, stats);
        let restriction = Some(DeltaRestriction {
            literal_index: drive,
            delta: DeltaTuples::Shard(shard),
        });
        let mut derived: Vec<(String, Tuple)> = Vec::new();
        let mut bindings = Bindings::new();
        let mut collect = |b: &Bindings| {
            derived.append(&mut exec::project_heads(rule, b, relations)?);
            Ok(())
        };
        match plan {
            Some(plan) => {
                ctx.join_planned(&rule.body, plan, restriction, &mut bindings, &mut collect)?
            }
            None => ctx.join(&rule.body, restriction, &mut bindings, &mut collect)?,
        }
        Ok(derived)
    })?;
    #[cfg(debug_assertions)]
    debug_verify_against_serial(rule, plan, delta, relations, udfs, &merged)?;
    Ok(Some(merged))
}

/// Debug-build check of the determinism argument: the merged parallel
/// output must equal the serial enumeration of the same execution
/// (sorted and deduplicated).  Runs without stats so the counters
/// reflect only the real evaluation.
#[cfg(debug_assertions)]
fn debug_verify_against_serial(
    rule: &Rule,
    plan: Option<&RulePlan>,
    delta: Option<(usize, &HashSet<Tuple>)>,
    relations: &HashMap<String, Relation>,
    udfs: &UdfRegistry,
    merged: &[(String, Tuple)],
) -> Result<()> {
    let ctx = JoinContext::new(relations, udfs);
    let restriction = delta.map(|(index, tuples)| DeltaRestriction {
        literal_index: index,
        delta: DeltaTuples::Set(tuples),
    });
    let mut serial: Vec<(String, Tuple)> = Vec::new();
    let mut bindings = Bindings::new();
    let mut collect = |b: &Bindings| {
        serial.append(&mut exec::project_heads(rule, b, relations)?);
        Ok(())
    };
    match plan {
        Some(plan) => {
            ctx.join_planned(&rule.body, plan, restriction, &mut bindings, &mut collect)?
        }
        None => ctx.join(&rule.body, restriction, &mut bindings, &mut collect)?,
    }
    debug_assert_eq!(
        exec::canonicalize_derived(serial),
        merged,
        "sharded evaluation diverged from serial evaluation for rule `{rule}`"
    );
    Ok(())
}

/// Debug-build check of the batch executor: its rehydrated output must equal
/// the tuple-at-a-time enumeration of the same combination.
#[cfg(debug_assertions)]
fn debug_verify_batch(
    rule: &Rule,
    plan: Option<&RulePlan>,
    delta: Option<(usize, &HashSet<Tuple>)>,
    relations: &HashMap<String, Relation>,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
    rows: &[(String, IdBatch)],
) -> Result<()> {
    let ctx = JoinContext::new(relations, udfs);
    let restriction = delta.map(|(index, tuples)| DeltaRestriction {
        literal_index: index,
        delta: DeltaTuples::Set(tuples),
    });
    let mut serial: Vec<(String, Tuple)> = Vec::new();
    let mut bindings = Bindings::new();
    let mut collect = |b: &Bindings| {
        serial.append(&mut exec::project_heads(rule, b, relations)?);
        Ok(())
    };
    match plan {
        Some(plan) => {
            ctx.join_planned(&rule.body, plan, restriction, &mut bindings, &mut collect)?
        }
        None => ctx.join(&rule.body, restriction, &mut bindings, &mut collect)?,
    }
    let rehydrated: Vec<(String, Tuple)> = rows
        .iter()
        .flat_map(|(pred, batch)| {
            batch
                .iter()
                .map(|row| (pred.clone(), interner.resolve_row(row)))
        })
        .collect();
    debug_assert_eq!(
        exec::canonicalize_derived(serial),
        exec::canonicalize_derived(rehydrated),
        "batch evaluation diverged from tuple-at-a-time for rule `{rule}`"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::strata::stratify;
    use crate::udf::UdfRegistry;

    /// Build the pieces an Evaluator needs from a program plus EDB facts.
    /// Relations share one dictionary so the batch path is exercised.
    struct Fixture {
        rules: Vec<Rule>,
        strata: Vec<Vec<usize>>,
        schema: Schema,
        udfs: UdfRegistry,
        relations: HashMap<String, Relation>,
        interner: Arc<Interner>,
        entity_counter: u64,
        memo: HashMap<(usize, Vec<Value>), u64>,
        plan_cache: PlanCache,
        plan_stats: PlanStats,
    }

    impl Fixture {
        fn new(source: &str, facts: &[(&str, Vec<Value>)]) -> Self {
            let program = parse_program(source).unwrap();
            let mut schema = Schema::new();
            schema.absorb_program(&program).unwrap();
            let rules: Vec<Rule> = program.rules().cloned().collect();
            let udfs = UdfRegistry::new();
            let strata = stratify(&rules, &udfs).unwrap();
            let interner = Arc::new(Interner::new());
            let mut relations = HashMap::new();
            for (pred, tuple) in facts {
                let key_arity = schema.get(pred).and_then(|d| match d.kind {
                    PredicateKind::Functional { key_arity } => Some(key_arity),
                    PredicateKind::Relation => None,
                });
                relations
                    .entry(pred.to_string())
                    .or_insert_with(|| {
                        Relation::with_interner(*pred, key_arity, Arc::clone(&interner))
                    })
                    .insert(tuple.clone())
                    .unwrap();
            }
            Fixture {
                rules,
                strata,
                schema,
                udfs,
                relations,
                interner,
                entity_counter: 0,
                memo: HashMap::new(),
                plan_cache: PlanCache::new(),
                plan_stats: PlanStats::default(),
            }
        }

        fn run(&mut self) -> FixpointStats {
            let config = EvalConfig::default();
            let mut evaluator = Evaluator {
                relations: &mut self.relations,
                schema: &self.schema,
                udfs: &self.udfs,
                config: &config,
                entity_counter: &mut self.entity_counter,
                existential_memo: &mut self.memo,
                plan_cache: &mut self.plan_cache,
                plan_stats: &self.plan_stats,
                interner: &self.interner,
                pool: None,
                journal: &mut EvalJournal::default(),
            };
            evaluator.run(&self.rules, &self.strata, None).unwrap()
        }

        fn tuples(&self, pred: &str) -> Vec<Tuple> {
            self.relations
                .get(pred)
                .map(|r| r.sorted())
                .unwrap_or_default()
        }
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn transitive_closure() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("c"), s("d")]),
            ],
        );
        let stats = fixture.run();
        let reachable = fixture.tuples("reachable");
        assert_eq!(reachable.len(), 6);
        assert!(reachable.contains(&vec![s("a"), s("d")]));
        assert!(stats.iterations >= 3, "needs several semi-naive rounds");
        // Idempotent: re-running derives nothing new.
        let stats2 = fixture.run();
        assert_eq!(stats2.derived, 0);
    }

    #[test]
    fn negation_in_higher_stratum() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             node(X) <- link(X, _).\n\
             node(Y) <- link(_, Y).\n\
             unreachable(X, Y) <- node(X), node(Y), !reachable(X, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("c"), s("c")]),
            ],
        );
        fixture.run();
        let unreachable = fixture.tuples("unreachable");
        assert!(unreachable.contains(&vec![s("a"), s("a")]));
        assert!(unreachable.contains(&vec![s("b"), s("c")]));
        assert!(!unreachable.contains(&vec![s("a"), s("b")]));
        assert!(!unreachable.contains(&vec![s("c"), s("c")]));
    }

    #[test]
    fn aggregation_min_cost() {
        let mut fixture = Fixture::new(
            "cost[Src, Dst] = C -> node(Src), node(Dst), int[32](C).\n\
             bestcost[Src, Dst] = C <- agg<< C = min(Cx) >> cost3(Src, Dst, Cx).",
            &[
                ("cost3", vec![s("a"), s("b"), Value::Int(5)]),
                ("cost3", vec![s("a"), s("b"), Value::Int(3)]),
                ("cost3", vec![s("a"), s("c"), Value::Int(7)]),
            ],
        );
        fixture.run();
        let best = fixture.tuples("bestcost");
        assert_eq!(best.len(), 2);
        assert!(best.contains(&vec![s("a"), s("b"), Value::Int(3)]));
        assert!(best.contains(&vec![s("a"), s("c"), Value::Int(7)]));
    }

    #[test]
    fn head_existentials_mint_stable_entities() {
        let mut fixture = Fixture::new(
            "pathvar(P) -> .\n\
             pathvar(P), path(P, X, Y) <- link(X, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
            ],
        );
        fixture.run();
        let paths = fixture.tuples("path");
        assert_eq!(paths.len(), 2);
        let pathvars = fixture.tuples("pathvar");
        assert_eq!(pathvars.len(), 2);
        // Entities are distinct per binding.
        assert_ne!(paths[0][0], paths[1][0]);
        // Re-running the fixpoint must not mint new entities.
        fixture.run();
        assert_eq!(fixture.tuples("pathvar").len(), 2);
    }

    #[test]
    fn arithmetic_in_heads() {
        let mut fixture = Fixture::new(
            "dist(X, Y, 1) <- link(X, Y).\n\
             dist(X, Y, C + 1) <- link(X, Z), dist(Z, Y, C), C < 10.",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("c"), s("d")]),
            ],
        );
        fixture.run();
        let dist = fixture.tuples("dist");
        assert!(dist.contains(&vec![s("a"), s("d"), Value::Int(3)]));
    }

    #[test]
    fn batch_path_runs_for_eligible_rules() {
        let facts: Vec<(&str, Vec<Value>)> = (0..32)
            .flat_map(|i| {
                vec![
                    ("r", vec![Value::Int(i), Value::Int(i + 1)]),
                    ("s", vec![Value::Int(i + 1), Value::Int(i + 2)]),
                ]
            })
            .collect();
        let mut fixture = Fixture::new("out(X, Z) <- r(X, Y), s(Y, Z).", &facts);
        fixture.run();
        assert_eq!(fixture.tuples("out").len(), 32);
        // Derived relations share the fixture dictionary, so re-running
        // stays on the batch path and derives nothing new.
        let stats = fixture.run();
        assert_eq!(stats.derived, 0);
        assert!(Arc::ptr_eq(
            fixture.relations.get("out").unwrap().interner(),
            &fixture.interner
        ));
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut fixture = Fixture::new(
            "out(X, Y) <- link(X, _).",
            &[("link", vec![s("a"), s("b")])],
        );
        let config = EvalConfig::default();
        let mut evaluator = Evaluator {
            relations: &mut fixture.relations,
            schema: &fixture.schema,
            udfs: &fixture.udfs,
            config: &config,
            entity_counter: &mut fixture.entity_counter,
            existential_memo: &mut fixture.memo,
            plan_cache: &mut fixture.plan_cache,
            plan_stats: &fixture.plan_stats,
            interner: &fixture.interner,
            pool: None,
            journal: &mut EvalJournal::default(),
        };
        // Y is a head existential, so it actually mints an entity — that is
        // allowed.  A truly unsafe head would use an expression over unbound
        // variables; simulate by evaluating a rule with a singleton that is
        // unset.
        let program = parse_program("out(K) <- link(X, _), K = missing[] + 1.").unwrap();
        let rules: Vec<Rule> = program.rules().cloned().collect();
        let result = evaluator.evaluate_rule(&rules, 0, None);
        assert!(result.is_err() || result.unwrap().is_empty());
    }

    #[test]
    fn fixpoint_budget_enforced() {
        let mut fixture = Fixture::new(
            "count(X, C + 1) <- count(X, C).",
            &[("count", vec![s("a"), Value::Int(0)])],
        );
        let config = EvalConfig {
            max_iterations: 50,
            ..EvalConfig::default()
        };
        let mut evaluator = Evaluator {
            relations: &mut fixture.relations,
            schema: &fixture.schema,
            udfs: &fixture.udfs,
            config: &config,
            entity_counter: &mut fixture.entity_counter,
            existential_memo: &mut fixture.memo,
            plan_cache: &mut fixture.plan_cache,
            plan_stats: &fixture.plan_stats,
            interner: &fixture.interner,
            pool: None,
            journal: &mut EvalJournal::default(),
        };
        let err = evaluator
            .run(&fixture.rules, &fixture.strata, None)
            .unwrap_err();
        assert!(matches!(err, DatalogError::FixpointBudget { .. }));
    }
}

//! The workspace: a database instance holding predicate definitions,
//! installed rules, constraints, and data, evaluated transactionally.
//!
//! This mirrors the LogicBlox workspace of the paper's Figure 1: programs are
//! compiled (parsed, type-checked) and installed; applications then add or
//! remove facts, and the installed rules are maintained to fixpoint while
//! runtime constraints are checked.  SecureBlox processes each batch of
//! incoming network facts "in a local ACID transaction that encapsulates a
//! fixpoint computation; if a derivation in the transaction violates a runtime
//! constraint, then the transaction (including the input tuples) is rolled
//! back" (§5.2) — [`Workspace::transaction`] implements exactly that.

use crate::ast::{Constraint, Literal, Program, Rule, Statement, Term};
use crate::constraint::{check_constraints_incremental_planned, check_constraints_planned};
use crate::error::{DatalogError, Result};
use crate::eval::dred::DeletionStats;
use crate::eval::{
    Bindings, EvalConfig, EvalJournal, EvalOptions, Evaluator, PlanCache, PlanStats,
    PlanStatsSnapshot, WorkerPool,
};
use crate::intern::Interner;
use crate::parser::parse_program;
use crate::relation::Relation;
use crate::schema::{PredicateKind, Schema};
use crate::strata::stratify_with;
use crate::typecheck::typecheck_program;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a successfully committed transaction.
#[derive(Debug, Clone, Default)]
pub struct TransactionReport {
    /// Base facts newly inserted by this transaction.
    pub inserted: usize,
    /// Tuples derived by the fixpoint computation.
    pub derived: usize,
    /// Semi-naïve iterations executed.
    pub iterations: usize,
    /// Wall-clock duration of the transaction (insert + fixpoint + constraint
    /// check), which the evaluation harness reports as "transaction duration".
    pub duration: Duration,
}

/// A LogicBlox-style workspace.
#[derive(Clone)]
pub struct Workspace {
    schema: Schema,
    relations: HashMap<String, Relation>,
    rules: Vec<Rule>,
    constraints: Vec<Constraint>,
    udfs: UdfRegistry,
    strata: Vec<Vec<usize>>,
    config: EvalConfig,
    entity_counter: u64,
    existential_memo: HashMap<(usize, Vec<Value>), u64>,
    /// Explicitly asserted (extensional) facts, tracked so incremental
    /// deletion never removes a fact that has a non-rule justification.
    edb_facts: HashMap<String, HashSet<Tuple>>,
    /// When true, static type checking failures abort installation.
    strict_typing: bool,
    /// When true, negation is permitted inside recursive components
    /// (locally-stratified programs such as the path-vector protocol).
    allow_recursive_negation: bool,
    /// Compiled rule plans, kept across transactions (and deployment ticks)
    /// so steady-state evaluation pays no planning cost.
    plan_cache: PlanCache,
    /// Planner / index counters for the bench harness.
    plan_stats: PlanStats,
    /// The workspace-wide value dictionary.  Every relation of this workspace
    /// shares it, which is what makes the columnar batch executor eligible
    /// (see [`crate::intern`]).
    interner: Arc<Interner>,
    /// Persistent worker pool, created lazily on the first parallel fixpoint
    /// and kept for the workspace's lifetime.  Clones share the pool.
    pool: Option<Arc<WorkerPool>>,
    /// Whether the installed program is eligible for seeded (incremental)
    /// transactions: no negated body literal reads an aggregate-rule head.
    /// Aggregate heads are the one predicate class that can *shrink* during a
    /// fixpoint (value displacement), so negation over them could enable
    /// derivations a delta-seeded first round never drives.  Recomputed on
    /// every program install.
    seedable: bool,
    /// Whether the database is at fixpoint under the installed rules and
    /// UDFs, so a transaction may seed its first round (see
    /// [`Workspace::transaction`]).  Set by every committed transaction,
    /// fixpoint and retraction; cleared by every mutation that bypasses the
    /// rules (direct fact assertion, relation clearing, program install, UDF
    /// registration); a rollback leaves it as it was.
    converged: bool,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("predicates", &self.relations.len())
            .field("rules", &self.rules.len())
            .field("constraints", &self.constraints.len())
            .field(
                "facts",
                &self.relations.values().map(|r| r.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// Create an empty workspace with default evaluation limits.
    pub fn new() -> Self {
        Workspace {
            schema: Schema::new(),
            relations: HashMap::new(),
            rules: Vec::new(),
            constraints: Vec::new(),
            udfs: UdfRegistry::new(),
            strata: Vec::new(),
            config: EvalConfig::default(),
            entity_counter: 0,
            existential_memo: HashMap::new(),
            edb_facts: HashMap::new(),
            strict_typing: true,
            allow_recursive_negation: false,
            plan_cache: PlanCache::new(),
            plan_stats: PlanStats::default(),
            interner: Arc::new(Interner::new()),
            pool: None,
            seedable: true,
            converged: false,
        }
    }

    /// Create a workspace with a custom evaluation configuration.
    pub fn with_config(config: EvalConfig) -> Self {
        Workspace {
            config,
            ..Self::new()
        }
    }

    /// Disable static type checking (useful for exploratory programs whose
    /// schema is intentionally partial).
    pub fn set_strict_typing(&mut self, strict: bool) {
        self.strict_typing = strict;
    }

    /// Reconfigure the evaluation worker pool (see
    /// [`EvalOptions`]): `workers > 1` shards each
    /// stratum's driving tuple sets across scoped worker threads; `workers
    /// <= 1` keeps the serial path.  Takes effect from the next transaction.
    pub fn set_eval_options(&mut self, options: EvalOptions) {
        self.config.exec = options;
    }

    /// The current worker-pool configuration.
    pub fn eval_options(&self) -> EvalOptions {
        self.config.exec
    }

    /// Permit negation inside recursive components (locally-stratified
    /// programs).  Must be called before programs are installed.
    pub fn set_allow_recursive_negation(&mut self, allow: bool) {
        self.allow_recursive_negation = allow;
    }

    /// Reserve a distinct entity-id namespace for this workspace so entities
    /// minted on different simulated nodes never collide when tuples travel
    /// between them.
    pub fn set_entity_namespace(&mut self, namespace: u64) {
        self.entity_counter = self.entity_counter.max(namespace << 32);
    }

    /// Access the declared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Installed rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Installed constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The UDF registry (mutable, for registering application functions).
    pub fn udfs_mut(&mut self) -> &mut UdfRegistry {
        self.converged = false;
        &mut self.udfs
    }

    /// Register a user-defined function.
    pub fn register_udf<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Option<Value>]) -> std::result::Result<Vec<Vec<Value>>, String>
            + Send
            + Sync
            + 'static,
    {
        self.converged = false;
        self.udfs.register(name, f);
    }

    /// Register a family of user-defined functions (`family$param`).
    pub fn register_udf_family<F>(&mut self, family: impl Into<String>, f: F)
    where
        F: Fn(&str, &[Option<Value>]) -> std::result::Result<Vec<Vec<Value>>, String>
            + Send
            + Sync
            + 'static,
    {
        self.converged = false;
        self.udfs.register_family(family, f);
    }

    /// Parse and install a program from source text.
    pub fn install_source(&mut self, source: &str) -> Result<()> {
        let program = parse_program(source)?;
        self.install_program(&program)
    }

    /// Install a parsed program: absorb its schema, type-check it, add its
    /// rules, constraints and facts, and recompute evaluation strata.
    ///
    /// Programs containing BloxGenerics statements must be compiled with the
    /// meta-compiler first; installing them directly is an error.
    pub fn install_program(&mut self, program: &Program) -> Result<()> {
        if program.has_generics() {
            return Err(DatalogError::Generics(
                "program contains BloxGenerics statements; compile it with secureblox-generics \
                 before installing"
                    .into(),
            ));
        }
        self.converged = false;
        self.schema.absorb_program(program)?;
        if self.strict_typing {
            typecheck_program(program, &self.schema, &self.udfs)?;
        }
        for statement in &program.statements {
            match statement {
                Statement::Rule(rule) => self.rules.push(rule.clone()),
                Statement::Constraint(constraint) => self.constraints.push(constraint.clone()),
                Statement::Fact(fact) => {
                    let pred = crate::eval::runtime_pred_name(&fact.atom.pred)?;
                    let tuple = self.ground_terms(&fact.atom.terms)?;
                    self.insert_edb(&pred, tuple, None)?;
                }
                Statement::GenericRule(_) | Statement::GenericConstraint(_) => unreachable!(),
            }
        }
        self.strata = stratify_with(&self.rules, &self.udfs, self.allow_recursive_negation)?;
        self.seedable = Self::compute_seedable(&self.rules);
        // The rule set changed: previously compiled plans are stale.
        self.plan_cache.clear();
        Ok(())
    }

    /// A program is seedable iff no negated body literal reads a predicate
    /// that an aggregate rule writes (see the `seedable` field).
    fn compute_seedable(rules: &[Rule]) -> bool {
        let mut agg_heads: HashSet<String> = HashSet::new();
        for rule in rules {
            if rule.agg.is_some() {
                for atom in &rule.head {
                    if let Ok(name) = crate::eval::runtime_pred_name(&atom.pred) {
                        agg_heads.insert(name);
                    }
                }
            }
        }
        if agg_heads.is_empty() {
            return true;
        }
        for rule in rules {
            for literal in &rule.body {
                if let Literal::Neg(atom) = literal {
                    if let Ok(name) = crate::eval::runtime_pred_name(&atom.pred) {
                        if agg_heads.contains(&name) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    fn ground_terms(&self, terms: &[Term]) -> Result<Tuple> {
        let bindings = Bindings::new();
        let mut tuple = Vec::with_capacity(terms.len());
        for term in terms {
            match crate::eval::bindings::eval_term(term, &bindings, &self.relations)? {
                Some(v) => tuple.push(v),
                None => {
                    return Err(DatalogError::Eval(format!(
                        "fact argument {term} is not a ground value"
                    )))
                }
            }
        }
        Ok(tuple)
    }

    /// Assert a single extensional fact (no fixpoint is run).
    pub fn assert_fact(&mut self, pred: &str, tuple: Tuple) -> Result<()> {
        self.converged = false;
        self.insert_edb(pred, tuple, None)
    }

    /// Set the value of a zero-key functional (singleton) predicate, e.g.
    /// `self[] = "n3"`.
    pub fn set_singleton(&mut self, pred: &str, value: Value) -> Result<()> {
        self.converged = false;
        let relation = self
            .relations
            .entry(pred.to_string())
            .or_insert_with(|| Relation::with_interner(pred, Some(0), Arc::clone(&self.interner)));
        relation.insert_or_replace(vec![value.clone()])?;
        self.edb_facts
            .entry(pred.to_string())
            .or_default()
            .insert(vec![value]);
        Ok(())
    }

    /// Insert an extensional fact into its relation and the EDB set,
    /// recording every change in `journal` inside a transaction.
    fn insert_edb(
        &mut self,
        pred: &str,
        tuple: Tuple,
        mut journal: Option<&mut EvalJournal>,
    ) -> Result<()> {
        if !self.relations.contains_key(pred) {
            let key_arity = self.schema.get(pred).and_then(|decl| match decl.kind {
                PredicateKind::Functional { key_arity } => Some(key_arity),
                PredicateKind::Relation => None,
            });
            let relation = Relation::with_interner(pred, key_arity, Arc::clone(&self.interner));
            self.relations.insert(pred.to_string(), relation);
            if let Some(journal) = journal.as_deref_mut() {
                journal.record_created(pred);
            }
        }
        let relation = self.relations.get_mut(pred).expect("relation just ensured");
        if relation.insert(tuple.clone())? {
            if let Some(journal) = journal.as_deref_mut() {
                journal.record_added(pred, tuple.clone());
            }
        }
        if !self.edb_facts.contains_key(pred) {
            self.edb_facts.insert(pred.to_string(), HashSet::new());
            if let Some(journal) = journal.as_deref_mut() {
                journal.record_edb_created(pred);
            }
        }
        let edb = self.edb_facts.get_mut(pred).expect("EDB set just ensured");
        if edb.insert(tuple.clone()) {
            if let Some(journal) = journal {
                journal.record_edb_added(pred, tuple);
            }
        }
        Ok(())
    }

    /// All tuples of a predicate, in deterministic order.
    pub fn query(&self, pred: &str) -> Vec<Tuple> {
        self.relations
            .get(pred)
            .map(|r| r.sorted())
            .unwrap_or_default()
    }

    /// Number of tuples stored for a predicate.
    pub fn count(&self, pred: &str) -> usize {
        self.relations.get(pred).map_or(0, |r| r.len())
    }

    /// Membership test for a fully ground tuple.
    pub fn contains_fact(&self, pred: &str, tuple: &[Value]) -> bool {
        self.relations.get(pred).is_some_and(|r| r.contains(tuple))
    }

    /// The value of a singleton predicate, if set.
    pub fn singleton(&self, pred: &str) -> Option<Value> {
        self.relations
            .get(pred)
            .and_then(|r| r.singleton_value())
            .cloned()
    }

    /// Direct read access to a relation (used by the distributed runtime to
    /// drain export buffers).
    pub fn relation(&self, pred: &str) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// Probe `pred` on a secondary index over the columns of `cols`, building
    /// the index on first use (it is maintained incrementally afterwards).
    /// Returns every stored tuple whose projection onto `cols` equals `key`
    /// — the distributed runtime uses this to find the detached signature of
    /// an exported tuple without scanning the whole signature relation.
    pub fn probe_indexed(
        &mut self,
        pred: &str,
        cols: crate::relation::ColumnSet,
        key: &[Value],
    ) -> Vec<Tuple> {
        let Some(relation) = self.relations.get_mut(pred) else {
            return Vec::new();
        };
        relation.ensure_index(cols);
        match relation.probe(cols, key) {
            Some(ids) => ids
                .iter()
                .map(|&id| relation.tuple_by_id(id).clone())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Remove every tuple of a predicate without touching derived data (used
    /// for transient outbox predicates such as `export`).
    pub fn clear_relation(&mut self, pred: &str) {
        self.converged = false;
        if let Some(relation) = self.relations.get_mut(pred) {
            relation.clear();
        }
        self.edb_facts.remove(pred);
    }

    /// Run installed rules to fixpoint and check all constraints, without
    /// inserting new facts.  Rolls back on violation.  Always a full
    /// evaluation: every stratum's first round is naïve, even on a
    /// converged workspace.
    pub fn fixpoint(&mut self) -> Result<TransactionReport> {
        self.commit(Vec::new(), false)
    }

    /// Process a batch of incoming facts inside a local ACID transaction:
    /// insert the facts, run the installed rules to fixpoint, check every
    /// constraint, and either commit or roll the whole batch back.
    ///
    /// On a converged workspace whose program is seedable (see the
    /// `converged` and `seedable` fields) the fixpoint is *seeded* with the
    /// batch's new base tuples instead of naïvely re-evaluating every rule,
    /// so the cost follows the batch's consequences rather than the size of
    /// the database.  Verdicts and the resulting database, head-existential
    /// entity ordinals included, are the same either way.  Every mutation is
    /// journaled, and a constraint violation or FD conflict rolls back by
    /// reverse-replaying the journal.
    pub fn transaction(&mut self, batch: Vec<(String, Tuple)>) -> Result<TransactionReport> {
        let seeded = self.converged && self.seedable;
        self.commit(batch, seeded)
    }

    fn commit(&mut self, batch: Vec<(String, Tuple)>, seeded: bool) -> Result<TransactionReport> {
        let start = Instant::now();
        let entity_counter = self.entity_counter;
        let mut journal = EvalJournal::default();
        match self.commit_inner(batch, seeded, &mut journal) {
            Ok(mut report) => {
                self.converged = true;
                report.duration = start.elapsed();
                secureblox_telemetry::histogram!("datalog_fixpoint_ns")
                    .record_duration(report.duration);
                secureblox_telemetry::gauge!("datalog_intern_table_size")
                    .set_max(self.interner.len() as i64);
                Ok(report)
            }
            Err(error) => {
                self.roll_back(journal, entity_counter);
                Err(error)
            }
        }
    }

    fn commit_inner(
        &mut self,
        batch: Vec<(String, Tuple)>,
        seeded: bool,
        journal: &mut EvalJournal,
    ) -> Result<TransactionReport> {
        let mut report = TransactionReport {
            inserted: batch.len(),
            ..TransactionReport::default()
        };
        for (pred, tuple) in batch {
            self.insert_edb(&pred, tuple, Some(&mut *journal))?;
        }
        // So far the journal holds exactly the batch's new base tuples.
        let seed = seeded.then(|| journal.added_delta(&self.relations));
        let stats = self.evaluate(journal, |evaluator, rules, strata, _| {
            evaluator.run(rules, strata, seed)
        })?;
        report.derived = stats.derived;
        report.iterations = stats.iterations;
        // Incremental constraint checking over the tuples this transaction
        // added (paper §2: constraints are checked for every new fact).
        let delta = journal.added_delta(&self.relations);
        let pool = self.pool.clone();
        check_constraints_incremental_planned(
            &self.constraints,
            &mut self.relations,
            &self.udfs,
            &mut self.plan_cache,
            &self.plan_stats,
            &delta,
            &self.config.exec,
            pool.as_deref(),
        )?;
        Ok(report)
    }

    /// Undo a failed `transaction` or `retract`: reverse-replay its journal
    /// and restore the entity counter it saved.  `converged` needs no
    /// restoring, since only a commit changes it.
    fn roll_back(&mut self, journal: EvalJournal, entity_counter: u64) {
        journal.undo(
            &mut self.relations,
            &mut self.existential_memo,
            &mut self.edb_facts,
        );
        self.entity_counter = entity_counter;
    }

    /// Lazily (re)create the persistent worker pool to match the configured
    /// worker count; drop it when parallelism is disabled.
    fn ensure_pool(&mut self) {
        if !self.config.exec.parallel_enabled() {
            self.pool = None;
            return;
        }
        let workers = self.config.exec.workers;
        if self.pool.as_ref().is_none_or(|p| p.size() != workers) {
            self.pool = Some(Arc::new(WorkerPool::new(workers)));
        }
    }

    /// Run `f` on an evaluator over this workspace that records every
    /// mutation in `journal`.  `f` also gets the installed rules and strata
    /// and the EDB set, which the evaluator does not borrow.
    fn evaluate<T>(
        &mut self,
        journal: &mut EvalJournal,
        f: impl FnOnce(
            &mut Evaluator<'_>,
            &[Rule],
            &[Vec<usize>],
            &HashMap<String, HashSet<Tuple>>,
        ) -> Result<T>,
    ) -> Result<T> {
        self.ensure_pool();
        let pool = self.pool.clone();
        let mut evaluator = Evaluator {
            relations: &mut self.relations,
            schema: &self.schema,
            udfs: &self.udfs,
            config: &self.config,
            entity_counter: &mut self.entity_counter,
            existential_memo: &mut self.existential_memo,
            plan_cache: &mut self.plan_cache,
            plan_stats: &self.plan_stats,
            interner: &self.interner,
            pool: pool.as_deref(),
            journal,
        };
        f(&mut evaluator, &self.rules, &self.strata, &self.edb_facts)
    }

    /// Planner and index counters accumulated by this workspace.
    pub fn plan_stats(&self) -> PlanStatsSnapshot {
        self.plan_stats.snapshot()
    }

    /// Number of compiled rule plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Retract base facts and incrementally maintain derived relations with
    /// DRed.  Constraints are re-checked afterwards; a violation rolls the
    /// whole retraction back through the journal, minted entities included.
    pub fn retract(&mut self, batch: Vec<(String, Tuple)>) -> Result<DeletionStats> {
        let timer = secureblox_telemetry::histogram!("datalog_retract_ns").start_timer();
        let entity_counter = self.entity_counter;
        let mut journal = EvalJournal::default();
        for (pred, tuple) in &batch {
            if self
                .edb_facts
                .get_mut(pred)
                .is_some_and(|set| set.remove(tuple))
            {
                journal.record_edb_removed(pred, tuple.clone());
            }
        }
        let result = self
            .evaluate(&mut journal, |evaluator, rules, strata, edb| {
                evaluator.delete_with_dred(rules, strata, &batch, edb)
            })
            .and_then(|stats| {
                let pool = self.pool.clone();
                check_constraints_planned(
                    &self.constraints,
                    &mut self.relations,
                    &self.udfs,
                    &mut self.plan_cache,
                    &self.plan_stats,
                    &self.config.exec,
                    pool.as_deref(),
                )
                .map(|()| stats)
            });
        match result {
            Ok(stats) => {
                // DRed re-derives through a full fixpoint, which it skips
                // when nothing was deleted.
                self.converged |= stats.base_deleted > 0;
                Ok(stats)
            }
            Err(error) => {
                self.roll_back(journal, entity_counter);
                timer.cancel();
                Err(error)
            }
        }
    }

    /// Names of all predicates with stored tuples (sorted, for diagnostics).
    pub fn predicate_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total number of stored tuples across all predicates.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn install_and_run_transitive_closure() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             link(n1, n2). link(n2, n3). link(n3, n4).",
        )
        .unwrap();
        let report = ws.fixpoint().unwrap();
        assert_eq!(ws.count("reachable"), 6);
        assert!(report.derived >= 6);
        assert!(ws.contains_fact("reachable", &[s("n1"), s("n4")]));
    }

    #[test]
    fn transaction_commits_new_batch() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        ws.transaction(vec![("link".into(), vec![s("a"), s("b")])])
            .unwrap();
        let report = ws
            .transaction(vec![("link".into(), vec![s("b"), s("c")])])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert!(ws.contains_fact("reachable", &[s("a"), s("c")]));
        assert!(report.duration.as_nanos() > 0);
    }

    #[test]
    fn constraint_violation_rolls_back_batch() {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             link(X, Y) <- says_link(X, Y).\n\
             principal(alice).",
        )
        .unwrap();
        // alice -> bob: bob is not a principal, so the whole batch must roll back.
        let err = ws
            .transaction(vec![("says_link".into(), vec![s("alice"), s("bob")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_eq!(ws.count("says_link"), 0);
        assert_eq!(ws.count("link"), 0);

        // Registering bob first makes the same batch commit.
        ws.assert_fact("principal", vec![s("bob")]).unwrap();
        ws.transaction(vec![("says_link".into(), vec![s("alice"), s("bob")])])
            .unwrap();
        assert_eq!(ws.count("link"), 1);
    }

    #[test]
    fn rollback_also_restores_derived_tuples() {
        let mut ws = Workspace::new();
        ws.install_source(
            "even(X) -> int[32](X).\n\
             twice(X, Y) <- pair(X, Y).\n\
             bad(X) -> audit(X, X).\n\
             bad(X) <- pair(X, _).",
        )
        .unwrap();
        let before = ws.total_facts();
        let err = ws
            .transaction(vec![("pair".into(), vec![Value::Int(1), Value::Int(2)])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_eq!(ws.total_facts(), before);
        assert_eq!(ws.count("twice"), 0);
    }

    #[test]
    fn functional_dependency_violation_rolls_back() {
        let mut ws = Workspace::new();
        ws.install_source("owner[X] = Y -> string(X), string(Y).\nowner[k] = v1.")
            .unwrap();
        ws.fixpoint().unwrap();
        let err = ws
            .transaction(vec![("owner".into(), vec![s("k"), s("v2")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::FunctionalDependency { .. }));
        assert_eq!(ws.query("owner"), vec![vec![s("k"), s("v1")]]);
    }

    /// Assert that two workspaces hold the same data: every relation, the
    /// EDB set, the existential memo and the entity counter.
    fn assert_same_data(a: &Workspace, b: &Workspace, context: &str) {
        assert_eq!(
            a.predicate_names(),
            b.predicate_names(),
            "{context}: predicate sets diverged"
        );
        for pred in a.predicate_names() {
            assert_eq!(a.query(&pred), b.query(&pred), "{context}: {pred} diverged");
        }
        assert_eq!(a.edb_facts, b.edb_facts, "{context}: EDB sets diverged");
        assert_eq!(
            a.existential_memo, b.existential_memo,
            "{context}: existential memos diverged"
        );
        assert_eq!(
            a.entity_counter, b.entity_counter,
            "{context}: entity counters diverged"
        );
    }

    /// Whether one step inserts its facts or retracts them.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Insert,
        Retract,
    }

    /// Drive the same step sequence through two workspaces: one seeds every
    /// transaction off a converged state, the reference has `converged`
    /// cleared before each call and so runs the full first round.  Asserts
    /// identical per-step verdicts and identical data after every step, and
    /// that every rejected step leaves the workspace as it found it.
    fn assert_seeded_matches_full(source: &str, steps: &[(Op, Vec<(String, Tuple)>)]) {
        let mut full = Workspace::new();
        full.set_strict_typing(false);
        full.install_source(source).unwrap();
        full.fixpoint().unwrap();
        let mut seeded = full.clone();
        assert!(seeded.converged && seeded.seedable);
        for (step, (op, batch)) in steps.iter().enumerate() {
            let context = format!("step {step} ({op:?} {batch:?})");
            full.converged = false;
            let (full_before, seeded_before) = (full.clone(), seeded.clone());
            let (a, b) = match op {
                Op::Insert => (
                    full.transaction(batch.clone()).map(|r| r.inserted),
                    seeded.transaction(batch.clone()).map(|r| r.inserted),
                ),
                Op::Retract => (
                    full.retract(batch.clone()).map(|r| r.base_deleted),
                    seeded.retract(batch.clone()).map(|r| r.base_deleted),
                ),
            };
            match (&a, &b) {
                (Ok(ra), Ok(rb)) => assert_eq!(ra, rb, "{context}"),
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        std::mem::discriminant(ea),
                        std::mem::discriminant(eb),
                        "{context}: verdicts diverged ({ea} vs {eb})"
                    );
                    assert_same_data(&full, &full_before, &format!("{context}, full rollback"));
                    assert_same_data(
                        &seeded,
                        &seeded_before,
                        &format!("{context}, seeded rollback"),
                    );
                    assert_eq!(full.converged, full_before.converged, "{context}");
                    assert_eq!(seeded.converged, seeded_before.converged, "{context}");
                }
                _ => panic!("{context}: verdicts diverged ({a:?} vs {b:?})"),
            }
            assert_same_data(&full, &seeded, &context);
        }
    }

    /// Recursion over imported links behind a constraint that rejects a link
    /// until both endpoints are known principals: per-batch verdicts are
    /// order-sensitive (a rejected link commits once its principals land),
    /// and retracting a principal that a link still names is rejected after
    /// DRed has over-deleted its `member` fact.
    const GUARDED_REACH: &str = "says_link(P, Q) -> member(P), member(Q).\n\
                                 member(X) <- principal(X).\n\
                                 link(X, Y) <- says_link(X, Y).\n\
                                 reach(X, Y) <- link(X, Y).\n\
                                 reach(X, Z) <- link(X, Y), reach(Y, Z).\n\
                                 principal(n0).";

    /// A functional dependency that conflicts on a second value for a key,
    /// plus aggregate displacement (min), head existentials and recursion.
    const COST_PATHS: &str = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                              pathvar(P) -> .\n\
                              pathvar(P), path(P, X, Y, C) <- cost[X, Y] = C.\n\
                              best[X] = C <- agg<< C = min(Cx) >> path(_, X, _, Cx).\n\
                              hop(X, Y) <- cost[X, Y] = _.\n\
                              hop(X, Z) <- hop(X, Y), hop(Y, Z).\n\
                              cost[n0, n1] = 5.";

    /// Head existentials behind negation and a constraint: retracting a
    /// `blocked` fact re-derives (and mints) a `path` that the constraint
    /// rejects unless its candidate is approved.
    const GUARDED_TAGS: &str = "tag(P) -> .\n\
                                tag(P), path(P, X) <- cand(X), !blocked(X).\n\
                                path(P, X) -> approved(X).";

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A seeded `transaction` reaches the same verdict and the same data
        /// as one with a full first round after every random insert batch or
        /// retraction, and every rejected step rolls back exactly.
        #[test]
        fn seeded_transaction_matches_full_on_random_steps(
            program in 0u8..3,
            steps in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec((0u8..3, 0u8..3, 0u8..3, 0i64..6), 1..4),
                ),
                1..12,
            ),
        ) {
            let node = |i: u8| s(&format!("n{i}"));
            let steps: Vec<(Op, Vec<(String, Tuple)>)> = steps
                .iter()
                .map(|(op, batch)| {
                    let op = if *op == 0 { Op::Retract } else { Op::Insert };
                    let batch = batch
                        .iter()
                        .map(|&(kind, a, b, c)| match (program, kind) {
                            (0, 0) => ("principal".into(), vec![node(a)]),
                            (0, _) => ("says_link".into(), vec![node(a), node(b)]),
                            (1, _) => ("cost".into(), vec![node(a), node(b), Value::Int(c)]),
                            (_, 0) => ("cand".into(), vec![node(a)]),
                            (_, 1) => ("blocked".into(), vec![node(a)]),
                            (_, _) => ("approved".into(), vec![node(a)]),
                        })
                        .collect();
                    (op, batch)
                })
                .collect();
            let source = [GUARDED_REACH, COST_PATHS, GUARDED_TAGS][program as usize];
            assert_seeded_matches_full(source, &steps);
        }
    }

    #[test]
    fn seeded_rollback_restores_exact_state() {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             link(X, Y) <- says_link(X, Y).\n\
             reach(X, Y) <- link(X, Y).\n\
             reach(X, Y) <- link(X, Z), reach(Z, Y).\n\
             principal(alice). principal(bob).\n\
             says_link(alice, bob).",
        )
        .unwrap();
        ws.fixpoint().unwrap();
        assert!(ws.converged);
        let before = ws.clone();
        let indexes =
            |ws: &Workspace| -> usize { ws.relations.values().map(|r| r.index_count()).sum() };
        let before_indexes = indexes(&ws);
        assert!(before_indexes > 0);
        let err = ws
            .transaction(vec![("says_link".into(), vec![s("bob"), s("mallory")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_same_data(&ws, &before, "rejected transaction");
        assert!(ws.converged);
        // The journal undoes tuples in place, so secondary indexes survive.
        assert!(indexes(&ws) >= before_indexes);
        // And the workspace is still fully usable afterwards.
        ws.transaction(vec![("principal".into(), vec![s("mallory")])])
            .unwrap();
        ws.transaction(vec![("says_link".into(), vec![s("bob"), s("mallory")])])
            .unwrap();
        assert!(ws.contains_fact("reach", &[s("alice"), s("mallory")]));
    }

    #[test]
    fn non_seedable_program_runs_the_full_first_round() {
        // Negation over an aggregate head: not seedable, so every
        // transaction runs the full first round.
        let source = "cost[X] = C -> string(X), int(C).\n\
                      best[] = C <- agg<< C = min(Cx) >> cost[_] = Cx.\n\
                      cheap(X) <- cost[X] = C, !best[] = _, C > 0.\n\
                      cost[a] = 5.";
        let mut ws = Workspace::new();
        ws.set_strict_typing(false);
        ws.install_source(source).unwrap();
        assert!(!ws.seedable);
        ws.fixpoint().unwrap();
        ws.transaction(vec![("cost".into(), vec![s("b"), Value::Int(2)])])
            .unwrap();
        assert_eq!(ws.singleton("best"), Some(Value::Int(2)));
    }

    #[test]
    fn rejected_retraction_mints_no_entities() {
        let source = "tag(P) -> .\n\
                      tag(P), path(P, X) <- cand(X), !blocked(X).\n\
                      path(P, X) -> approved(X).\n\
                      cand(a). cand(b). blocked(a). blocked(b). approved(b).";
        let mut ws = Workspace::new();
        ws.set_strict_typing(false);
        ws.install_source(source).unwrap();
        ws.fixpoint().unwrap();
        // What WAL replay sees: the rejected retraction never happened.
        let mut replay = ws.clone();
        let before = ws.clone();
        // Unblocking `a` derives a path to an unapproved candidate.
        let err = ws
            .retract(vec![("blocked".into(), vec![s("a")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_same_data(&ws, &before, "rejected retraction");
        for ws in [&mut ws, &mut replay] {
            ws.retract(vec![("blocked".into(), vec![s("b")])]).unwrap();
        }
        assert_eq!(ws.query("path"), vec![vec![Value::Entity(1), s("b")]]);
        assert_eq!(ws.query("path"), replay.query("path"));
    }

    #[test]
    fn seeded_transaction_calls_a_rule_udf_per_new_fact() {
        const N: usize = 1_000;
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = || calls.swap(0, std::sync::atomic::Ordering::SeqCst);
        let mut ws = Workspace::with_config(EvalConfig {
            exec: crate::eval::EvalOptions::serial(),
            ..EvalConfig::default()
        });
        let counter = Arc::clone(&calls);
        ws.register_udf("tick", move |args| {
            counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(vec![vec![crate::udf::require_bound(args, 0, "tick")?]])
        });
        ws.install_source("seen(X) <- item(X), tick(X).").unwrap();
        for i in 0..N {
            ws.assert_fact("item", vec![Value::Int(i as i64)]).unwrap();
        }
        ws.fixpoint().unwrap();
        assert_eq!(ws.count("seen"), N);
        count();
        // On a converged workspace one new fact costs O(1) UDF calls…
        ws.transaction(vec![("item".into(), vec![Value::Int(N as i64)])])
            .unwrap();
        assert_eq!(ws.count("seen"), N + 1);
        assert_eq!(
            count(),
            1,
            "a one-fact transaction must seed its first round"
        );
        // …while `fixpoint()` stays a full evaluation.
        ws.fixpoint().unwrap();
        assert_eq!(count(), N + 1, "fixpoint() must re-evaluate every rule");
        // A direct assertion leaves the workspace unconverged, so the next
        // transaction runs the full first round.
        ws.assert_fact("item", vec![Value::Int(N as i64 + 1)])
            .unwrap();
        ws.transaction(Vec::new()).unwrap();
        assert_eq!(count(), N + 2);
    }

    #[test]
    fn singleton_set_and_read() {
        let mut ws = Workspace::new();
        ws.set_singleton("self", s("n7")).unwrap();
        assert_eq!(ws.singleton("self"), Some(s("n7")));
        ws.set_singleton("self", s("n8")).unwrap();
        assert_eq!(ws.singleton("self"), Some(s("n8")));
        assert_eq!(ws.singleton("other"), None);
    }

    #[test]
    fn generic_program_rejected_without_metacompiler() {
        let mut ws = Workspace::new();
        let err = ws
            .install_source("'{ T(V*) <- says[T](P, self[], V*). } <-- predicate(T).")
            .unwrap_err();
        assert!(matches!(err, DatalogError::Generics(_)));
    }

    #[test]
    fn retract_maintains_derived_data() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             link(a, b). link(b, c).",
        )
        .unwrap();
        ws.fixpoint().unwrap();
        assert!(ws.contains_fact("reachable", &[s("a"), s("c")]));
        let stats = ws
            .retract(vec![("link".into(), vec![s("b"), s("c")])])
            .unwrap();
        assert_eq!(stats.base_deleted, 1);
        assert!(!ws.contains_fact("reachable", &[s("a"), s("c")]));
        assert!(ws.contains_fact("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn entity_namespace_prevents_collisions() {
        let mut ws1 = Workspace::new();
        let mut ws2 = Workspace::new();
        ws2.set_entity_namespace(7);
        for ws in [&mut ws1, &mut ws2] {
            ws.install_source(
                "pathvar(P) -> .\n\
                 pathvar(P), path(P, X, Y) <- link(X, Y).\n\
                 link(a, b).",
            )
            .unwrap();
            ws.fixpoint().unwrap();
        }
        let e1 = &ws1.query("pathvar")[0][0];
        let e2 = &ws2.query("pathvar")[0][0];
        assert_ne!(e1, e2);
    }

    #[test]
    fn udf_usable_from_installed_rules() {
        let mut ws = Workspace::new();
        ws.register_udf("hash10", |args| {
            let v = crate::udf::require_bound(args, 0, "hash10")?;
            let text = v.as_str().ok_or("expected string")?;
            let h = text.bytes().map(|b| b as i64).sum::<i64>() % 10;
            Ok(vec![vec![v, Value::Int(h)]])
        });
        ws.install_source("bucket(X, H) <- item(X), hash10(X, H).\nitem(abc).")
            .unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.count("bucket"), 1);
        let tuple = &ws.query("bucket")[0];
        assert_eq!(
            tuple[1],
            Value::Int((b'a' as i64 + b'b' as i64 + b'c' as i64) % 10)
        );
    }

    #[test]
    fn query_and_predicate_listing() {
        let mut ws = Workspace::new();
        ws.install_source("p(1). p(2). q(x).").unwrap();
        assert_eq!(ws.count("p"), 2);
        assert_eq!(ws.predicate_names(), vec!["p".to_string(), "q".to_string()]);
        assert_eq!(ws.total_facts(), 3);
        assert!(ws.query("missing").is_empty());
    }

    #[test]
    fn strict_typing_toggle() {
        let mut ws = Workspace::new();
        let source = "reachable(X, Y) -> node(X), node(Y).\n\
                      reachable(X, Y) <- s(X), s(Y).";
        assert!(ws.install_source(source).is_err());
        let mut lenient = Workspace::new();
        lenient.set_strict_typing(false);
        lenient.install_source(source).unwrap();
    }

    #[test]
    fn planner_hoists_comparisons_across_producers() {
        // `C = K + 1` textually precedes the literal that binds K.  The old
        // textual-order evaluator errored on it ("unbound operands"); the
        // planner defers the assignment until K is bound.
        let source = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                      cost[a, b] = 4.\n\
                      out(C) <- C = K + 1, cost[a, b] = K.";
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.query("out"), vec![vec![Value::Int(5)]]);
        // Lock in the contrast: the naive evaluator still rejects the rule,
        // so if the planner ever stops hoisting, this test catches it.
        let mut naive = Workspace::with_config(EvalConfig {
            use_planner: false,
            ..EvalConfig::default()
        });
        naive.install_source(source).unwrap();
        assert!(naive.fixpoint().is_err());
    }

    #[test]
    fn planner_hoists_selections_before_scans() {
        // `X = a, Y = b` after the functional literal: the planner schedules
        // the assignments first so the functional fast path applies; results
        // must match the naive scan.
        let source = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                      cost[a, b] = 4. cost[a, c] = 9.\n\
                      out(C) <- cost[X, Y] = C, X = a, Y = b.";
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            ws.fixpoint().unwrap();
            assert_eq!(ws.query("out"), vec![vec![Value::Int(4)]]);
        }
    }

    #[test]
    fn frozen_negation_variable_keeps_textual_semantics() {
        // `!b(X, Z)` with Z textually unbound means "no b(X, _) at all"; the
        // later assignment `Z = 5` must not be hoisted ahead of it.  With
        // b(1, 7) present, both evaluators must derive nothing.
        let source = "a(1). b(1, 7).\n\
                      out(X) <- a(X), !b(X, Z), Z = 5.";
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            ws.fixpoint().unwrap();
            assert!(
                ws.query("out").is_empty(),
                "planner={use_planner} must not derive out"
            );
        }
    }

    #[test]
    fn retract_works_with_hoisted_comparison_rules() {
        // DRed's over-deletion probes must run the same planned order as
        // fixpoint evaluation: this rule is only evaluable with the
        // comparison hoisted, and retraction must not error on it.
        let source = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                      cost[a, b] = 4. cost[a, c] = 9.\n\
                      out(C) <- C = K + 1, cost[a, b] = K.";
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.query("out"), vec![vec![Value::Int(5)]]);
        // Retracting an unrelated fact leaves the derivation alone…
        ws.retract(vec![("cost".into(), vec![s("a"), s("c"), Value::Int(9)])])
            .unwrap();
        assert_eq!(ws.query("out"), vec![vec![Value::Int(5)]]);
        // …and retracting the producing fact removes it.
        ws.retract(vec![("cost".into(), vec![s("a"), s("b"), Value::Int(4)])])
            .unwrap();
        assert!(ws.query("out").is_empty());
    }

    #[test]
    fn delta_pinning_respects_frozen_negation_vars() {
        // r is recursive with out, so semi-naïve passes restrict r(Z) to the
        // delta and the planner wants to pin it first — but Z is frozen for
        // `!b(X, Z)` (textually unbound: ∄ b(X, _)), so pinning must yield.
        // With b(1, 7) present, out(1) must never be derived.
        let source = "seed(1). a(1). a(2). b(1, 7).\n\
                      r(X) <- seed(X).\n\
                      r(X) <- out(X).\n\
                      out(X) <- a(X), !b(X, Z), r(Z).";
        let mut results = Vec::new();
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            ws.fixpoint().unwrap();
            results.push(ws.query("out"));
        }
        assert_eq!(results[0], results[1], "planned and naive out diverge");
        assert_eq!(results[0], vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn plan_stats_report_probes_and_cache_hits() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        for i in 0..30 {
            ws.assert_fact("link", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        ws.fixpoint().unwrap();
        let stats = ws.plan_stats();
        assert!(stats.plans_compiled > 0);
        assert!(stats.index_probes > 0, "recursive join should probe");
        assert!(ws.cached_plans() > 0);
        // A second fixpoint reuses the cached plans.
        ws.fixpoint().unwrap();
        assert!(ws.plan_stats().plan_cache_hits > stats.plan_cache_hits);
    }

    #[test]
    fn sharded_fixpoint_matches_serial_and_reports_utilization() {
        let source = "reachable(X, Y) <- link(X, Y).\n\
                      reachable(X, Y) <- link(X, Z), reachable(Z, Y).";
        let mut serial = Workspace::with_config(EvalConfig {
            exec: crate::eval::EvalOptions::serial(),
            ..EvalConfig::default()
        });
        let mut parallel = Workspace::with_config(EvalConfig {
            exec: crate::eval::EvalOptions {
                workers: 4,
                parallel_threshold: 2,
            },
            ..EvalConfig::default()
        });
        for ws in [&mut serial, &mut parallel] {
            ws.install_source(source).unwrap();
            for i in 0..40 {
                ws.assert_fact("link", vec![Value::Int(i), Value::Int(i + 1)])
                    .unwrap();
            }
            ws.fixpoint().unwrap();
        }
        assert_eq!(serial.query("reachable"), parallel.query("reachable"));
        let stats = parallel.plan_stats();
        assert!(stats.parallel_batches > 0, "worker pool must engage");
        assert!(stats.shards_executed >= stats.parallel_batches);
        let utilization = stats.worker_utilization(4);
        assert!(utilization > 0.0 && utilization <= 1.0);
        assert_eq!(serial.plan_stats().parallel_batches, 0);
    }

    #[test]
    fn sharded_retraction_matches_serial() {
        let source = "reachable(X, Y) <- link(X, Y).\n\
                      reachable(X, Y) <- link(X, Z), reachable(Z, Y).";
        let mut serial = Workspace::with_config(EvalConfig {
            exec: crate::eval::EvalOptions::serial(),
            ..EvalConfig::default()
        });
        let mut parallel = Workspace::with_config(EvalConfig {
            exec: crate::eval::EvalOptions {
                workers: 4,
                parallel_threshold: 1,
            },
            ..EvalConfig::default()
        });
        for ws in [&mut serial, &mut parallel] {
            ws.install_source(source).unwrap();
            for i in 0..30 {
                ws.assert_fact("link", vec![Value::Int(i), Value::Int(i + 1)])
                    .unwrap();
            }
            ws.fixpoint().unwrap();
            ws.retract(vec![("link".into(), vec![Value::Int(15), Value::Int(16)])])
                .unwrap();
        }
        assert_eq!(serial.query("reachable"), parallel.query("reachable"));
        assert!(parallel.plan_stats().parallel_batches > 0);
    }

    #[test]
    fn sharded_constraint_check_matches_serial() {
        let source = "says_link(P, Q) -> principal(P), principal(Q).\n\
                      link(X, Y) <- says_link(X, Y).";
        let configs = [
            crate::eval::EvalOptions::serial(),
            crate::eval::EvalOptions {
                workers: 4,
                parallel_threshold: 2,
            },
        ];
        for exec in configs {
            let mut ws = Workspace::with_config(EvalConfig {
                exec,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            let mut batch = Vec::new();
            for i in 0..40 {
                let (p, q) = (format!("p{i}"), format!("p{}", i + 1));
                ws.assert_fact("principal", vec![Value::str(p.clone())])
                    .unwrap();
                ws.assert_fact("principal", vec![Value::str(q.clone())])
                    .unwrap();
                batch.push(("says_link".into(), vec![Value::str(p), Value::str(q)]));
            }
            // A large satisfied batch passes under sharded checking...
            ws.transaction(batch.clone()).unwrap();
            // ...and one unknown principal among many still aborts.
            batch.push((
                "says_link".into(),
                vec![Value::str("mallory"), Value::str("p0")],
            ));
            let before = ws.count("link");
            assert!(ws.transaction(batch).is_err());
            assert_eq!(ws.count("link"), before, "violation must roll back");
        }
    }

    #[test]
    fn small_deltas_stay_on_the_serial_fast_path() {
        let mut ws = Workspace::with_config(EvalConfig {
            exec: crate::eval::EvalOptions {
                workers: 4,
                parallel_threshold: 1_000_000,
            },
            ..EvalConfig::default()
        });
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        for i in 0..20 {
            ws.assert_fact("link", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        ws.fixpoint().unwrap();
        let stats = ws.plan_stats();
        assert_eq!(
            stats.parallel_batches, 0,
            "below-threshold deltas must not shard"
        );
        assert!(stats.serial_batches > 0);
        assert_eq!(ws.count("reachable"), 20 * 21 / 2);
    }

    #[test]
    fn constraint_checks_share_the_plan_cache() {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             principal(alice). principal(bob).",
        )
        .unwrap();
        assert_eq!(ws.cached_plans(), 0);
        ws.transaction(vec![("says_link".into(), vec![s("alice"), s("bob")])])
            .unwrap();
        assert!(
            ws.cached_plans() > 0,
            "incremental constraint check must compile and cache plans"
        );
        let compiled = ws.plan_stats().plans_compiled;
        // A second batch reuses the cached constraint plans.
        ws.transaction(vec![("says_link".into(), vec![s("bob"), s("alice")])])
            .unwrap();
        let stats = ws.plan_stats();
        assert_eq!(stats.plans_compiled, compiled);
        assert!(stats.plan_cache_hits > 0);
        // Verdicts are unchanged: an unknown principal still rolls back.
        let err = ws
            .transaction(vec![("says_link".into(), vec![s("mallory"), s("bob")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
    }

    #[test]
    fn clear_relation_empties_outbox() {
        let mut ws = Workspace::new();
        ws.install_source("export(n1, payload).").unwrap();
        assert_eq!(ws.count("export"), 1);
        ws.clear_relation("export");
        assert_eq!(ws.count("export"), 0);
    }
}

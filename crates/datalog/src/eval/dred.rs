//! Incremental deletion via over-delete / re-derive (DRed).
//!
//! LogicBlox maintains installed rules incrementally with the DRed algorithm
//! of Gupta, Mumick & Subrahmanian (paper §2).  When base facts are removed,
//! DRed first *over-deletes*: it removes every derived tuple that has at
//! least one derivation using a deleted tuple.  It then *re-derives*: any
//! over-deleted tuple with a surviving alternative derivation is put back by
//! running the normal fixpoint over the remaining facts.
//!
//! Both phases ride the sharded worker pool (DESIGN.md §8): over-deletion's
//! candidate enumeration goes through [`Evaluator::evaluate_rule`], which
//! hash-partitions the deleted-tuple frontier across workers once it clears
//! the parallel threshold, and re-derivation is an ordinary fixpoint run.
//! Only the cheap existence probe stays serial — it aborts at the first
//! solution, so there is no work to partition.

use super::join::{DeltaRestriction, DeltaTuples, JoinContext};
use super::runtime_pred_name;
use super::seminaive::Evaluator;
use crate::ast::{Literal, Rule};
use crate::error::Result;
use crate::value::Tuple;
use std::collections::{HashMap, HashSet};

/// Outcome of an incremental deletion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeletionStats {
    /// Tuples removed from base (EDB) relations.
    pub base_deleted: usize,
    /// Derived tuples removed during over-deletion.
    pub over_deleted: usize,
    /// Tuples re-derived (re-inserted) because alternative derivations exist.
    pub rederived: usize,
}

impl<'a> Evaluator<'a> {
    /// Delete `base_deletions` and incrementally maintain all derived
    /// relations.
    ///
    /// `edb_facts` is the set of explicitly-asserted facts per predicate;
    /// tuples in it are never over-deleted (they have a non-rule derivation).
    pub fn delete_with_dred(
        &mut self,
        rules: &[Rule],
        strata: &[Vec<usize>],
        base_deletions: &[(String, Tuple)],
        edb_facts: &HashMap<String, HashSet<Tuple>>,
    ) -> Result<DeletionStats> {
        let mut stats = DeletionStats::default();

        // Snapshot the pre-deletion database: over-deletion joins run against
        // the original state, as in the standard formulation of DRed.  Held
        // mutably so planned evaluation can build (and keep, across rules and
        // frontier rounds) the secondary indexes it probes.
        let mut original = self.relations.clone();

        // 1. Remove the base facts.
        let mut deleted: HashMap<String, HashSet<Tuple>> = HashMap::new();
        for (pred, tuple) in base_deletions {
            if let Some(relation) = self.relations.get_mut(pred) {
                if relation.remove(tuple) {
                    self.journal.record_removed(pred, tuple.clone());
                    stats.base_deleted += 1;
                    deleted
                        .entry(pred.clone())
                        .or_default()
                        .insert(tuple.clone());
                }
            }
        }
        if stats.base_deleted == 0 {
            return Ok(stats);
        }

        // 2. Over-delete: propagate deletions through every rule until no new
        //    candidate deletions appear.  A candidate is any head tuple with a
        //    derivation (in the original database) that uses a deleted tuple.
        let mut frontier = deleted.clone();
        while frontier.values().any(|set| !set.is_empty()) {
            let mut next_frontier: HashMap<String, HashSet<Tuple>> = HashMap::new();
            for (rule_index, rule) in rules.iter().enumerate() {
                for (literal_index, literal) in rule.body.iter().enumerate() {
                    let Literal::Pos(atom) = literal else {
                        continue;
                    };
                    let pred = runtime_pred_name(&atom.pred)?;
                    let Some(pred_deleted) = frontier.get(&pred) else {
                        continue;
                    };
                    if pred_deleted.is_empty() {
                        continue;
                    }
                    // Cheap existence probe first: does any derivation of
                    // this rule go through the deleted tuples at this
                    // literal?  Stops at the first solution, and skips the
                    // snapshot swap below for rules the deletions cannot
                    // affect.  Runs the same plan full evaluation will use —
                    // the textual order may be unevaluable (hoisted
                    // comparisons) even when the planned order succeeds.
                    let plan = if self.config.use_planner {
                        Some(self.plan_cache.plan_for(
                            super::plan::PlanKey::Rule {
                                rule: rule_index,
                                delta: Some(literal_index),
                            },
                            &rule.body,
                            &original,
                            self.udfs,
                            self.plan_stats,
                        ))
                    } else {
                        None
                    };
                    let ctx = JoinContext::new(&original, self.udfs);
                    let mut bindings = super::bindings::Bindings::new();
                    let mut touched = false;
                    let restriction = DeltaRestriction {
                        literal_index,
                        delta: DeltaTuples::Set(pred_deleted),
                    };
                    let mut stop_at_first = |_: &super::bindings::Bindings| {
                        touched = true;
                        // Sentinel: aborts the enumeration immediately.
                        Err(crate::error::DatalogError::Eval(
                            "dred existence probe satisfied".into(),
                        ))
                    };
                    let probe = match &plan {
                        Some(plan) => ctx.join_planned(
                            &rule.body,
                            plan,
                            Some(restriction),
                            &mut bindings,
                            &mut stop_at_first,
                        ),
                        None => ctx.join(
                            &rule.body,
                            Some(restriction),
                            &mut bindings,
                            &mut stop_at_first,
                        ),
                    };
                    match probe {
                        Ok(()) => {}
                        Err(_) if touched => {}
                        Err(error) => return Err(error),
                    }
                    if !touched {
                        continue;
                    }
                    // Evaluate the rule against the ORIGINAL relations with
                    // this literal restricted to the deleted tuples,
                    // instantiating heads through the normal path (handles
                    // existential memoization identically to derivation).
                    // Aggregation rules cannot be head-instantiated from a
                    // body binding (the aggregate result is not a body
                    // variable); since they are recomputed from their full
                    // bodies on every stratum iteration, DRed may
                    // over-approximate instead: a deletion touching the body
                    // invalidates every stored tuple of the head predicate,
                    // and re-derivation recomputes the surviving groups.
                    let derived = if rule.agg.is_some() {
                        let mut all = Vec::new();
                        for atom in &rule.head {
                            let head_pred = runtime_pred_name(&atom.pred)?;
                            if let Some(relation) = self.relations.get(&head_pred) {
                                for tuple in relation.iter() {
                                    all.push((head_pred.clone(), tuple.clone()));
                                }
                            }
                        }
                        all
                    } else {
                        self.evaluate_rule_against(
                            rules,
                            rule_index,
                            Some((literal_index, pred_deleted)),
                            &mut original,
                        )?
                    };
                    for (head_pred, tuple) in derived {
                        // Explicitly asserted facts survive over-deletion.
                        if edb_facts
                            .get(&head_pred)
                            .is_some_and(|set| set.contains(&tuple))
                        {
                            continue;
                        }
                        let already = deleted
                            .get(&head_pred)
                            .is_some_and(|set| set.contains(&tuple));
                        if already {
                            continue;
                        }
                        if let Some(relation) = self.relations.get_mut(&head_pred) {
                            if relation.remove(&tuple) {
                                self.journal.record_removed(&head_pred, tuple.clone());
                                stats.over_deleted += 1;
                                deleted
                                    .entry(head_pred.clone())
                                    .or_default()
                                    .insert(tuple.clone());
                                next_frontier
                                    .entry(head_pred.clone())
                                    .or_default()
                                    .insert(tuple);
                            }
                        }
                    }
                }
            }
            frontier = next_frontier;
        }

        // 3. Re-derive: running the ordinary fixpoint over the remaining facts
        //    re-inserts every over-deleted tuple that still has a derivation.
        let before: usize = self.relations.values().map(|r| r.len()).sum();
        self.run(rules, strata, None)?;
        let after: usize = self.relations.values().map(|r| r.len()).sum();
        stats.rederived = after.saturating_sub(before);
        Ok(stats)
    }

    /// Like [`Evaluator::evaluate_rule`] but joining against an explicit
    /// relation snapshot (used by over-deletion).
    ///
    /// The snapshot is swapped in directly — no clone — so the only mutation
    /// evaluation performs on it (building secondary indexes) persists across
    /// calls, paying each index build once per deletion instead of once per
    /// (rule, literal, frontier round).
    fn evaluate_rule_against(
        &mut self,
        rules: &[Rule],
        rule_index: usize,
        delta: Option<(usize, &HashSet<Tuple>)>,
        snapshot: &mut HashMap<String, crate::relation::Relation>,
    ) -> Result<Vec<(String, Tuple)>> {
        std::mem::swap(self.relations, snapshot);
        let result = self.evaluate_rule(rules, rule_index, delta);
        std::mem::swap(self.relations, snapshot);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::{PlanCache, PlanStats};
    use crate::eval::{EvalConfig, EvalJournal};
    use crate::intern::Interner;
    use crate::parser::parse_program;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::strata::stratify;
    use crate::udf::UdfRegistry;
    use crate::value::Value;
    use std::sync::Arc;

    struct Fixture {
        rules: Vec<Rule>,
        strata: Vec<Vec<usize>>,
        schema: Schema,
        udfs: UdfRegistry,
        relations: HashMap<String, Relation>,
        interner: Arc<Interner>,
        edb: HashMap<String, HashSet<Tuple>>,
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
            let mut relations: HashMap<String, Relation> = HashMap::new();
            let mut edb: HashMap<String, HashSet<Tuple>> = HashMap::new();
            for (pred, tuple) in facts {
                relations
                    .entry(pred.to_string())
                    .or_insert_with(|| Relation::with_interner(*pred, None, Arc::clone(&interner)))
                    .insert(tuple.clone())
                    .unwrap();
                edb.entry(pred.to_string())
                    .or_default()
                    .insert(tuple.clone());
            }
            let mut fixture = Fixture {
                rules,
                strata,
                schema,
                udfs,
                relations,
                interner,
                edb,
                entity_counter: 0,
                memo: HashMap::new(),
                plan_cache: PlanCache::new(),
                plan_stats: PlanStats::default(),
            };
            fixture.run_fixpoint();
            fixture
        }

        fn run_fixpoint(&mut self) {
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
            evaluator.run(&self.rules, &self.strata, None).unwrap();
        }

        fn delete(&mut self, pred: &str, tuple: Vec<Value>) -> DeletionStats {
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
            // Keep the EDB bookkeeping in sync.
            self.edb.get_mut(pred).map(|set| set.remove(&tuple));
            evaluator
                .delete_with_dred(
                    &self.rules,
                    &self.strata,
                    &[(pred.to_string(), tuple)],
                    &self.edb,
                )
                .unwrap()
        }

        fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
            self.relations.get(pred).is_some_and(|r| r.contains(tuple))
        }
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn deleting_a_link_removes_dependent_paths() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
            ],
        );
        assert!(fixture.contains("reachable", &[s("a"), s("c")]));
        let stats = fixture.delete("link", vec![s("b"), s("c")]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            stats.over_deleted >= 2,
            "a->c and b->c must be over-deleted"
        );
        assert!(!fixture.contains("reachable", &[s("a"), s("c")]));
        assert!(!fixture.contains("reachable", &[s("b"), s("c")]));
        assert!(fixture.contains("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn alternative_derivations_are_rederived() {
        // Two routes from a to c; deleting one keeps a->c reachable.
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("a"), s("d")]),
                ("link", vec![s("d"), s("c")]),
            ],
        );
        assert!(fixture.contains("reachable", &[s("a"), s("c")]));
        let stats = fixture.delete("link", vec![s("b"), s("c")]);
        assert!(
            fixture.contains("reachable", &[s("a"), s("c")]),
            "alternative path via d survives"
        );
        assert!(!fixture.contains("reachable", &[s("b"), s("c")]));
        assert!(stats.rederived >= 1);
    }

    #[test]
    fn explicitly_asserted_facts_survive_overdeletion() {
        // c is both derived and explicitly asserted.
        let mut fixture = Fixture::new(
            "c(X) <- a(X).\n",
            &[("a", vec![s("v")]), ("c", vec![s("v")])],
        );
        let stats = fixture.delete("a", vec![s("v")]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            fixture.contains("c", &[s("v")]),
            "explicit fact must survive"
        );
    }

    #[test]
    fn deleting_nonexistent_fact_is_a_noop() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).",
            &[("link", vec![s("a"), s("b")])],
        );
        let stats = fixture.delete("link", vec![s("x"), s("y")]);
        assert_eq!(stats, DeletionStats::default());
        assert!(fixture.contains("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn retraction_recomputes_aggregates() {
        let mut fixture = Fixture::new(
            "total[X] = S <- agg<< S = sum(Y) >> e0(X, Y).",
            &[
                ("e0", vec![Value::Int(1), Value::Int(2)]),
                ("e0", vec![Value::Int(1), Value::Int(3)]),
                ("e0", vec![Value::Int(2), Value::Int(5)]),
            ],
        );
        assert!(fixture.contains("total", &[Value::Int(1), Value::Int(5)]));
        let stats = fixture.delete("e0", vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            fixture.contains("total", &[Value::Int(1), Value::Int(2)]),
            "group 1 recomputed from the surviving facts"
        );
        assert!(
            fixture.contains("total", &[Value::Int(2), Value::Int(5)]),
            "untouched group re-derived"
        );
        assert!(!fixture.contains("total", &[Value::Int(1), Value::Int(5)]));
        // Deleting a group's last fact removes its aggregate entirely.
        fixture.delete("e0", vec![Value::Int(1), Value::Int(2)]);
        assert!(!fixture.contains("total", &[Value::Int(1), Value::Int(2)]));
        assert!(fixture.contains("total", &[Value::Int(2), Value::Int(5)]));
    }

    #[test]
    fn incremental_matches_recompute_from_scratch() {
        let edges = [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("a", "d"),
            ("d", "e"),
            ("b", "e"),
        ];
        let facts: Vec<(&str, Vec<Value>)> = edges
            .iter()
            .map(|(x, y)| ("link", vec![s(x), s(y)]))
            .collect();
        let mut incremental = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &facts,
        );
        incremental.delete("link", vec![s("b"), s("c")]);

        let remaining: Vec<(&str, Vec<Value>)> = edges
            .iter()
            .filter(|(x, y)| !(*x == "b" && *y == "c"))
            .map(|(x, y)| ("link", vec![s(x), s(y)]))
            .collect();
        let fresh = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &remaining,
        );
        let a: Vec<Tuple> = incremental.relations["reachable"].sorted();
        let b: Vec<Tuple> = fresh.relations["reachable"].sorted();
        assert_eq!(a, b);
    }
}

//! Property-based tests for the DatalogLB engine substrate.
//!
//! The invariants exercised here are the ones the SecureBlox policies lean
//! on: the value model has a total order, relations behave like sets with
//! functional-dependency enforcement, the semi-naïve evaluator computes the
//! same closure as an independent reference implementation, incremental
//! deletion (DRed) is equivalent to recomputation from scratch, and the
//! parser/pretty-printer pair reaches a fixpoint.

use proptest::prelude::*;
use secureblox_datalog::{parse_program, Relation, Value, Workspace};
use std::cmp::Ordering;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Value: total order
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z][a-z0-9_]{0,8}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::bytes),
        any::<u64>().prop_map(Value::Entity),
        "[a-z][a-z0-9_]{0,8}".prop_map(Value::pred),
    ]
}

proptest! {
    /// `total_cmp` is reflexive and consistent with `Eq`.
    #[test]
    fn value_cmp_reflexive_and_consistent(v in arb_value(), w in arb_value()) {
        prop_assert_eq!(v.total_cmp(&v), Ordering::Equal);
        if v == w {
            prop_assert_eq!(v.total_cmp(&w), Ordering::Equal);
        }
        if v.total_cmp(&w) == Ordering::Equal && w.total_cmp(&v) == Ordering::Equal {
            // Equal under the order in both directions ⇒ structurally equal,
            // so sorted deduplication never conflates distinct values.
            prop_assert_eq!(v, w);
        }
    }

    /// Antisymmetry: cmp(a, b) is the reverse of cmp(b, a).
    #[test]
    fn value_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    }

    /// Transitivity over arbitrary triples.
    #[test]
    fn value_cmp_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut vals = [a, b, c];
        vals.sort_by(|x, y| x.total_cmp(y));
        prop_assert_ne!(vals[0].total_cmp(&vals[1]), Ordering::Greater);
        prop_assert_ne!(vals[1].total_cmp(&vals[2]), Ordering::Greater);
        prop_assert_ne!(vals[0].total_cmp(&vals[2]), Ordering::Greater);
    }
}

// ---------------------------------------------------------------------------
// Relation: set + functional-dependency semantics
// ---------------------------------------------------------------------------

proptest! {
    /// Plain relations behave like a set of tuples: membership, idempotent
    /// insertion, and length all agree with a reference BTreeSet.
    #[test]
    fn relation_matches_reference_set(tuples in proptest::collection::vec(
        (0i64..20, 0i64..20), 0..40)) {
        let mut relation = Relation::new("edge", None);
        let mut reference: BTreeSet<(i64, i64)> = BTreeSet::new();
        for &(a, b) in &tuples {
            let fresh = relation.insert(vec![Value::Int(a), Value::Int(b)]).unwrap();
            prop_assert_eq!(fresh, reference.insert((a, b)));
        }
        prop_assert_eq!(relation.len(), reference.len());
        for &(a, b) in &tuples {
            prop_assert!(relation.contains(&[Value::Int(a), Value::Int(b)]));
        }
        // Sorted iteration yields exactly the reference contents, in order.
        let sorted: Vec<(i64, i64)> = relation
            .sorted()
            .into_iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
            .collect();
        let expected: Vec<(i64, i64)> = reference.iter().copied().collect();
        prop_assert_eq!(sorted, expected);
    }

    /// Removal brings the relation back in sync with the reference set.
    #[test]
    fn relation_remove_tracks_reference(tuples in proptest::collection::vec((0i64..10, 0i64..10), 1..30),
                                        removals in proptest::collection::vec((0i64..10, 0i64..10), 0..30)) {
        let mut relation = Relation::new("edge", None);
        let mut reference: BTreeSet<(i64, i64)> = BTreeSet::new();
        for &(a, b) in &tuples {
            relation.insert(vec![Value::Int(a), Value::Int(b)]).unwrap();
            reference.insert((a, b));
        }
        for &(a, b) in &removals {
            let removed = relation.remove(&[Value::Int(a), Value::Int(b)]);
            prop_assert_eq!(removed, reference.remove(&(a, b)));
        }
        prop_assert_eq!(relation.len(), reference.len());
    }

    /// A functional relation (`p[k] = v`) keeps exactly one value per key
    /// under insert_or_replace, and functional_lookup returns the latest one.
    #[test]
    fn functional_relation_keeps_single_value_per_key(
        entries in proptest::collection::vec((0i64..8, 0i64..100), 1..40)
    ) {
        let mut relation = Relation::new("cost", Some(1));
        let mut reference: std::collections::BTreeMap<i64, i64> = Default::default();
        for &(k, v) in &entries {
            relation.insert_or_replace(vec![Value::Int(k), Value::Int(v)]).unwrap();
            reference.insert(k, v);
        }
        prop_assert_eq!(relation.len(), reference.len());
        for (&k, &v) in &reference {
            prop_assert_eq!(
                relation.functional_lookup(&[Value::Int(k)]),
                Some(&Value::Int(v))
            );
        }
    }

    /// Inserting a conflicting value for an existing key with plain `insert`
    /// is a functional-dependency violation, and the stored value is
    /// unchanged by the failed insertion.
    #[test]
    fn functional_relation_rejects_conflicts(k in 0i64..10, v1 in 0i64..50, delta in 1i64..50) {
        let v2 = v1 + delta;
        let mut relation = Relation::new("cost", Some(1));
        relation.insert(vec![Value::Int(k), Value::Int(v1)]).unwrap();
        let err = relation.insert(vec![Value::Int(k), Value::Int(v2)]);
        prop_assert!(err.is_err());
        prop_assert_eq!(relation.functional_lookup(&[Value::Int(k)]), Some(&Value::Int(v1)));
        prop_assert_eq!(relation.len(), 1);
    }

    /// `select` with a partially-bound pattern returns exactly the tuples a
    /// linear scan would.
    #[test]
    fn relation_select_matches_linear_scan(tuples in proptest::collection::vec((0i64..6, 0i64..6), 0..40),
                                           probe in 0i64..6) {
        let mut relation = Relation::new("edge", None);
        for &(a, b) in &tuples {
            let _ = relation.insert(vec![Value::Int(a), Value::Int(b)]);
        }
        let selected: BTreeSet<(i64, i64)> = relation
            .select(&[Some(Value::Int(probe)), None])
            .into_iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
            .collect();
        let expected: BTreeSet<(i64, i64)> =
            tuples.iter().copied().filter(|&(a, _)| a == probe).collect();
        prop_assert_eq!(&selected, &expected);
        prop_assert_eq!(relation.matches_any(&[Some(Value::Int(probe)), None]), !expected.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Semi-naïve evaluation vs. an independent reference closure
// ---------------------------------------------------------------------------

/// Warshall-style reference transitive closure.
fn reference_closure(n: usize, edges: &BTreeSet<(usize, usize)>) -> BTreeSet<(usize, usize)> {
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in edges {
        reach[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                let via = reach[k].clone();
                for (cell, &r) in reach[i].iter_mut().zip(&via) {
                    *cell |= r;
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            if r {
                out.insert((i, j));
            }
        }
    }
    out
}

fn node_value(i: usize) -> Value {
    Value::str(format!("n{i}"))
}

fn install_tc_workspace(edges: &BTreeSet<(usize, usize)>) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source(
        "reachable(X, Y) <- link(X, Y).\n\
         reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
    )
    .unwrap();
    for &(a, b) in edges {
        ws.assert_fact("link", vec![node_value(a), node_value(b)])
            .unwrap();
    }
    ws.fixpoint().unwrap();
    ws
}

fn reachable_pairs(ws: &Workspace, n: usize) -> BTreeSet<(usize, usize)> {
    let mut out = BTreeSet::new();
    for tuple in ws.query("reachable") {
        let a = tuple[0].as_str().unwrap()[1..].parse::<usize>().unwrap();
        let b = tuple[1].as_str().unwrap()[1..].parse::<usize>().unwrap();
        assert!(a < n && b < n);
        out.insert((a, b));
    }
    out
}

fn arb_edges(nodes: usize, max_edges: usize) -> impl Strategy<Value = BTreeSet<(usize, usize)>> {
    proptest::collection::btree_set((0..nodes, 0..nodes), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's recursive transitive closure equals the Warshall
    /// reference on random graphs.
    #[test]
    fn seminaive_transitive_closure_matches_reference(edges in arb_edges(7, 24)) {
        let ws = install_tc_workspace(&edges);
        prop_assert_eq!(reachable_pairs(&ws, 7), reference_closure(7, &edges));
    }

    /// Feeding the same links in several separate transactions produces the
    /// same closure as one big fixpoint (incremental insertion is exact).
    #[test]
    fn incremental_insertion_matches_batch(edges in arb_edges(6, 18), split in 1usize..5) {
        // Batch workspace.
        let batch_ws = install_tc_workspace(&edges);

        // Incremental workspace: same rules, links arrive in `split` chunks.
        let mut inc_ws = Workspace::new();
        inc_ws
            .install_source(
                "reachable(X, Y) <- link(X, Y).\n\
                 reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            )
            .unwrap();
        let edge_list: Vec<_> = edges.iter().copied().collect();
        for chunk in edge_list.chunks(split.max(1)) {
            let batch = chunk
                .iter()
                .map(|&(a, b)| ("link".to_string(), vec![node_value(a), node_value(b)]))
                .collect();
            inc_ws.transaction(batch).unwrap();
        }
        prop_assert_eq!(reachable_pairs(&inc_ws, 6), reference_closure(6, &edges));
        prop_assert_eq!(reachable_pairs(&inc_ws, 6), reachable_pairs(&batch_ws, 6));
    }

    /// DRed incremental deletion leaves exactly the closure of the remaining
    /// edges — equivalent to recomputing from scratch.
    #[test]
    fn dred_deletion_matches_recomputation(edges in arb_edges(6, 18),
                                           delete_mask in proptest::collection::vec(any::<bool>(), 18)) {
        let mut ws = install_tc_workspace(&edges);
        let edge_list: Vec<_> = edges.iter().copied().collect();
        let deleted: BTreeSet<(usize, usize)> = edge_list
            .iter()
            .enumerate()
            .filter(|(i, _)| delete_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, &e)| e)
            .collect();
        if !deleted.is_empty() {
            let batch = deleted
                .iter()
                .map(|&(a, b)| ("link".to_string(), vec![node_value(a), node_value(b)]))
                .collect();
            ws.retract(batch).unwrap();
        }
        let remaining: BTreeSet<(usize, usize)> =
            edges.difference(&deleted).copied().collect();
        prop_assert_eq!(reachable_pairs(&ws, 6), reference_closure(6, &remaining));
    }

    /// Aggregation: the `min` aggregate over per-pair path costs equals the
    /// reference minimum.
    #[test]
    fn min_aggregate_matches_reference(costs in proptest::collection::vec((0i64..5, 0i64..5, 1i64..100), 1..30)) {
        let mut ws = Workspace::new();
        ws.install_source("best(X, Y, C) <- agg<< C = min(Cx) >> cost(X, Y, Cx).").unwrap();
        let mut reference: std::collections::BTreeMap<(i64, i64), i64> = Default::default();
        for &(x, y, c) in &costs {
            ws.assert_fact("cost", vec![Value::Int(x), Value::Int(y), Value::Int(c)]).unwrap();
            reference
                .entry((x, y))
                .and_modify(|cur| *cur = (*cur).min(c))
                .or_insert(c);
        }
        ws.fixpoint().unwrap();
        let got: std::collections::BTreeMap<(i64, i64), i64> = ws
            .query("best")
            .into_iter()
            .map(|t| {
                ((t[0].as_int().unwrap(), t[1].as_int().unwrap()), t[2].as_int().unwrap())
            })
            .collect();
        prop_assert_eq!(got, reference);
    }
}

// ---------------------------------------------------------------------------
// Transactional constraint semantics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch that violates a type constraint rolls back in full; a batch
    /// that satisfies it commits in full.  This is the §5.2 ACID property the
    /// security policies are built on.
    #[test]
    fn constraint_violation_rolls_back_whole_batch(
        links in proptest::collection::vec((0usize..5, 0usize..5), 1..10),
        include_bad in any::<bool>()
    ) {
        let mut ws = Workspace::new();
        ws.install_source(
            "link(X, Y) -> node(X), node(Y).\n\
             reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        for i in 0..5 {
            ws.assert_fact("node", vec![node_value(i)]).unwrap();
        }
        let mut batch: Vec<(String, Vec<Value>)> = links
            .iter()
            .map(|&(a, b)| ("link".to_string(), vec![node_value(a), node_value(b)]))
            .collect();
        if include_bad {
            // "n99" is not a declared node, so the constraint must fail.
            batch.push(("link".to_string(), vec![node_value(0), Value::str("n99")]));
        }
        let before = ws.total_facts();
        let result = ws.transaction(batch);
        if include_bad {
            prop_assert!(result.is_err());
            prop_assert_eq!(ws.total_facts(), before);
            prop_assert_eq!(ws.count("reachable"), 0);
        } else {
            result.unwrap();
            let expected_links: BTreeSet<(usize, usize)> = links.iter().copied().collect();
            prop_assert_eq!(ws.count("link"), expected_links.len());
            prop_assert!(ws.count("reachable") >= expected_links.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Parser / pretty-printer fixpoint
// ---------------------------------------------------------------------------

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}"
}

/// A small random—but always well-formed—program: type declarations, facts,
/// and range-restricted rules over binary predicates.  Generic-rule syntax is
/// excluded here (its `Display` form summarises templates); the structural
/// guarantees of generated code are covered by the `secureblox-generics`
/// property tests instead.
fn arb_program_text() -> impl Strategy<Value = String> {
    let decl = (arb_ident(), arb_ident(), arb_ident())
        .prop_map(|(p, t1, t2)| format!("{p}(X, Y) -> {t1}(X), {t2}(Y)."));
    let fact =
        (arb_ident(), arb_ident(), 0i64..10_000).prop_map(|(p, a, i)| format!("{p}({a}, {i})."));
    let rule = (arb_ident(), arb_ident(), arb_ident())
        .prop_map(|(h, b1, b2)| format!("{h}(X, Y) <- {b1}(X, Z), {b2}(Z, Y)."));
    let constraint =
        (arb_ident(), arb_ident()).prop_map(|(p, q)| format!("{p}(X, Y) -> {q}(X), {q}(Y)."));
    proptest::collection::vec(prop_oneof![decl, fact, rule, constraint], 1..12)
        .prop_map(|stmts| stmts.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pretty-printing a parsed program and re-parsing it reaches a fixpoint:
    /// the second print equals the first.  This is what makes the
    /// BloxGenerics "reify program from relational representation" step
    /// trustworthy.
    #[test]
    fn parse_display_parse_is_a_fixpoint(source in arb_program_text()) {
        let first = parse_program(&source).unwrap();
        let printed = first.to_string();
        let second = parse_program(&printed)
            .unwrap_or_else(|e| panic!("pretty-printed program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(printed, second.to_string());
    }

    /// Statement count is preserved by the roundtrip.
    #[test]
    fn roundtrip_preserves_statement_count(source in arb_program_text()) {
        let first = parse_program(&source).unwrap();
        let second = parse_program(&first.to_string()).unwrap();
        prop_assert_eq!(first.statements.len(), second.statements.len());
    }
}

//! Static analyses over instrumentation plans: context encoding, collision
//! measurement, and decoding (CCID → full calling context).

use crate::plan::InstrumentationPlan;
use crate::scheme::Ccid;
use ht_callgraph::{enumerate_contexts, CallGraph, EdgeId, FuncId, Reachability};
use std::collections::HashMap;

/// Statically encodes a calling context (an edge path from the entry) under
/// `plan`, exactly as the runtime [`Encoder`](crate::Encoder) would.
pub fn encode_context(plan: &InstrumentationPlan, path: &[EdgeId]) -> Ccid {
    let mut v = 0u64;
    for &e in path {
        if let Some(c) = plan.constant(e) {
            v = plan.scheme().update(v, c, plan.radix());
        }
    }
    Ccid(v)
}

/// Result of exhaustively encoding every (bounded) calling context of a
/// graph's targets under a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollisionReport {
    /// Total contexts enumerated.
    pub contexts: usize,
    /// Distinct `(key, CCID)` values observed, where the key includes the
    /// target function iff the plan's strategy keys by target.
    pub distinct: usize,
    /// `contexts - distinct`.
    pub collisions: usize,
    /// For decodable schemes: contexts whose decode round-trip failed.
    pub decode_failures: usize,
}

/// Enumerates all calling contexts (up to `max_depth`/`max_paths`) and checks
/// encoding uniqueness and, for decodable schemes, decode round-trips.
pub fn collision_report(
    graph: &CallGraph,
    plan: &InstrumentationPlan,
    max_depth: usize,
    max_paths: usize,
) -> CollisionReport {
    let ctxs = enumerate_contexts(graph, max_depth, max_paths);
    let mut seen: HashMap<(Option<FuncId>, u64), usize> = HashMap::new();
    let mut decode_failures = 0;
    for (target, path) in &ctxs {
        let ccid = encode_context(plan, path);
        let key_target = if plan.strategy().keys_by_target() {
            Some(*target)
        } else {
            None
        };
        *seen.entry((key_target, ccid.0)).or_insert(0) += 1;
        if plan.scheme().is_decodable() {
            match decode(graph, plan, ccid, *target) {
                Some(decoded) if &decoded == path => {}
                _ => decode_failures += 1,
            }
        }
    }
    let distinct = seen.len();
    CollisionReport {
        contexts: ctxs.len(),
        distinct,
        collisions: ctxs.len() - distinct,
        decode_failures,
    }
}

/// Decodes a [`Scheme::Positional`](crate::Scheme::Positional) CCID back into the full edge path from
/// the program entry to `target`.
///
/// This is the "supports decoding" property of PCCE-style encodings: offline
/// tooling can turn the integer stored in a patch back into a human-readable
/// call chain.
///
/// Returns `None` when:
/// * the plan's scheme is not decodable (PCC),
/// * the graph does not have exactly one entry point,
/// * the CCID does not correspond to any context of `target` (corrupt or
///   foreign CCID), or
/// * decoding would require traversing a cycle (recursive contexts are not
///   uniquely decodable; the paper's PCCE shares this restriction).
pub fn decode(
    graph: &CallGraph,
    plan: &InstrumentationPlan,
    ccid: Ccid,
    target: FuncId,
) -> Option<Vec<EdgeId>> {
    if !plan.scheme().is_decodable() || !plan.is_precise() {
        return None;
    }
    let roots = graph.roots();
    if roots.len() != 1 {
        return None;
    }
    if plan.scheme() == crate::Scheme::Additive {
        return decode_additive(graph, plan, ccid, target, roots[0]);
    }
    let radix = plan.radix();
    debug_assert!(radix >= 2);

    // Peel base-K digits; the digit string is unique because every digit ≥ 1.
    let mut digits_rev = Vec::new();
    let mut v = ccid.0;
    while v != 0 {
        digits_rev.push(v % radix);
        v /= radix;
    }
    let digits: Vec<u64> = digits_rev.into_iter().rev().collect();

    let reach = Reachability::to_set(graph, &[target]);
    let mut path = Vec::new();
    let mut node = roots[0];
    let mut next_digit = 0usize;
    // Cycle guard: an acyclic traversal visits each function at most once.
    let max_steps = graph.func_count() + digits.len() + 1;

    for _ in 0..max_steps {
        if node == target {
            return if next_digit == digits.len() {
                Some(path)
            } else {
                None
            };
        }
        let candidates: Vec<EdgeId> = reach.reaching_out_edges(graph, node);
        let chosen = match candidates.len() {
            0 => return None,
            1 => {
                let e = candidates[0];
                if let Some(c) = plan.constant(e) {
                    if next_digit >= digits.len() || digits[next_digit] != c {
                        return None;
                    }
                    next_digit += 1;
                }
                e
            }
            _ => {
                // ≥ 2 candidates are always instrumented (branching node).
                let want = *digits.get(next_digit)?;
                let e = candidates
                    .into_iter()
                    .find(|&e| plan.constant(e) == Some(want))?;
                next_digit += 1;
                e
            }
        };
        path.push(chosen);
        node = graph.edge(chosen).callee;
    }
    None
}

/// Ball–Larus decoding for precise [`Scheme::Additive`] plans: at each node
/// the sibling ranges `[c(e), c(e) + numContexts(callee))` partition the
/// value space, so the remaining value selects the edge and the offset is
/// subtracted — mirroring PCCE's decoder.
///
/// [`Scheme::Additive`]: crate::Scheme::Additive
fn decode_additive(
    graph: &CallGraph,
    plan: &InstrumentationPlan,
    ccid: Ccid,
    target: FuncId,
    root: FuncId,
) -> Option<Vec<EdgeId>> {
    let reach_t = Reachability::to_set(graph, &[target]);
    if !reach_t.node_reaches(root) {
        return None;
    }
    let mut rem = ccid.0;
    let mut node = root;
    let mut path = Vec::new();
    for _ in 0..graph.func_count() + 1 {
        if node == target {
            return (rem == 0).then_some(path);
        }
        let cands: Vec<EdgeId> = reach_t.reaching_out_edges(graph, node);
        let mut chosen = None;
        for e in cands {
            let callee = graph.edge(e).callee;
            let width = plan.num_contexts(callee);
            // Instrumented edges carry their Ball–Larus offset; relevant
            // uninstrumented edges (non-branching, or false-branching under
            // Incremental) contribute nothing at runtime, i.e. offset 0.
            let start = plan.constant(e).unwrap_or(0);
            if rem >= start && rem - start < width {
                // Sibling ranges toward the same target are disjoint, but an
                // uninstrumented false-branching sibling may overlap; prefer
                // the unique candidate that still reaches `target`.
                if chosen.is_some() {
                    return None; // ambiguous — not a CCID of this target
                }
                chosen = Some((e, start));
            }
        }
        let (e, start) = chosen?;
        rem -= start;
        path.push(e);
        node = graph.edge(e).callee;
    }
    None
}

/// Expected number of PCC collisions for `n` uniformly hashed contexts in a
/// 64-bit space (birthday approximation `n(n-1)/2^65`), as reported in the
/// PCC paper's analysis.
pub fn expected_pcc_collisions(contexts: u64) -> f64 {
    let n = contexts as f64;
    n * (n - 1.0) / (2.0f64).powi(65)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use ht_callgraph::{CallGraphBuilder, Strategy};

    /// The paper's Figure 2 graph (same layout as the callgraph tests).
    fn figure2() -> (CallGraph, FuncId, FuncId) {
        let mut b = CallGraphBuilder::new();
        let a = b.func("A");
        let bb = b.func("B");
        let c = b.func("C");
        let e = b.func("E");
        let f = b.func("F");
        let t1 = b.target("T1");
        let t2 = b.target("T2");
        b.call(a, bb);
        b.call(a, c);
        b.call(bb, f);
        b.call(c, e);
        b.call(c, f);
        b.call(e, t1);
        b.call(f, t1);
        b.call(f, t2);
        (b.build(), t1, t2)
    }

    #[test]
    fn figure2_collision_free_for_all_plans() {
        let (g, _, _) = figure2();
        for strategy in Strategy::ALL {
            for scheme in Scheme::ALL {
                let plan = InstrumentationPlan::build(&g, strategy, scheme);
                let rep = collision_report(&g, &plan, 16, 1024);
                assert_eq!(rep.contexts, 5, "{strategy}/{scheme}");
                assert_eq!(rep.collisions, 0, "{strategy}/{scheme}: {rep:?}");
                if scheme.is_decodable() {
                    assert_eq!(rep.decode_failures, 0, "{strategy}/{scheme}");
                }
            }
        }
    }

    #[test]
    fn encode_context_matches_runtime_encoder() {
        let (g, _, _) = figure2();
        let plan = InstrumentationPlan::build(&g, Strategy::Slim, Scheme::Pcc);
        let ctxs = enumerate_contexts(&g, 16, 64);
        for (_, path) in ctxs {
            let static_ccid = encode_context(&plan, &path);
            let mut enc = crate::Encoder::new(&plan);
            for &e in &path {
                enc.on_call(e);
            }
            assert_eq!(static_ccid, enc.current());
        }
    }

    #[test]
    fn decode_round_trips_every_context() {
        let (g, _, _) = figure2();
        for strategy in Strategy::ALL {
            let plan = InstrumentationPlan::build(&g, strategy, Scheme::Positional);
            for (target, path) in enumerate_contexts(&g, 16, 64) {
                let ccid = encode_context(&plan, &path);
                let decoded = decode(&g, &plan, ccid, target);
                assert_eq!(decoded.as_ref(), Some(&path), "{strategy} {ccid}");
            }
        }
    }

    #[test]
    fn decode_rejects_pcc() {
        let (g, t1, _) = figure2();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Pcc);
        assert_eq!(decode(&g, &plan, Ccid(42), t1), None);
    }

    #[test]
    fn decode_rejects_foreign_ccid() {
        let (g, t1, _) = figure2();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Positional);
        // A CCID whose digit string matches no path.
        assert_eq!(decode(&g, &plan, Ccid(u64::MAX / 2), t1), None);
    }

    #[test]
    fn decode_rejects_wrong_target() {
        let (g, t1, t2) = figure2();
        let plan = InstrumentationPlan::build(&g, Strategy::Incremental, Scheme::Positional);
        // Context A-C-E-T1 exists; ask to decode its CCID toward T2.
        let ctxs = enumerate_contexts(&g, 16, 64);
        let (_, path) = ctxs
            .iter()
            .find(|(t, p)| *t == t1 && p.len() == 3)
            .expect("A-C-E-T1 exists");
        let ccid = encode_context(&plan, path);
        // Toward t2 the digit string cannot terminate at T2 with digits
        // exhausted, so this must not silently succeed with the wrong path.
        if let Some(p) = decode(&g, &plan, ccid, t2) {
            let last = *p.last().unwrap();
            assert_eq!(g.edge(last).callee, t2);
            // The decoded path must re-encode to the same CCID.
            assert_eq!(encode_context(&plan, &p), ccid);
        }
    }

    #[test]
    fn decode_requires_single_root() {
        let mut b = CallGraphBuilder::new();
        let r1 = b.func("r1");
        let r2 = b.func("r2");
        let t = b.target("malloc");
        b.call(r1, t);
        b.call(r2, t);
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Positional);
        assert_eq!(decode(&g, &plan, Ccid(1), t), None);
    }

    #[test]
    fn decode_zero_ccid_follows_unique_chain() {
        // main -> a -> malloc, all non-branching: Slim instruments nothing,
        // CCID 0, decode should still reconstruct the chain.
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let a = b.func("a");
        let m = b.target("malloc");
        let e1 = b.call(main, a);
        let e2 = b.call(a, m);
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Slim, Scheme::Positional);
        assert_eq!(plan.site_count(), 0);
        let decoded = decode(&g, &plan, Ccid(0), m);
        assert_eq!(decoded, Some(vec![e1, e2]));
    }

    #[test]
    fn recursive_context_decode_fails_gracefully() {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let f = b.func("f");
        let m = b.target("malloc");
        let e_mf = b.call(main, f);
        let e_ff = b.call(f, f);
        let e_fm = b.call(f, m);
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Positional);
        // Encode a context that loops through the back edge twice.
        let path = vec![e_mf, e_ff, e_ff, e_fm];
        let ccid = encode_context(&plan, &path);
        // Decode may fail (None) or return a different path that re-encodes
        // identically; it must not loop forever or panic.
        if let Some(p) = decode(&g, &plan, ccid, m) {
            assert_eq!(encode_context(&plan, &p), ccid);
        }
    }

    #[test]
    fn additive_is_dense_and_decodable() {
        // Ball–Larus density: N contexts encode exactly to 0..N under FCS.
        let (g, _, _) = figure2();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Additive);
        assert!(plan.is_precise());
        let ctxs = enumerate_contexts(&g, 16, 64);
        let mut ids: Vec<u64> = ctxs
            .iter()
            .map(|(_, p)| encode_context(&plan, p).0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "dense numbering of 5 contexts");
        // And every context decodes.
        for (t, p) in &ctxs {
            let ccid = encode_context(&plan, p);
            assert_eq!(decode(&g, &plan, ccid, *t).as_ref(), Some(p));
        }
    }

    #[test]
    fn additive_decodes_under_every_strategy() {
        let (g, _, _) = figure2();
        for strategy in Strategy::ALL {
            let plan = InstrumentationPlan::build(&g, strategy, Scheme::Additive);
            assert!(plan.is_precise(), "{strategy}");
            let rep = collision_report(&g, &plan, 16, 1024);
            assert_eq!(rep.collisions, 0, "{strategy}: {rep:?}");
            assert_eq!(rep.decode_failures, 0, "{strategy}");
        }
    }

    #[test]
    fn additive_falls_back_on_recursion() {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let f = b.func("f");
        let m = b.target("malloc");
        b.call(main, f);
        b.call(f, f); // recursive, reaches malloc
        b.call(f, m);
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Additive);
        assert!(!plan.is_precise(), "recursive subgraph degrades");
        assert_eq!(decode(&g, &plan, Ccid(1), m), None);
        // Constants still exist (PCC-grade), so encoding keeps working.
        let mut enc = crate::Encoder::new(&plan);
        for e in g.edge_ids() {
            enc.on_call(e);
        }
        assert_ne!(enc.current(), Ccid(0));
    }

    #[test]
    fn additive_num_contexts_accessor() {
        let (g, t1, _) = figure2();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Additive);
        let a = g.func_by_name("A").unwrap();
        assert_eq!(plan.num_contexts(a), 5, "A reaches 5 contexts");
        assert_eq!(plan.num_contexts(t1), 1, "targets terminate one context");
    }

    #[test]
    fn expected_collisions_tiny_for_realistic_counts() {
        // Even a million contexts has essentially zero expected collisions.
        assert!(expected_pcc_collisions(1_000_000) < 1e-6);
        assert_eq!(expected_pcc_collisions(0), 0.0);
        assert_eq!(expected_pcc_collisions(1), 0.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::{any, proptest, Strategy as PropStrategy};
        use proptest::{prop_assert, prop_assert_eq};

        fn arb_dag() -> impl PropStrategy<Value = CallGraph> {
            (2usize..5, 1usize..4, any::<u64>()).prop_map(|(layers, width, seed)| {
                let mut rng = seed;
                let mut next = move || {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    rng >> 33
                };
                let mut b = CallGraphBuilder::new();
                let main = b.func("main");
                let mut layer_funcs: Vec<Vec<FuncId>> = Vec::new();
                for l in 0..layers {
                    let n = 1 + (next() as usize) % width;
                    layer_funcs.push((0..n).map(|i| b.func(format!("L{l}_{i}"))).collect());
                }
                let ntargets = 1 + (next() as usize) % 3;
                layer_funcs.push((0..ntargets).map(|i| b.target(format!("T{i}"))).collect());
                let mut in_degree = vec![0usize; b.func_count()];
                for l in 0..layer_funcs.len() - 1 {
                    for i in 0..layer_funcs[l].len() {
                        let f = layer_funcs[l][i];
                        for _ in 0..(1 + (next() as usize) % 3) {
                            let tl = l + 1 + (next() as usize) % (layer_funcs.len() - l - 1);
                            let cands = &layer_funcs[tl];
                            let callee = cands[(next() as usize) % cands.len()];
                            b.call(f, callee);
                            in_degree[callee.index()] += 1;
                        }
                    }
                }
                for fs in &layer_funcs {
                    for &f in fs {
                        if in_degree[f.index()] == 0 {
                            b.call(main, f);
                        }
                    }
                }
                b.build()
            })
        }

        proptest! {
            #[test]
            fn positional_never_collides_and_decodes(g in arb_dag()) {
                for strategy in Strategy::ALL {
                    let plan = InstrumentationPlan::build(&g, strategy, Scheme::Positional);
                    let rep = collision_report(&g, &plan, 24, 2048);
                    prop_assert_eq!(rep.collisions, 0, "{}", strategy);
                    prop_assert_eq!(rep.decode_failures, 0, "{}", strategy);
                }
            }

            #[test]
            fn additive_dense_and_decodes_on_dags(g in arb_dag()) {
                for strategy in Strategy::ALL {
                    let plan = InstrumentationPlan::build(&g, strategy, Scheme::Additive);
                    prop_assert!(plan.is_precise(), "layered DAGs never recurse");
                    let ctxs = enumerate_contexts(&g, 24, 2048);
                    let rep = collision_report(&g, &plan, 24, 2048);
                    prop_assert_eq!(rep.collisions, 0, "{}", strategy);
                    prop_assert_eq!(rep.decode_failures, 0, "{}", strategy);
                    // Density: every CCID is below the root's context count.
                    let root = g.roots()[0];
                    let total = plan.num_contexts(root);
                    for (_, path) in &ctxs {
                        let id = encode_context(&plan, path).0;
                        prop_assert!(id < total, "{id} >= {total}");
                    }
                }
            }

            #[test]
            fn pcc_collision_free_on_small_dags(g in arb_dag()) {
                for strategy in Strategy::ALL {
                    let plan = InstrumentationPlan::build(&g, strategy, Scheme::Pcc);
                    let rep = collision_report(&g, &plan, 24, 2048);
                    prop_assert_eq!(rep.collisions, 0, "{}", strategy);
                }
            }
        }
    }
}

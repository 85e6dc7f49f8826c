//! The encoding-plan verifier: static checks that an
//! [`InstrumentationPlan`] delivers what it claims.

use ht_callgraph::{enumerate_contexts, CallGraph, FuncId, Strategy};
use ht_encoding::{collisions_among, CollisionReport, InstrumentationPlan};
use std::collections::HashSet;

/// Enumeration caps for context-space exploration (recursion makes the true
/// space unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierLimits {
    /// Maximum edges per enumerated context.
    pub max_depth: usize,
    /// Maximum contexts enumerated in total.
    pub max_paths: usize,
}

impl Default for VerifierLimits {
    fn default() -> Self {
        Self {
            max_depth: 64,
            max_paths: 200_000,
        }
    }
}

/// What the verifier concluded about a plan over its graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanVerdict {
    /// Exhaustive (bounded) encoding statistics: contexts, distinct CCIDs,
    /// collisions, decode round-trip failures.
    pub collisions: CollisionReport,
    /// If the plan claims precision, no two distinct contexts of one target
    /// may share a CCID and — when decoding is supported (decodable scheme,
    /// single-entry graph) — every CCID must round-trip. Plans that never
    /// claimed precision (e.g. PCC) pass vacuously; their collision rate is
    /// still reported in [`PlanVerdict::collisions`].
    pub precision_ok: bool,
    /// The paper's site-set containment: `FCS ⊇ TCS ⊇ Slim ⊇ Incremental`.
    pub inclusion_ok: bool,
    /// The plan's instrumented sites are exactly its strategy's selection
    /// over this graph (the plan was not built for a different graph).
    pub sites_ok: bool,
    /// Every target reachable from a program root was enumerated with at
    /// least one calling context (so every runtime allocation has a defined
    /// CCID).
    pub coverage_ok: bool,
    /// Enumeration hit [`VerifierLimits::max_paths`]; verdicts describe the
    /// explored prefix of the context space only.
    pub bounded: bool,
}

impl PlanVerdict {
    /// Whether every check passed.
    pub fn is_ok(&self) -> bool {
        self.precision_ok && self.inclusion_ok && self.sites_ok && self.coverage_ok
    }
}

/// Verifies `plan` against `graph` under `limits`.
pub fn verify_plan(
    graph: &CallGraph,
    plan: &InstrumentationPlan,
    limits: &VerifierLimits,
) -> PlanVerdict {
    // A plan built for a different graph would index out of range during
    // encoding, so establish compatibility first: its site set must be
    // exactly what its own strategy selects over *this* graph.
    let sites_ok = *plan.sites() == plan.strategy().select(graph);

    let ctxs = enumerate_contexts(graph, limits.max_depth, limits.max_paths);
    let collisions = if sites_ok {
        collisions_among(graph, plan, &ctxs)
    } else {
        CollisionReport {
            contexts: 0,
            distinct: 0,
            collisions: 0,
            decode_failures: 0,
        }
    };
    // Decoding is only defined for single-entry graphs under a decodable
    // scheme; elsewhere `decode` returns `None` by contract and round-trip
    // failures say nothing about the plan's precision.
    let decode_supported = plan.scheme().is_decodable() && graph.roots().len() == 1;
    let precision_ok = sites_ok
        && (!plan.is_precise()
            || (collisions.collisions == 0
                && (!decode_supported || collisions.decode_failures == 0)));

    let fcs = Strategy::Fcs.select(graph);
    let tcs = Strategy::Tcs.select(graph);
    let slim = Strategy::Slim.select(graph);
    let inc = Strategy::Incremental.select(graph);
    let inclusion_ok = inc.is_subset(&slim) && slim.is_subset(&tcs) && tcs.is_subset(&fcs);

    let bounded = ctxs.len() >= limits.max_paths;
    let enumerated: HashSet<FuncId> = ctxs.iter().map(|(t, _)| *t).collect();
    let coverage_ok = reachable_targets(graph)
        .into_iter()
        .all(|t| enumerated.contains(&t));

    PlanVerdict {
        collisions,
        precision_ok,
        inclusion_ok,
        sites_ok,
        coverage_ok,
        bounded,
    }
}

/// Targets reachable from any root via call edges.
fn reachable_targets(graph: &CallGraph) -> Vec<FuncId> {
    let mut seen = vec![false; graph.func_count()];
    let mut work: Vec<FuncId> = graph.roots();
    for &r in &work {
        seen[r.index()] = true;
    }
    while let Some(f) = work.pop() {
        for &e in &graph.func(f).out_edges {
            let callee = graph.edge(e).callee;
            if !seen[callee.index()] {
                seen[callee.index()] = true;
                work.push(callee);
            }
        }
    }
    graph
        .targets()
        .iter()
        .copied()
        .filter(|t| seen[t.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::CallGraphBuilder;
    use ht_encoding::Scheme;

    /// A diamond with one unreachable target hanging off a rootless cycle.
    fn diamond() -> CallGraph {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let f = b.func("f");
        let g = b.func("g");
        let m = b.target("malloc");
        b.call(main, f);
        b.call(main, g);
        b.call(f, m);
        b.call(g, m);
        b.build()
    }

    #[test]
    fn all_strategies_and_schemes_verify_on_a_dag() {
        let g = diamond();
        for strategy in Strategy::ALL {
            for scheme in Scheme::ALL {
                let plan = InstrumentationPlan::build(&g, strategy, scheme);
                let v = verify_plan(&g, &plan, &VerifierLimits::default());
                assert!(v.is_ok(), "{strategy}/{scheme}: {v:?}");
                assert!(!v.bounded);
                assert_eq!(v.collisions.contexts, 2, "two contexts reach malloc");
            }
        }
    }

    #[test]
    fn precise_schemes_must_be_collision_free() {
        let g = diamond();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Additive);
        let v = verify_plan(&g, &plan, &VerifierLimits::default());
        assert!(plan.is_precise());
        assert!(v.precision_ok);
        assert_eq!(v.collisions.collisions, 0);
        assert_eq!(v.collisions.decode_failures, 0);
    }

    #[test]
    fn foreign_plan_fails_sites_check() {
        let g = diamond();
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let m = b.target("malloc");
        b.call(main, m);
        let other = b.build();
        let plan = InstrumentationPlan::build(&other, Strategy::Fcs, Scheme::Pcc);
        let v = verify_plan(&g, &plan, &VerifierLimits::default());
        assert!(!v.sites_ok, "plan built for a different graph");
        assert!(!v.is_ok());
    }

    #[test]
    fn enumeration_caps_mark_the_verdict_bounded() {
        let g = diamond();
        let plan = InstrumentationPlan::build(&g, Strategy::Incremental, Scheme::Pcc);
        let v = verify_plan(
            &g,
            &plan,
            &VerifierLimits {
                max_depth: 64,
                max_paths: 1,
            },
        );
        assert!(v.bounded);
    }
}

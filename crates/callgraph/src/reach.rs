//! Reachability analysis over call graphs.
//!
//! The Targeted-Call-Site optimization (paper Section IV-A) needs to know, for
//! every call site `(m, n)`, whether it *can reach* a target function: either
//! `n` is itself a target, or some chain of calls starting in `n` invokes a
//! target. [`Reachability`] precomputes this with one backward breadth-first
//! search per query set, handling cycles (recursion) naturally.

use crate::graph::{CallGraph, EdgeId, FuncId};
use std::collections::VecDeque;

/// Precomputed answer to "which nodes/edges can reach a given function set?".
///
/// Construct with [`Reachability::to_targets`] (reaching the graph's own
/// target set) or [`Reachability::to_set`] (an arbitrary set, used per-target
/// by the Incremental strategy).
#[derive(Debug, Clone)]
pub struct Reachability {
    /// `node_reaches[f]` — `f` is in the set, or can call into it.
    node_reaches: Vec<bool>,
}

impl Reachability {
    /// Reachability to the graph's declared target functions.
    pub fn to_targets(graph: &CallGraph) -> Self {
        Self::to_set(graph, graph.targets())
    }

    /// Reachability to an arbitrary set of functions.
    ///
    /// A function "reaches" the set if it is a member, or if one of its call
    /// sites calls a function that reaches the set. Back edges (recursion) are
    /// handled by the visited set of the backward BFS.
    pub fn to_set(graph: &CallGraph, set: &[FuncId]) -> Self {
        let mut node_reaches = vec![false; graph.func_count()];
        let mut queue = VecDeque::new();
        for &t in set {
            if !node_reaches[t.index()] {
                node_reaches[t.index()] = true;
                queue.push_back(t);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &e in &graph.func(n).in_edges {
                let m = graph.edge(e).caller;
                if !node_reaches[m.index()] {
                    node_reaches[m.index()] = true;
                    queue.push_back(m);
                }
            }
        }
        Self { node_reaches }
    }

    /// Whether function `f` is in the set or can transitively call into it.
    pub fn node_reaches(&self, f: FuncId) -> bool {
        self.node_reaches[f.index()]
    }

    /// Whether call site `e` can reach the set: true iff the callee reaches.
    pub fn edge_reaches(&self, graph: &CallGraph, e: EdgeId) -> bool {
        self.node_reaches(graph.edge(e).callee)
    }

    /// Out-edges of `f` that reach the set.
    pub fn reaching_out_edges(&self, graph: &CallGraph, f: FuncId) -> Vec<EdgeId> {
        graph
            .func(f)
            .out_edges
            .iter()
            .copied()
            .filter(|&e| self.edge_reaches(graph, e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraphBuilder;

    /// main -> a -> malloc; main -> b (dead end).
    fn diamond() -> (CallGraph, [FuncId; 4], [EdgeId; 3]) {
        let mut bld = CallGraphBuilder::new();
        let main = bld.func("main");
        let a = bld.func("a");
        let b = bld.func("b");
        let malloc = bld.target("malloc");
        let e_ma = bld.call(main, a);
        let e_mb = bld.call(main, b);
        let e_am = bld.call(a, malloc);
        (bld.build(), [main, a, b, malloc], [e_ma, e_mb, e_am])
    }

    #[test]
    fn basic_reachability() {
        let (g, [main, a, b, malloc], [e_ma, e_mb, e_am]) = diamond();
        let r = Reachability::to_targets(&g);
        assert!(r.node_reaches(main));
        assert!(r.node_reaches(a));
        assert!(!r.node_reaches(b));
        assert!(r.node_reaches(malloc));
        assert!(r.edge_reaches(&g, e_ma));
        assert!(!r.edge_reaches(&g, e_mb));
        assert!(r.edge_reaches(&g, e_am));
        assert_eq!(r.node_reaches.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn reaching_out_edges_filters() {
        let (g, [main, ..], [e_ma, _e_mb, _]) = diamond();
        let r = Reachability::to_targets(&g);
        assert_eq!(r.reaching_out_edges(&g, main), vec![e_ma]);
    }

    #[test]
    fn empty_target_set_reaches_nothing() {
        let (g, funcs, _) = diamond();
        let r = Reachability::to_set(&g, &[]);
        for f in funcs {
            assert!(!r.node_reaches(f));
        }
    }

    #[test]
    fn recursion_terminates_and_reaches() {
        // f <-> g mutual recursion, g -> malloc.
        let mut bld = CallGraphBuilder::new();
        let f = bld.func("f");
        let g_ = bld.func("g");
        let m = bld.target("malloc");
        bld.call(f, g_);
        bld.call(g_, f);
        bld.call(g_, m);
        let g = bld.build();
        let r = Reachability::to_targets(&g);
        assert!(r.node_reaches(f));
        assert!(r.node_reaches(g_));
    }

    #[test]
    fn self_loop_on_target() {
        let mut bld = CallGraphBuilder::new();
        let m = bld.target("malloc");
        let e = bld.call(m, m);
        let g = bld.build();
        let r = Reachability::to_targets(&g);
        assert!(r.node_reaches(m));
        assert!(r.edge_reaches(&g, e));
    }

    #[test]
    fn per_target_sets_differ() {
        // main -> t1, main -> x -> t2.
        let mut bld = CallGraphBuilder::new();
        let main = bld.func("main");
        let x = bld.func("x");
        let t1 = bld.target("t1");
        let t2 = bld.target("t2");
        bld.call(main, t1);
        bld.call(main, x);
        bld.call(x, t2);
        let g = bld.build();

        let r1 = Reachability::to_set(&g, &[t1]);
        assert!(r1.node_reaches(main));
        assert!(!r1.node_reaches(x));

        let r2 = Reachability::to_set(&g, &[t2]);
        assert!(r2.node_reaches(main));
        assert!(r2.node_reaches(x));
        assert!(!r2.node_reaches(t1));
    }
}

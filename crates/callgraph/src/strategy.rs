//! Instrumentation-site selection strategies (paper Section IV, Algorithm 1).
//!
//! Each [`Strategy`] maps a [`CallGraph`] to the [`EdgeSet`] of call sites
//! that must carry encoding instrumentation. The guarantee that matters for
//! HeapTherapy+ is *distinguishability*: two different calling contexts that
//! end at the same target function must execute different sequences of
//! instrumented call sites (so that an injective encoding scheme assigns them
//! different CCIDs). See the property tests at the bottom of this module.

use crate::graph::{CallGraph, EdgeId, FuncId};
use crate::reach::Reachability;
use std::fmt;

/// A set of call-site edges, represented as a dense bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSet {
    bits: Vec<bool>,
}

impl EdgeSet {
    /// An empty set sized for `graph`.
    pub fn empty(graph: &CallGraph) -> Self {
        Self {
            bits: vec![false; graph.edge_count()],
        }
    }

    /// The full set: every edge of `graph`.
    pub fn full(graph: &CallGraph) -> Self {
        Self {
            bits: vec![true; graph.edge_count()],
        }
    }

    /// Inserts an edge. Returns whether it was newly inserted.
    pub fn insert(&mut self, e: EdgeId) -> bool {
        let was = self.bits[e.index()];
        self.bits[e.index()] = true;
        !was
    }

    /// Whether the set contains `e`.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.bits[e.index()]
    }

    /// Number of edges in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        !self.bits.iter().any(|&b| b)
    }

    /// Iterates over member edges in id order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &EdgeSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(&a, &b)| !a || b)
    }
}

impl fmt::Display for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// An instrumentation-site selection strategy.
///
/// Ordered from most to least instrumentation:
/// `Fcs ⊇ Tcs ⊇ Slim ⊇ Incremental` (verified by property test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Full-Call-Site: instrument every call site. This is what PCC, PCCE and
    /// DeltaPath do out of the box.
    Fcs,
    /// Targeted-Call-Site (Section IV-A): instrument only call sites that can
    /// reach a target function.
    Tcs,
    /// Slim (Section IV-B): among TCS sites, instrument only call sites in
    /// *branching* nodes — nodes with two or more outgoing edges that reach a
    /// target. Call sites in non-branching nodes cannot affect
    /// distinguishability.
    ///
    /// Distinguishability of Slim (and Incremental) relies on the program
    /// having a single entry point per thread: two distinct contexts then
    /// share a first divergence node, which is by construction branching. This
    /// holds for real programs (`main` / a thread start routine).
    Slim,
    /// Incremental (Section IV-C, Algorithm 1): key contexts by
    /// `(target_fun, CCID)` so only *true* branching nodes — nodes with two or
    /// more outgoing edges reaching the *same* target — need instrumentation.
    Incremental,
}

impl Strategy {
    /// All strategies, from most to least instrumentation.
    pub const ALL: [Strategy; 4] = [
        Strategy::Fcs,
        Strategy::Tcs,
        Strategy::Slim,
        Strategy::Incremental,
    ];

    /// A short lowercase name (`"fcs"`, `"tcs"`, `"slim"`, `"incremental"`).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Fcs => "fcs",
            Strategy::Tcs => "tcs",
            Strategy::Slim => "slim",
            Strategy::Incremental => "incremental",
        }
    }

    /// Whether this strategy distinguishes contexts per target function (so
    /// the runtime key is `(target_fun, CCID)` rather than `CCID` alone).
    pub fn keys_by_target(self) -> bool {
        matches!(self, Strategy::Incremental)
    }

    /// Computes the set of call sites to instrument for `graph`.
    ///
    /// Targets are taken from [`CallGraph::targets`]. With an empty target
    /// set, every strategy except [`Strategy::Fcs`] selects nothing.
    pub fn select(self, graph: &CallGraph) -> EdgeSet {
        match self {
            Strategy::Fcs => EdgeSet::full(graph),
            Strategy::Tcs => tcs(graph),
            Strategy::Slim => slim(graph),
            Strategy::Incremental => incremental(graph),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Targeted-Call-Site: edges whose callee is a target or can reach one.
fn tcs(graph: &CallGraph) -> EdgeSet {
    let reach = Reachability::to_targets(graph);
    let mut set = EdgeSet::empty(graph);
    for e in graph.edge_ids() {
        if reach.edge_reaches(graph, e) {
            set.insert(e);
        }
    }
    set
}

/// Slim: TCS edges whose caller has ≥ 2 target-reaching out-edges.
fn slim(graph: &CallGraph) -> EdgeSet {
    let reach = Reachability::to_targets(graph);
    let mut set = EdgeSet::empty(graph);
    for f in graph.func_ids() {
        let reaching = reach.reaching_out_edges(graph, f);
        if reaching.len() >= 2 {
            for e in reaching {
                set.insert(e);
            }
        }
    }
    set
}

/// Incremental (Algorithm 1): for each target `t`, instrument the outgoing
/// edges of every *true branching node relative to `t`* — a node with two or
/// more outgoing edges that reach `t`. The union over all targets is the
/// instrumentation set; nodes whose multiple out-edges each reach *different*
/// targets (false branching nodes) contribute nothing.
fn incremental(graph: &CallGraph) -> EdgeSet {
    let mut set = EdgeSet::empty(graph);
    for &t in graph.targets() {
        let reach = Reachability::to_set(graph, &[t]);
        for f in graph.func_ids() {
            let reaching: Vec<EdgeId> = reach.reaching_out_edges(graph, f);
            if reaching.len() >= 2 {
                for e in reaching {
                    set.insert(e);
                }
            }
        }
    }
    set
}

/// Enumerates all acyclic calling contexts (edge paths) from any graph root to
/// any target function, capped at `max_paths` paths and `max_depth` edges.
///
/// Intended for analyses and tests — real programs are *executed*, not
/// enumerated. Recursive cycles are broken by refusing to revisit a function
/// already on the current path.
pub fn enumerate_contexts(
    graph: &CallGraph,
    max_depth: usize,
    max_paths: usize,
) -> Vec<(FuncId, Vec<EdgeId>)> {
    let mut out = Vec::new();
    let roots = graph.roots();
    let mut path: Vec<EdgeId> = Vec::new();
    let mut on_stack = vec![false; graph.func_count()];
    for root in roots {
        dfs(
            graph,
            root,
            &mut path,
            &mut on_stack,
            max_depth,
            max_paths,
            &mut out,
        );
    }
    out
}

fn dfs(
    graph: &CallGraph,
    f: FuncId,
    path: &mut Vec<EdgeId>,
    on_stack: &mut [bool],
    max_depth: usize,
    max_paths: usize,
    out: &mut Vec<(FuncId, Vec<EdgeId>)>,
) {
    if out.len() >= max_paths {
        return;
    }
    if graph.is_target(f) && !path.is_empty() {
        out.push((f, path.clone()));
        return; // targets are leaves of interest; allocation APIs call nothing
    }
    if path.len() >= max_depth {
        return;
    }
    on_stack[f.index()] = true;
    for &e in &graph.func(f).out_edges {
        let callee = graph.edge(e).callee;
        if on_stack[callee.index()] {
            continue;
        }
        path.push(e);
        dfs(graph, callee, path, on_stack, max_depth, max_paths, out);
        path.pop();
        if out.len() >= max_paths {
            break;
        }
    }
    on_stack[f.index()] = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraphBuilder;
    use std::collections::HashMap;

    /// The example graph of paper Figure 2.
    ///
    /// Edges: A→B, A→C, B→F, C→E, C→F, E→T1, F→T1, F→T2, D→H, H→I.
    /// Targets: T1, T2. D/H/I form a component that cannot reach any target.
    struct Fig2 {
        g: CallGraph,
        ab: EdgeId,
        ac: EdgeId,
        bf: EdgeId,
        ce: EdgeId,
        cf: EdgeId,
        et1: EdgeId,
        ft1: EdgeId,
        ft2: EdgeId,
        dh: EdgeId,
        hi: EdgeId,
    }

    fn figure2() -> Fig2 {
        let mut b = CallGraphBuilder::new();
        let a = b.func("A");
        let bb = b.func("B");
        let c = b.func("C");
        let d = b.func("D");
        let e = b.func("E");
        let f = b.func("F");
        let h = b.func("H");
        let i = b.func("I");
        let t1 = b.target("T1");
        let t2 = b.target("T2");
        let ab = b.call(a, bb);
        let ac = b.call(a, c);
        let bf = b.call(bb, f);
        let ce = b.call(c, e);
        let cf = b.call(c, f);
        let et1 = b.call(e, t1);
        let ft1 = b.call(f, t1);
        let ft2 = b.call(f, t2);
        let dh = b.call(d, h);
        let hi = b.call(h, i);
        Fig2 {
            g: b.build(),
            ab,
            ac,
            bf,
            ce,
            cf,
            et1,
            ft1,
            ft2,
            dh,
            hi,
        }
    }

    #[test]
    fn figure2_fcs_selects_everything() {
        let fig = figure2();
        let set = Strategy::Fcs.select(&fig.g);
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn figure2_tcs_prunes_dh_and_hi() {
        let fig = figure2();
        let set = Strategy::Tcs.select(&fig.g);
        assert_eq!(set.len(), 8);
        assert!(!set.contains(fig.dh));
        assert!(!set.contains(fig.hi));
        for e in [
            fig.ab, fig.ac, fig.bf, fig.ce, fig.cf, fig.et1, fig.ft1, fig.ft2,
        ] {
            assert!(set.contains(e), "TCS should keep {e}");
        }
    }

    #[test]
    fn figure2_slim_excludes_non_branching_b_and_e() {
        let fig = figure2();
        let set = Strategy::Slim.select(&fig.g);
        // B and E each have a single reaching out-edge: excluded.
        assert!(!set.contains(fig.bf));
        assert!(!set.contains(fig.et1));
        // A, C, F are branching: included.
        for e in [fig.ab, fig.ac, fig.ce, fig.cf, fig.ft1, fig.ft2] {
            assert!(set.contains(e), "Slim should keep {e}");
        }
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn figure2_incremental_keeps_only_true_branching_nodes() {
        // Paper: "only the call sites that correspond to AB, AC, CE, CF need
        // to be instrumented". F is a *false* branching node (its two
        // out-edges reach different targets) and is pruned.
        let fig = figure2();
        let set = Strategy::Incremental.select(&fig.g);
        assert_eq!(set.len(), 4);
        for e in [fig.ab, fig.ac, fig.ce, fig.cf] {
            assert!(set.contains(e), "Incremental should keep {e}");
        }
        assert!(!set.contains(fig.ft1));
        assert!(!set.contains(fig.ft2));
    }

    #[test]
    fn strategy_sets_are_nested_on_figure2() {
        let fig = figure2();
        let sets: Vec<EdgeSet> = Strategy::ALL.iter().map(|s| s.select(&fig.g)).collect();
        for w in sets.windows(2) {
            assert!(w[1].is_subset(&w[0]));
        }
    }

    #[test]
    fn empty_targets_only_fcs_instruments() {
        let mut b = CallGraphBuilder::new();
        let f = b.func("f");
        let g_ = b.func("g");
        b.call(f, g_);
        let g = b.build();
        assert_eq!(Strategy::Fcs.select(&g).len(), 1);
        assert_eq!(Strategy::Tcs.select(&g).len(), 0);
        assert_eq!(Strategy::Slim.select(&g).len(), 0);
        assert_eq!(Strategy::Incremental.select(&g).len(), 0);
    }

    #[test]
    fn recursion_is_handled() {
        // main -> f, f -> f (self recursion), f -> malloc, main -> g -> malloc.
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let f = b.func("f");
        let g_ = b.func("g");
        let m = b.target("malloc");
        let e_mf = b.call(main, f);
        let e_ff = b.call(f, f);
        let e_fm = b.call(f, m);
        let e_mg = b.call(main, g_);
        let e_gm = b.call(g_, m);
        let g = b.build();

        let tcs = Strategy::Tcs.select(&g);
        for e in [e_mf, e_ff, e_fm, e_mg, e_gm] {
            assert!(tcs.contains(e));
        }
        // f has two reaching out-edges (f->f and f->malloc): branching.
        let slim = Strategy::Slim.select(&g);
        assert!(slim.contains(e_ff) && slim.contains(e_fm));
        // Incremental also keeps them (both reach the same target malloc).
        let inc = Strategy::Incremental.select(&g);
        assert!(inc.contains(e_ff) && inc.contains(e_fm));
        assert!(inc.contains(e_mf) && inc.contains(e_mg));
    }

    #[test]
    fn enumerate_contexts_on_figure2() {
        let fig = figure2();
        let ctxs = enumerate_contexts(&fig.g, 16, 1024);
        // Contexts: A-B-F-T1, A-B-F-T2, A-C-E-T1, A-C-F-T1, A-C-F-T2.
        assert_eq!(ctxs.len(), 5);
        let to_t2: Vec<_> = ctxs
            .iter()
            .filter(|(t, _)| fig.g.func(*t).name == "T2")
            .collect();
        assert_eq!(to_t2.len(), 2);
    }

    #[test]
    fn edge_set_display_and_ops() {
        let fig = figure2();
        let mut s = EdgeSet::empty(&fig.g);
        assert!(s.is_empty());
        assert!(s.insert(fig.ab));
        assert!(!s.insert(fig.ab));
        assert_eq!(s.len(), 1);
        assert_eq!(s.to_string(), "{e0}");
        assert!(s.is_subset(&EdgeSet::full(&fig.g)));
    }

    /// Distinguishability: for every pair of distinct contexts (reaching the
    /// same target under Incremental; any targets under Slim/Tcs/Fcs), the
    /// subsequences of instrumented edges differ.
    fn assert_distinguishable(g: &CallGraph, strategy: Strategy) {
        let set = strategy.select(g);
        let ctxs = enumerate_contexts(g, 24, 4096);
        let mut seen: HashMap<(Option<FuncId>, Vec<EdgeId>), Vec<EdgeId>> = HashMap::new();
        for (target, path) in ctxs {
            let key_target = if strategy.keys_by_target() {
                Some(target)
            } else {
                None
            };
            let projected: Vec<EdgeId> =
                path.iter().copied().filter(|&e| set.contains(e)).collect();
            if let Some(prev) = seen.insert((key_target, projected.clone()), path.clone()) {
                panic!(
                    "strategy {strategy}: contexts {prev:?} and {path:?} \
                     project to the same instrumented sequence {projected:?}"
                );
            }
        }
    }

    #[test]
    fn figure2_all_strategies_distinguish() {
        let fig = figure2();
        for s in Strategy::ALL {
            assert_distinguishable(&fig.g, s);
        }
    }

    mod proptests {
        use super::{assert_distinguishable, CallGraph, CallGraphBuilder, FuncId, Strategy};
        use crate::reach::Reachability;
        use proptest::prelude::{any, proptest, Strategy as PropStrategy};
        use proptest::{prop_assert, prop_assert_eq};

        /// Builds a random layered DAG: `layers` layers of up to `width`
        /// functions; edges go from layer i to layer i+1 (plus some skips);
        /// the final layer holds 1-3 target functions.
        fn arb_dag() -> impl PropStrategy<Value = CallGraph> {
            (2usize..6, 1usize..4, any::<u64>()).prop_map(|(layers, width, seed)| {
                let mut rng = seed;
                let mut next = move || {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    rng >> 33
                };
                let mut b = CallGraphBuilder::new();
                // Single entry point: the distinguishability guarantees of
                // Slim/Incremental require it (see `Strategy` docs).
                let main = b.func("main");
                let mut layer_funcs: Vec<Vec<FuncId>> = Vec::new();
                for l in 0..layers {
                    let n = 1 + (next() as usize) % width;
                    let mut fs = Vec::new();
                    for i in 0..n {
                        fs.push(b.func(format!("L{l}_{i}")));
                    }
                    layer_funcs.push(fs);
                }
                let ntargets = 1 + (next() as usize) % 3;
                let mut targets = Vec::new();
                for i in 0..ntargets {
                    targets.push(b.target(format!("T{i}")));
                }
                layer_funcs.push(targets);
                let mut in_degree = vec![0usize; b.func_count()];
                // Connect each function to 1-3 functions in later layers.
                for l in 0..layer_funcs.len() - 1 {
                    for i in 0..layer_funcs[l].len() {
                        let f = layer_funcs[l][i];
                        let fanout = 1 + (next() as usize) % 3;
                        for _ in 0..fanout {
                            let tl = l + 1 + (next() as usize) % (layer_funcs.len() - l - 1);
                            let cands = &layer_funcs[tl];
                            let callee = cands[(next() as usize) % cands.len()];
                            b.call(f, callee);
                            in_degree[callee.index()] += 1;
                        }
                    }
                }
                // Single entry point: main calls every otherwise-uncalled
                // function, so no second root exists.
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
            fn nesting_holds(g in arb_dag()) {
                let fcs = Strategy::Fcs.select(&g);
                let tcs = Strategy::Tcs.select(&g);
                let slim = Strategy::Slim.select(&g);
                let inc = Strategy::Incremental.select(&g);
                prop_assert!(tcs.is_subset(&fcs));
                prop_assert!(slim.is_subset(&tcs));
                prop_assert!(inc.is_subset(&slim));
            }

            #[test]
            fn all_strategies_distinguish(g in arb_dag()) {
                for s in Strategy::ALL {
                    assert_distinguishable(&g, s);
                }
            }

            #[test]
            fn tcs_edges_all_reach(g in arb_dag()) {
                let tcs = Strategy::Tcs.select(&g);
                let r = Reachability::to_targets(&g);
                for e in g.edge_ids() {
                    prop_assert_eq!(tcs.contains(e), r.edge_reaches(&g, e));
                }
            }
        }
    }
}

//! Instrumentation plans: strategy + scheme + per-site constants.

use crate::scheme::{splitmix64, Scheme};
use ht_callgraph::{CallGraph, EdgeId, EdgeSet, FuncId, Reachability, Strategy};

/// Estimated machine-code bytes added per instrumented call site.
///
/// PCC inserts a multiply-add on a thread-local plus the prologue load; ~10
/// bytes of x86-64 is the paper's ballpark. Used by the Table III
/// size-increase proxy.
pub const BYTES_PER_SITE: usize = 10;

/// A complete description of how a program is instrumented for
/// calling-context encoding.
///
/// Binds together the site-selection [`Strategy`], the update [`Scheme`], the
/// selected [`EdgeSet`], and the per-site constants. Construction is
/// deterministic: the same graph, strategy and scheme always produce the same
/// plan — a requirement for patches (which embed CCIDs) to remain valid
/// across program restarts. Plans are rebuilt, never loaded: only
/// [`build`](Self::build) and [`uninstrumented`](Self::uninstrumented)
/// construct one, so every plan holds one constant slot per edge of its
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrumentationPlan {
    strategy: Strategy,
    scheme: Scheme,
    sites: EdgeSet,
    /// `constants[edge] = Some(c)` iff the edge is instrumented.
    constants: Vec<Option<u64>>,
    /// Whether CCIDs under this plan uniquely identify contexts (and, for
    /// decodable schemes, decode). False for PCC and for Additive plans
    /// whose target-reaching subgraph is recursive.
    precise: bool,
    /// For precise Additive plans: the Ball–Larus context count per
    /// function (indexed by `FuncId`), 0 for functions that cannot reach a
    /// target. Empty otherwise.
    num_contexts: Vec<u64>,
}

impl InstrumentationPlan {
    /// Builds a plan for `graph` under `strategy` and `scheme`.
    ///
    /// For [`Scheme::Pcc`], each instrumented site gets a SplitMix64 constant
    /// derived from its edge id. For [`Scheme::Additive`], the one precise
    /// scheme, each instrumented site gets its Ball–Larus offset over the
    /// target-reaching sub-DAG; a recursive (or overflowing) subgraph has no
    /// such numbering, and the plan falls back to the PCC constants and is
    /// not precise.
    pub fn build(graph: &CallGraph, strategy: Strategy, scheme: Scheme) -> Self {
        let sites = strategy.select(graph);
        let numbering = match scheme {
            Scheme::Pcc => None,
            Scheme::Additive => additive_numbering(graph, &sites),
        };
        let precise = numbering.is_some();
        let (constants, num_contexts) = numbering.unwrap_or_else(|| {
            let mut constants = vec![None; graph.edge_count()];
            for e in sites.iter() {
                constants[e.index()] = Some(splitmix64(e.0 as u64));
            }
            (constants, Vec::new())
        });
        Self {
            strategy,
            scheme,
            sites,
            constants,
            precise,
            num_contexts,
        }
    }

    /// A baseline plan with *no* instrumented sites — the "no encoding"
    /// configuration every overhead measurement normalizes against.
    ///
    /// The nominal strategy is reported as [`Strategy::Incremental`]; no
    /// site carries a constant, so the encoder never updates `V`.
    pub fn uninstrumented(graph: &CallGraph) -> Self {
        Self {
            strategy: Strategy::Incremental,
            scheme: Scheme::Pcc,
            sites: EdgeSet::empty(graph),
            constants: vec![None; graph.edge_count()],
            precise: false,
            num_contexts: Vec::new(),
        }
    }

    /// The site-selection strategy of this plan.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The update scheme of this plan.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The instrumented call sites.
    pub fn sites(&self) -> &EdgeSet {
        &self.sites
    }

    /// Whether CCIDs under this plan identify contexts *exactly*: injective
    /// and decodable. True only for a [`Scheme::Additive`] plan whose
    /// target-reaching subgraph is acyclic, the restriction PCCE's decoder
    /// shares.
    pub fn is_precise(&self) -> bool {
        self.precise
    }

    /// For precise Additive plans: the number of distinct calling contexts
    /// from `f` to any target (Ball–Larus count); 0 if `f` cannot reach a
    /// target or the plan is not additive-precise.
    pub fn num_contexts(&self, f: FuncId) -> u64 {
        self.num_contexts.get(f.index()).copied().unwrap_or(0)
    }

    /// The constant for an instrumented site, or `None` if not instrumented.
    #[inline]
    pub fn constant(&self, e: EdgeId) -> Option<u64> {
        self.constants[e.index()]
    }

    /// Number of instrumented call sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Estimated added code size in bytes (Table III proxy).
    pub(crate) fn static_size_bytes(&self) -> usize {
        self.site_count() * BYTES_PER_SITE
    }

    /// Code-size increase relative to an uninstrumented program whose size is
    /// approximated as `base_bytes`, in percent.
    pub fn size_increase_percent(&self, base_bytes: usize) -> f64 {
        if base_bytes == 0 {
            return 0.0;
        }
        100.0 * self.static_size_bytes() as f64 / base_bytes as f64
    }
}

/// Ball–Larus numbering over the target-reaching sub-DAG.
///
/// Returns per-edge constants (offsets) for instrumented sites and the
/// per-function context counts, or `None` if the relevant subgraph is
/// recursive or the counts overflow `u64`.
fn additive_numbering(graph: &CallGraph, sites: &EdgeSet) -> Option<(Vec<Option<u64>>, Vec<u64>)> {
    let reach = Reachability::to_targets(graph);
    // Iterative DFS over relevant non-target nodes: postorder + cycle check.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = graph.func_count();
    let mut color = vec![Color::White; n];
    let mut postorder: Vec<FuncId> = Vec::new();
    for root in graph.func_ids() {
        if !reach.node_reaches(root) || color[root.index()] != Color::White {
            continue;
        }
        // (node, next out-edge index)
        let mut stack: Vec<(FuncId, usize)> = vec![(root, 0)];
        color[root.index()] = Color::Gray;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            // Targets terminate contexts: treat as leaves.
            let out = if graph.is_target(node) {
                &[][..]
            } else {
                &graph.func(node).out_edges[..]
            };
            let mut descended = false;
            while *idx < out.len() {
                let e = out[*idx];
                *idx += 1;
                let callee = graph.edge(e).callee;
                if !reach.node_reaches(callee) {
                    continue;
                }
                match color[callee.index()] {
                    Color::White => {
                        color[callee.index()] = Color::Gray;
                        stack.push((callee, 0));
                        descended = true;
                        break;
                    }
                    Color::Gray => return None, // recursion among relevant nodes
                    Color::Black => {}
                }
            }
            if !descended {
                color[node.index()] = Color::Black;
                postorder.push(node);
                stack.pop();
            }
        }
    }
    // Context counts in postorder (callees first).
    let mut counts = vec![0u64; n];
    for &f in &postorder {
        if graph.is_target(f) {
            counts[f.index()] = 1;
            continue;
        }
        let mut sum = 0u64;
        for &e in &graph.func(f).out_edges {
            let callee = graph.edge(e).callee;
            if reach.node_reaches(callee) {
                sum = sum.checked_add(counts[callee.index()])?;
            }
        }
        counts[f.index()] = sum;
    }
    // Offsets: every *relevant* out-edge advances the prefix (instrumented
    // or not), so sibling ranges stay disjoint; instrumented sites record
    // their prefix, non-relevant instrumented sites (FCS) get 0 — they can
    // never be live below a target invocation.
    let mut constants = vec![None; graph.edge_count()];
    for e in sites.iter() {
        constants[e.index()] = Some(0);
    }
    for f in graph.func_ids() {
        if !reach.node_reaches(f) || graph.is_target(f) {
            continue;
        }
        let mut prefix = 0u64;
        for &e in &graph.func(f).out_edges {
            let callee = graph.edge(e).callee;
            if !reach.node_reaches(callee) {
                continue;
            }
            if sites.contains(e) {
                constants[e.index()] = Some(prefix);
            }
            prefix = prefix.checked_add(counts[callee.index()])?;
        }
    }
    Some((constants, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::CallGraphBuilder;

    fn small() -> (CallGraph, [EdgeId; 3]) {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let w = b.func("w");
        let m = b.target("malloc");
        let e1 = b.call(main, w);
        let e2 = b.call(main, m);
        let e3 = b.call(w, m);
        (b.build(), [e1, e2, e3])
    }

    #[test]
    fn pcc_constants_only_on_instrumented_sites() {
        let (g, edges) = small();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Pcc);
        for e in edges {
            assert!(plan.constant(e).is_some());
        }
        assert_eq!(plan.site_count(), 3);
    }

    #[test]
    fn plans_are_deterministic() {
        let (g, _) = small();
        let a = InstrumentationPlan::build(&g, Strategy::Slim, Scheme::Pcc);
        let b = InstrumentationPlan::build(&g, Strategy::Slim, Scheme::Pcc);
        assert_eq!(a, b);
    }

    #[test]
    fn uninstrumented_sites_have_no_constant() {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let dead = b.func("dead");
        let m = b.target("malloc");
        let e_dead = b.call(main, dead);
        let e_m = b.call(main, m);
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Pcc);
        assert_eq!(plan.constant(e_dead), None);
        assert!(plan.constant(e_m).is_some());
    }

    #[test]
    fn static_size_accounting() {
        let (g, _) = small();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Pcc);
        assert_eq!(plan.static_size_bytes(), 3 * BYTES_PER_SITE);
        let pct = plan.size_increase_percent(3000);
        assert!((pct - 1.0).abs() < 1e-9);
        assert_eq!(plan.size_increase_percent(0), 0.0);
    }

    #[test]
    fn strategy_ordering_reflected_in_site_counts() {
        // Bigger example: FCS ≥ TCS ≥ Slim ≥ Incremental.
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let x = b.func("x");
        let y = b.func("y");
        let dead = b.func("dead");
        let t1 = b.target("malloc");
        let t2 = b.target("calloc");
        b.call(main, x);
        b.call(main, y);
        b.call(main, dead);
        b.call(x, t1);
        b.call(y, t1);
        b.call(y, t2);
        let g = b.build();
        let counts: Vec<usize> = Strategy::ALL
            .iter()
            .map(|&s| InstrumentationPlan::build(&g, s, Scheme::Pcc).site_count())
            .collect();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "{counts:?}");
        }
    }
}

//! Call-graph representation.
//!
//! A [`CallGraph`] is a multigraph: nodes are functions, edges are *call
//! sites*. Two distinct call sites from `f` to `g` are two distinct edges —
//! calling-context encoding distinguishes them, so the graph must too.

use std::fmt;

/// Identifier of a function node in a [`CallGraph`].
///
/// `FuncId`s are dense indices assigned by [`CallGraphBuilder`] in insertion
/// order; use them with [`CallGraph::func`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifier of a call-site edge in a [`CallGraph`].
///
/// Dense indices in insertion order; use them with [`CallGraph::edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl FuncId {
    /// The index of this function, usable with [`CallGraph::func`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index of this edge, usable with [`CallGraph::edge`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Per-function metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncInfo {
    /// Human-readable name (e.g. `"main"`, `"malloc"`).
    pub name: String,
    /// Whether this function is a *target* whose calling contexts are of
    /// interest (for heap patching: an allocation API).
    pub is_target: bool,
    /// Outgoing call sites, in call-site order within the function body.
    pub out_edges: Vec<EdgeId>,
    /// Incoming call sites.
    pub in_edges: Vec<EdgeId>,
}

/// Per-call-site metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// The calling function.
    pub caller: FuncId,
    /// The called function.
    pub callee: FuncId,
    /// Position of this call site among the caller's call sites (0-based).
    pub site_index: u32,
}

/// An immutable program call graph.
///
/// Build one with [`CallGraphBuilder`]. The graph may contain cycles
/// (recursion); all analyses in this crate handle back edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    funcs: Vec<FuncInfo>,
    edges: Vec<EdgeInfo>,
    targets: Vec<FuncId>,
}

impl CallGraph {
    /// Number of function nodes.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of call-site edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Metadata for a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn func(&self, id: FuncId) -> &FuncInfo {
        &self.funcs[id.index()]
    }

    /// Metadata for a call site.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn edge(&self, id: EdgeId) -> &EdgeInfo {
        &self.edges[id.index()]
    }

    /// All function ids, in insertion order.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// All edge ids, in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The target functions (allocation APIs), in insertion order.
    pub fn targets(&self) -> &[FuncId] {
        &self.targets
    }

    /// Whether `f` is a target function.
    pub fn is_target(&self, f: FuncId) -> bool {
        self.funcs[f.index()].is_target
    }

    /// Look up a function by name. `O(n)`; intended for tests and tooling.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Functions that are never called (graph roots, e.g. `main`).
    pub fn roots(&self) -> Vec<FuncId> {
        self.func_ids()
            .filter(|&f| self.func(f).in_edges.is_empty())
            .collect()
    }
}

/// Incremental builder for [`CallGraph`].
///
/// # Example
///
/// ```
/// use ht_callgraph::CallGraphBuilder;
///
/// let mut b = CallGraphBuilder::new();
/// let main = b.func("main");
/// let malloc = b.target("malloc");
/// b.call(main, malloc);
/// let g = b.build();
/// assert_eq!(g.func_count(), 2);
/// assert_eq!(g.targets(), &[malloc]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CallGraphBuilder {
    funcs: Vec<FuncInfo>,
    edges: Vec<EdgeInfo>,
    targets: Vec<FuncId>,
}

impl CallGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a non-target function and returns its id.
    pub fn func(&mut self, name: impl Into<String>) -> FuncId {
        self.add(name.into(), false)
    }

    /// Adds a *target* function (e.g. an allocation API) and returns its id.
    pub fn target(&mut self, name: impl Into<String>) -> FuncId {
        self.add(name.into(), true)
    }

    fn add(&mut self, name: String, is_target: bool) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(FuncInfo {
            name,
            is_target,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        });
        if is_target {
            self.targets.push(id);
        }
        id
    }

    /// Adds a call site from `caller` to `callee` and returns its edge id.
    ///
    /// Multiple call sites between the same pair of functions are distinct
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if either function id was not created by this builder.
    pub fn call(&mut self, caller: FuncId, callee: FuncId) -> EdgeId {
        assert!(caller.index() < self.funcs.len(), "unknown caller {caller}");
        assert!(callee.index() < self.funcs.len(), "unknown callee {callee}");
        let id = EdgeId(self.edges.len() as u32);
        let site_index = self.funcs[caller.index()].out_edges.len() as u32;
        self.edges.push(EdgeInfo {
            caller,
            callee,
            site_index,
        });
        self.funcs[caller.index()].out_edges.push(id);
        self.funcs[callee.index()].in_edges.push(id);
        id
    }

    /// Number of functions added so far.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Finalizes the graph.
    pub fn build(self) -> CallGraph {
        CallGraph {
            funcs: self.funcs,
            edges: self.edges,
            targets: self.targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CallGraphBuilder::new().build();
        assert_eq!(g.func_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.targets().is_empty());
        assert!(g.roots().is_empty());
    }

    #[test]
    fn single_call() {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let malloc = b.target("malloc");
        let e = b.call(main, malloc);
        let g = b.build();

        assert_eq!(g.edge(e).caller, main);
        assert_eq!(g.edge(e).callee, malloc);
        assert_eq!(g.edge(e).site_index, 0);
        assert!(g.is_target(malloc));
        assert!(!g.is_target(main));
        assert_eq!(g.roots(), vec![main]);
        assert_eq!(g.func(main).out_edges, vec![e]);
        assert_eq!(g.func(malloc).in_edges, vec![e]);
    }

    #[test]
    fn multi_edges_are_distinct_sites() {
        let mut b = CallGraphBuilder::new();
        let f = b.func("f");
        let m = b.target("malloc");
        let e0 = b.call(f, m);
        let e1 = b.call(f, m);
        let g = b.build();

        assert_ne!(e0, e1);
        assert_eq!(g.edge(e0).site_index, 0);
        assert_eq!(g.edge(e1).site_index, 1);
        assert_eq!(g.func(f).out_edges.len(), 2);
        assert_eq!(g.func(m).in_edges.len(), 2);
    }

    #[test]
    fn func_by_name_finds_first_match() {
        let mut b = CallGraphBuilder::new();
        let a = b.func("alpha");
        let _ = b.func("beta");
        let g = b.build();
        assert_eq!(g.func_by_name("alpha"), Some(a));
        assert_eq!(g.func_by_name("gamma"), None);
    }

    #[test]
    fn recursion_is_representable() {
        let mut b = CallGraphBuilder::new();
        let f = b.func("f");
        let e = b.call(f, f);
        let g = b.build();
        assert_eq!(g.edge(e).caller, g.edge(e).callee);
        // A self-recursive function is not a root: it has an incoming edge.
        assert!(g.roots().is_empty());
    }

    #[test]
    fn targets_in_insertion_order() {
        let mut b = CallGraphBuilder::new();
        let t1 = b.target("malloc");
        let _f = b.func("f");
        let t2 = b.target("calloc");
        let g = b.build();
        assert_eq!(g.targets(), &[t1, t2]);
    }

    #[test]
    #[should_panic(expected = "unknown callee")]
    fn call_with_foreign_id_panics() {
        let mut b1 = CallGraphBuilder::new();
        let f = b1.func("f");
        let mut b2 = CallGraphBuilder::new();
        let g = b2.func("g");
        let _ = g;
        // b1 has one function; FuncId(5) is out of range.
        b1.call(f, FuncId(5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(FuncId(3).to_string(), "f3");
        assert_eq!(EdgeId(7).to_string(), "e7");
    }
}

//! Runtime encoders: the O(1) encoding state machine and a stack-walking
//! baseline for comparison.

use crate::plan::InstrumentationPlan;
use crate::scheme::{splitmix64, Ccid};
use ht_callgraph::EdgeId;

/// The runtime half of calling-context encoding.
///
/// Feed it every call and return event; [`Encoder::current`] is then always
/// the CCID of the live context. Only *instrumented* sites update `V`
/// (costing one multiply-add, counted in [`Encoder::ops`]); the rest are
/// free — this is exactly where targeted encoding saves time over FCS.
///
/// The encoder mirrors PCC's save/restore semantics: each function activation
/// conceptually saves `V` in a local at its prologue and the caller's `V` is
/// re-derived from that local after the call, so `V` always reflects the
/// *current* stack, not the deepest one reached.
#[derive(Debug, Clone)]
pub struct Encoder<'p> {
    plan: &'p InstrumentationPlan,
    v: u64,
    /// Saved `V` per active call (instrumented or not), restored on return.
    frames: Vec<u64>,
    ops: u64,
}

impl<'p> Encoder<'p> {
    /// A fresh encoder at the program entry context (`V = 0`).
    pub fn new(plan: &'p InstrumentationPlan) -> Self {
        Self {
            plan,
            v: 0,
            frames: Vec::with_capacity(64),
            ops: 0,
        }
    }

    /// Records traversal of call site `e`.
    #[inline]
    pub fn on_call(&mut self, e: EdgeId) {
        self.frames.push(self.v);
        if let Some(c) = self.plan.constant(e) {
            self.v = self.plan.scheme().update(self.v, c);
            self.ops += 1;
        }
    }

    /// Records a return from the most recent call.
    ///
    /// # Panics
    ///
    /// Panics if there is no active call (unbalanced return).
    #[inline]
    pub fn on_return(&mut self) {
        self.v = self
            .frames
            .pop()
            .expect("Encoder::on_return without matching on_call");
    }

    /// The CCID of the current calling context.
    #[inline]
    pub fn current(&self) -> Ccid {
        Ccid(self.v)
    }

    /// Number of instrumentation updates executed so far — the dynamic
    /// overhead proxy used by the encoding benchmarks.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Resets to the entry context, clearing counters.
    pub fn reset(&mut self) {
        self.v = 0;
        self.frames.clear();
        self.ops = 0;
    }

    /// The plan this encoder executes.
    pub fn plan(&self) -> &'p InstrumentationPlan {
        self.plan
    }
}

/// Stack walking baseline (what `gdb`/`backtrace()` would do).
///
/// Maintains the explicit call stack and, on demand, hashes the entire stack
/// to produce a context ID. Each [`StackWalker::walk`] costs `O(depth)` —
/// compare with the encoder's `O(1)` read. Used by the ablation benchmark
/// contrasting encoding with per-allocation stack walks.
#[derive(Debug, Clone, Default)]
pub struct StackWalker {
    stack: Vec<EdgeId>,
    /// Total stack frames visited by `walk` calls — the cost proxy.
    frames_walked: u64,
}

impl StackWalker {
    /// An empty stack at program entry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records traversal of call site `e`.
    #[inline]
    pub fn on_call(&mut self, e: EdgeId) {
        self.stack.push(e);
    }

    /// Records a return.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    #[inline]
    pub fn on_return(&mut self) {
        self.stack
            .pop()
            .expect("StackWalker::on_return on empty stack");
    }

    /// Walks the stack and hashes every frame into a context ID.
    pub fn walk(&mut self) -> Ccid {
        self.frames_walked += self.stack.len() as u64;
        let mut h = 0xcbf29ce484222325u64;
        for e in &self.stack {
            h = splitmix64(h ^ e.0 as u64);
        }
        Ccid(h)
    }

    /// Total frames visited across all `walk` calls.
    pub fn frames_walked(&self) -> u64 {
        self.frames_walked
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use ht_callgraph::{CallGraph, CallGraphBuilder, Strategy};

    fn graph() -> (CallGraph, [EdgeId; 4]) {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let f = b.func("f");
        let g_ = b.func("g");
        let m = b.target("malloc");
        let e_mf = b.call(main, f);
        let e_mg = b.call(main, g_);
        let e_fm = b.call(f, m);
        let e_gm = b.call(g_, m);
        (b.build(), [e_mf, e_mg, e_fm, e_gm])
    }

    #[test]
    fn distinct_contexts_get_distinct_ccids() {
        let (g, [e_mf, e_mg, e_fm, e_gm]) = graph();
        for scheme in Scheme::ALL {
            for strategy in Strategy::ALL {
                let plan = InstrumentationPlan::build(&g, strategy, scheme);
                let mut enc = Encoder::new(&plan);
                enc.on_call(e_mf);
                enc.on_call(e_fm);
                let via_f = enc.current();
                enc.on_return();
                enc.on_return();
                enc.on_call(e_mg);
                enc.on_call(e_gm);
                let via_g = enc.current();
                assert_ne!(via_f, via_g, "{strategy}/{scheme}");
            }
        }
    }

    #[test]
    fn return_restores_previous_ccid() {
        let (g, [e_mf, _, e_fm, _]) = graph();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Pcc);
        let mut enc = Encoder::new(&plan);
        let entry = enc.current();
        enc.on_call(e_mf);
        let in_f = enc.current();
        enc.on_call(e_fm);
        enc.on_return();
        assert_eq!(enc.current(), in_f);
        enc.on_return();
        assert_eq!(enc.current(), entry);
        assert_eq!(enc.depth(), 0);
    }

    #[test]
    fn ops_counted_only_on_instrumented_sites() {
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let dead = b.func("dead");
        let m = b.target("malloc");
        let e_dead = b.call(main, dead);
        let e_m = b.call(main, m);
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Pcc);
        let mut enc = Encoder::new(&plan);
        enc.on_call(e_dead);
        assert_eq!(enc.ops(), 0);
        enc.on_return();
        enc.on_call(e_m);
        assert_eq!(enc.ops(), 1);
    }

    #[test]
    fn reset_restores_entry_state() {
        let (g, [e_mf, ..]) = graph();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Pcc);
        let mut enc = Encoder::new(&plan);
        enc.on_call(e_mf);
        enc.reset();
        assert_eq!(enc.current(), Ccid(0));
        assert_eq!(enc.ops(), 0);
        assert_eq!(enc.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "without matching on_call")]
    fn unbalanced_return_panics() {
        let (g, _) = graph();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Pcc);
        let mut enc = Encoder::new(&plan);
        enc.on_return();
    }

    #[test]
    fn stack_walker_costs_depth_per_walk() {
        let (_, [e_mf, _, e_fm, _]) = graph();
        let mut w = StackWalker::new();
        w.on_call(e_mf);
        w.on_call(e_fm);
        let id1 = w.walk();
        assert_eq!(w.frames_walked(), 2);
        let id2 = w.walk();
        assert_eq!(id1, id2);
        assert_eq!(w.frames_walked(), 4);
        w.on_return();
        let id3 = w.walk();
        assert_ne!(id1, id3);
        assert_eq!(w.depth(), 1);
    }

    #[test]
    fn stack_walker_distinguishes_orders() {
        let (_, [e_mf, e_mg, ..]) = graph();
        let mut w1 = StackWalker::new();
        w1.on_call(e_mf);
        w1.on_call(e_mg);
        let mut w2 = StackWalker::new();
        w2.on_call(e_mg);
        w2.on_call(e_mf);
        assert_ne!(w1.walk(), w2.walk());
    }

    #[test]
    fn encoder_matches_recursion_depths() {
        // Recursive f; each level of recursion yields a fresh CCID under FCS.
        let mut b = CallGraphBuilder::new();
        let main = b.func("main");
        let f = b.func("f");
        let m = b.target("malloc");
        let e_mf = b.call(main, f);
        let e_ff = b.call(f, f);
        let e_fm = b.call(f, m);
        let _ = e_fm;
        let g = b.build();
        let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Pcc);
        let mut enc = Encoder::new(&plan);
        enc.on_call(e_mf);
        let d1 = enc.current();
        enc.on_call(e_ff);
        let d2 = enc.current();
        enc.on_call(e_ff);
        let d3 = enc.current();
        assert_ne!(d1, d2);
        assert_ne!(d2, d3);
        enc.on_return();
        assert_eq!(enc.current(), d2);
    }
}

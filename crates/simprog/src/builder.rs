//! Ergonomic construction of modeled programs.

use crate::program::{Expr, Program, Sink, SlotId, Stmt};
use ht_callgraph::{CallGraphBuilder, FuncId};
use ht_patch::AllocFn;
use std::collections::HashMap;

/// Builder for [`Program`].
///
/// Functions are declared with [`ProgramBuilder::func`] (or
/// [`ProgramBuilder::entry`] for `main`), pointer slots with
/// [`ProgramBuilder::slot`], and bodies with [`ProgramBuilder::define`],
/// whose closure receives a [`BodyBuilder`]:
///
/// ```
/// use ht_patch::AllocFn;
/// use ht_simprog::{Expr, ProgramBuilder, Sink};
///
/// let mut pb = ProgramBuilder::new();
/// let main = pb.entry();
/// let helper = pb.func("helper");
/// let buf = pb.slot();
/// pb.define(main, |b| {
///     b.call(helper);
/// });
/// pb.define(helper, |b| {
///     b.alloc(buf, AllocFn::Malloc, Expr::Input(0));
///     b.write(buf, Expr::Const(0), Expr::Input(0), 0x41);
///     b.free(buf);
/// });
/// let prog = pb.build();
/// assert_eq!(prog.graph().func_count(), 3); // main, helper, malloc
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    cg: CallGraphBuilder,
    bodies: HashMap<FuncId, Vec<Stmt>>,
    entry: Option<FuncId>,
    slot_count: u32,
    alloc_nodes: HashMap<AllocFn, FuncId>,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the entry function `main` and records it as the entry point.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn entry(&mut self) -> FuncId {
        assert!(self.entry.is_none(), "entry already declared");
        let f = self.cg.func("main");
        self.entry = Some(f);
        f
    }

    /// Declares an ordinary function.
    pub fn func(&mut self, name: impl Into<String>) -> FuncId {
        self.cg.func(name)
    }

    /// Allocates a fresh pointer slot.
    pub fn slot(&mut self) -> SlotId {
        let s = SlotId(self.slot_count);
        self.slot_count += 1;
        s
    }

    /// Allocates `n` fresh pointer slots.
    pub fn slots(&mut self, n: u32) -> Vec<SlotId> {
        (0..n).map(|_| self.slot()).collect()
    }

    /// The call-graph node for an allocation API, created on first use (so
    /// unused APIs never appear as spurious roots).
    pub(crate) fn alloc_node(&mut self, fun: AllocFn) -> FuncId {
        if let Some(&f) = self.alloc_nodes.get(&fun) {
            return f;
        }
        let f = self.cg.target(fun.name());
        self.alloc_nodes.insert(fun, f);
        f
    }

    /// Defines (or extends) the body of `f`.
    pub fn define(&mut self, f: FuncId, build: impl FnOnce(&mut BodyBuilder<'_>)) {
        let mut bb = BodyBuilder {
            pb: self,
            f,
            stmts: Vec::new(),
        };
        build(&mut bb);
        let stmts = bb.stmts;
        self.bodies.entry(f).or_default().extend(stmts);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if no entry was declared.
    pub fn build(self) -> Program {
        let entry = self.entry.expect("ProgramBuilder::entry was never called");
        let graph = self.cg.build();
        let mut bodies = vec![Vec::new(); graph.func_count()];
        for (f, stmts) in self.bodies {
            bodies[f.index()] = stmts;
        }
        let alloc_nodes = self
            .alloc_nodes
            .into_iter()
            .map(|(fun, f)| (f, fun))
            .collect();
        Program {
            graph,
            bodies,
            entry,
            slot_count: self.slot_count,
            alloc_nodes,
        }
    }
}

/// Statement-level builder for one function body.
///
/// Created by [`ProgramBuilder::define`]. Call-site edges are registered in
/// the call graph as statements are appended, so the instrumentation analyses
/// see exactly the call sites the interpreter will execute.
#[derive(Debug)]
pub struct BodyBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    f: FuncId,
    stmts: Vec<Stmt>,
}

impl BodyBuilder<'_> {
    /// Appends a call to `callee`.
    pub fn call(&mut self, callee: FuncId) {
        let e = self.pb.cg.call(self.f, callee);
        self.stmts.push(Stmt::Call(e));
    }

    /// Appends an indirect (virtual) call: the runtime selector picks one
    /// of `candidates`. Each candidate becomes a distinct call-graph edge.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn call_virtual(&mut self, candidates: &[FuncId], selector: impl Into<Expr>) {
        assert!(!candidates.is_empty(), "virtual call needs candidates");
        let edges = candidates
            .iter()
            .map(|&callee| self.pb.cg.call(self.f, callee))
            .collect();
        self.stmts.push(Stmt::CallVirtual {
            edges,
            selector: selector.into(),
        });
    }

    /// Appends an allocation through `fun` into `slot`.
    ///
    /// For [`AllocFn::Memalign`] use [`BodyBuilder::memalign`] to control the
    /// alignment (this method uses 16).
    pub fn alloc(&mut self, slot: SlotId, fun: AllocFn, size: impl Into<Expr>) {
        let node = self.pb.alloc_node(fun);
        let e = self.pb.cg.call(self.f, node);
        self.stmts.push(Stmt::Alloc {
            edge: e,
            slot,
            fun,
            size: size.into(),
            align: Expr::Const(16),
        });
    }

    /// Appends a `memalign(align, size)` into `slot`.
    pub fn memalign(&mut self, slot: SlotId, align: impl Into<Expr>, size: impl Into<Expr>) {
        let node = self.pb.alloc_node(AllocFn::Memalign);
        let e = self.pb.cg.call(self.f, node);
        self.stmts.push(Stmt::Alloc {
            edge: e,
            slot,
            fun: AllocFn::Memalign,
            size: size.into(),
            align: align.into(),
        });
    }

    /// Appends a `realloc(slot, new_size)` updating `slot` in place.
    pub fn realloc(&mut self, slot: SlotId, new_size: impl Into<Expr>) {
        let node = self.pb.alloc_node(AllocFn::Realloc);
        let e = self.pb.cg.call(self.f, node);
        self.stmts.push(Stmt::Realloc {
            edge: e,
            slot,
            new_size: new_size.into(),
        });
    }

    /// Appends a `free(slot)` (the slot keeps its dangling address).
    pub fn free(&mut self, slot: SlotId) {
        self.stmts.push(Stmt::Free { slot });
    }

    /// Appends `slot = NULL` (defensive nulling).
    pub fn clear(&mut self, slot: SlotId) {
        self.stmts.push(Stmt::Clear { slot });
    }

    /// Appends a write of `len` copies of `byte` at `slot + offset`.
    pub fn write(&mut self, slot: SlotId, offset: impl Into<Expr>, len: impl Into<Expr>, byte: u8) {
        self.stmts.push(Stmt::Write {
            slot,
            offset: offset.into(),
            len: len.into(),
            byte,
        });
    }

    /// Appends `memcpy(dst+dst_off, src+src_off, len)`.
    pub fn copy(
        &mut self,
        src: SlotId,
        src_off: impl Into<Expr>,
        dst: SlotId,
        dst_off: impl Into<Expr>,
        len: impl Into<Expr>,
    ) {
        self.stmts.push(Stmt::Copy {
            src,
            src_off: src_off.into(),
            dst,
            dst_off: dst_off.into(),
            len: len.into(),
        });
    }

    /// Appends a read of `len` bytes at `slot + offset` flowing to `sink`.
    pub fn read(
        &mut self,
        slot: SlotId,
        offset: impl Into<Expr>,
        len: impl Into<Expr>,
        sink: Sink,
    ) {
        self.stmts.push(Stmt::Read {
            slot,
            offset: offset.into(),
            len: len.into(),
            sink,
        });
    }

    /// Appends a loop running `times` iterations of the nested body.
    pub fn repeat(&mut self, times: impl Into<Expr>, build: impl FnOnce(&mut BodyBuilder<'_>)) {
        let mut child = BodyBuilder {
            pb: self.pb,
            f: self.f,
            stmts: Vec::new(),
        };
        build(&mut child);
        let body = child.stmts;
        self.stmts.push(Stmt::Repeat {
            times: times.into(),
            body,
        });
    }

    /// Appends a conditional on `cond != 0`.
    pub fn if_else(
        &mut self,
        cond: impl Into<Expr>,
        build_then: impl FnOnce(&mut BodyBuilder<'_>),
        build_else: impl FnOnce(&mut BodyBuilder<'_>),
    ) {
        let mut t = BodyBuilder {
            pb: self.pb,
            f: self.f,
            stmts: Vec::new(),
        };
        build_then(&mut t);
        let then_ = t.stmts;
        let mut e = BodyBuilder {
            pb: self.pb,
            f: self.f,
            stmts: Vec::new(),
        };
        build_else(&mut e);
        let else_ = e.stmts;
        self.stmts.push(Stmt::If {
            cond: cond.into(),
            then_,
            else_,
        });
    }

    /// Appends a conditional with no else branch.
    pub fn when(&mut self, cond: impl Into<Expr>, build_then: impl FnOnce(&mut BodyBuilder<'_>)) {
        self.if_else(cond, build_then, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_graph_and_bodies_together() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let worker = pb.func("worker");
        let s = pb.slot();
        pb.define(main, |b| {
            b.call(worker);
            b.call(worker);
        });
        pb.define(worker, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.free(s);
        });
        let p = pb.build();
        // main, worker, malloc
        assert_eq!(p.graph().func_count(), 3);
        // 2 call sites main->worker, 1 worker->malloc
        assert_eq!(p.graph().edge_count(), 3);
        assert_eq!(p.body(main).len(), 2);
        assert_eq!(p.body(worker).len(), 2);
        let malloc = p.graph().func_by_name("malloc").unwrap();
        assert!(p.graph().is_target(malloc));
        assert_eq!(p.alloc_fn_of(malloc), Some(AllocFn::Malloc));
        assert_eq!(p.slot_count(), 1);
    }

    #[test]
    fn alloc_apis_created_lazily_and_once() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 8u64);
            b.alloc(s, AllocFn::Malloc, 8u64);
            b.memalign(s, 64u64, 8u64);
        });
        let p = pb.build();
        // main, malloc, memalign — calloc/realloc never materialize.
        assert_eq!(p.graph().func_count(), 3);
        assert!(p.graph().func_by_name("calloc").is_none());
        // Single root: main.
        assert_eq!(p.graph().roots(), vec![p.entry()]);
    }

    #[test]
    fn nested_repeat_and_if() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.repeat(3u64, |b| {
                b.when(Expr::Input(0), |b| {
                    b.alloc(s, AllocFn::Calloc, 16u64);
                    b.free(s);
                });
            });
        });
        let p = pb.build();
        assert_eq!(p.stmt_count(), 4, "repeat + if + alloc + free");
        assert!(p.base_size_bytes() > 0);
    }

    #[test]
    fn define_extends_existing_body() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| b.alloc(s, AllocFn::Malloc, 8u64));
        pb.define(main, |b| b.free(s));
        let p = pb.build();
        assert_eq!(p.body(main).len(), 2);
    }

    #[test]
    #[should_panic(expected = "entry already declared")]
    fn double_entry_panics() {
        let mut pb = ProgramBuilder::new();
        pb.entry();
        pb.entry();
    }

    #[test]
    #[should_panic(expected = "never called")]
    fn build_without_entry_panics() {
        ProgramBuilder::new().build();
    }
}

//! The interpreter: executes a modeled program over a heap backend while
//! driving the calling-context encoder.

use crate::backend::{AllocRequest, HeapBackend, StopCause};
use crate::program::{Program, Sink, Stmt};
use ht_callgraph::EdgeId;
use ht_encoding::{Encoder, InstrumentationPlan};
use ht_memsim::Addr;
use ht_patch::AllocFn;
use std::collections::HashMap;

/// Per-API allocation counters (feeds Table IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCallCounts {
    /// `malloc` calls.
    pub malloc: u64,
    /// `calloc` calls.
    pub calloc: u64,
    /// `realloc` calls.
    pub realloc: u64,
    /// `memalign` calls.
    pub memalign: u64,
}

impl AllocCallCounts {
    fn bump(&mut self, fun: AllocFn) {
        match fun {
            AllocFn::Malloc => self.malloc += 1,
            AllocFn::Calloc => self.calloc += 1,
            AllocFn::Realloc => self.realloc += 1,
            AllocFn::Memalign => self.memalign += 1,
        }
    }

    /// Total allocation-family calls.
    pub fn total(&self) -> u64 {
        self.malloc + self.calloc + self.realloc + self.memalign
    }
}

/// How a modeled run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program ran to completion.
    Completed,
    /// The program was terminated (segfault, heap misuse, budget).
    Stopped(StopCause),
}

impl RunOutcome {
    /// Whether the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

/// Everything observable about one modeled run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Bytes the program sent to the attacker through [`Sink::Leak`].
    pub leaked: Vec<u8>,
    /// Per-API allocation counts.
    pub allocs: AllocCallCounts,
    /// `free` calls executed.
    pub frees: u64,
    /// Statements executed.
    pub steps: u64,
    /// Bytes written through buffer handles.
    pub bytes_written: u64,
    /// Bytes read through buffer handles.
    pub bytes_read: u64,
    /// Encoding instrumentation updates executed (the §VIII-B1 overhead
    /// proxy).
    pub encoder_ops: u64,
    /// Allocation-frequency histogram: `(FUN, CCID) → count`. Used to pick
    /// the median-frequency contexts that Fig. 8 hypothesizes as vulnerable.
    pub ccid_freq: HashMap<(AllocFn, u64), u64>,
}

impl RunReport {
    /// The `(FUN, CCID)` keys ranked by allocation frequency (ascending),
    /// ties broken by key for determinism.
    pub fn ccids_by_frequency(&self) -> Vec<((AllocFn, u64), u64)> {
        let mut v: Vec<_> = self.ccid_freq.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by_key(|&((f, c), n)| (n, f, c));
        v
    }

    /// The median-frequency allocation contexts, as Fig. 8 selects
    /// hypothesized-vulnerable CCIDs. Returns up to `n` keys centered on the
    /// median rank.
    pub fn median_frequency_ccids(&self, n: usize) -> Vec<(AllocFn, u64)> {
        let ranked = self.ccids_by_frequency();
        if ranked.is_empty() || n == 0 {
            return Vec::new();
        }
        let mid = ranked.len() / 2;
        let half = n / 2;
        let start = mid.saturating_sub(half).min(ranked.len().saturating_sub(n));
        ranked[start..(start + n).min(ranked.len())]
            .iter()
            .map(|&(k, _)| k)
            .collect()
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum statements executed before the run is stopped.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_steps: 200_000_000,
            max_depth: 200,
        }
    }
}

/// The largest size or alignment a program may ask an allocation for:
/// 256 MiB. The interpreter refuses a larger request before any arithmetic
/// on it, stopping the run with [`StopCause::HeapMisuse`], so an input-sized
/// request cannot make a backend map pages without end, overflow or panic.
/// The largest requests `reproduce` and the test suite make are 256 KiB
/// and an alignment of 1 KiB.
pub const MAX_ALLOC_BYTES: u64 = 1 << 28;

/// Refuses an allocation request whose size or alignment exceeds
/// [`MAX_ALLOC_BYTES`].
fn bounded_request(fun: AllocFn, size: u64, align: u64) -> Result<(), StopCause> {
    if size <= MAX_ALLOC_BYTES && align <= MAX_ALLOC_BYTES {
        return Ok(());
    }
    Err(StopCause::misuse(format_args!(
        "{fun} of {size} bytes aligned to {align} exceeds the {MAX_ALLOC_BYTES}-byte bound"
    )))
}

/// Executes a [`Program`] against a [`HeapBackend`], driving an
/// [`Encoder`] so every allocation carries its CCID.
#[derive(Debug)]
pub struct Interpreter<'a, B: HeapBackend> {
    prog: &'a Program,
    plan: &'a InstrumentationPlan,
    backend: B,
    limits: Limits,
}

struct RunState<'p, 'i> {
    enc: Encoder<'p>,
    input: &'i [u64],
    slots: Vec<Option<Addr>>,
    report: RunReport,
    depth: usize,
}

impl<'a, B: HeapBackend> Interpreter<'a, B> {
    /// A new interpreter with default [`Limits`].
    pub fn new(prog: &'a Program, plan: &'a InstrumentationPlan, backend: B) -> Self {
        Self {
            prog,
            plan,
            backend,
            limits: Limits::default(),
        }
    }

    /// Overrides the execution limits (builder style).
    #[must_use]
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// The backend, e.g. to inspect analyzer findings after a run.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Consumes the interpreter, returning the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Runs the program on `input` and reports what happened.
    pub fn run(&mut self, input: &[u64]) -> RunReport {
        let mut st = RunState {
            enc: Encoder::new(self.plan),
            input,
            slots: vec![None; self.prog.slot_count() as usize],
            report: RunReport {
                outcome: RunOutcome::Completed,
                leaked: Vec::new(),
                allocs: AllocCallCounts::default(),
                frees: 0,
                steps: 0,
                bytes_written: 0,
                bytes_read: 0,
                encoder_ops: 0,
                ccid_freq: HashMap::new(),
            },
            depth: 0,
        };
        let entry = self.prog.entry();
        let result = self.exec_body(self.prog.body(entry), &mut st);
        if let Err(cause) = result {
            if matches!(cause, StopCause::Segfault { .. }) {
                self.backend.fault(&cause);
            }
            st.report.outcome = RunOutcome::Stopped(cause);
        }
        st.report.encoder_ops = st.enc.ops();
        st.report
    }

    fn exec_body(&mut self, stmts: &[Stmt], st: &mut RunState<'a, '_>) -> Result<(), StopCause> {
        for stmt in stmts {
            self.exec_stmt(stmt, st)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt, st: &mut RunState<'a, '_>) -> Result<(), StopCause> {
        st.report.steps += 1;
        if st.report.steps > self.limits.max_steps {
            return Err(StopCause::StepLimit);
        }
        match stmt {
            Stmt::Call(e) => self.call(*e, st)?,
            Stmt::CallVirtual { edges, selector } => {
                let taken = edges[(selector.eval(st.input) as usize) % edges.len()];
                self.call(taken, st)?;
            }
            Stmt::Alloc {
                edge,
                slot,
                fun,
                size,
                align,
            } => {
                let size = size.eval(st.input);
                let align = align.eval(st.input);
                bounded_request(*fun, size, align)?;
                let align = align.max(1).next_power_of_two();
                st.slots[slot.index()] = Some(self.alloc(*edge, *fun, size, align, None, st)?);
            }
            Stmt::Realloc {
                edge,
                slot,
                new_size,
            } => {
                let size = new_size.eval(st.input);
                bounded_request(AllocFn::Realloc, size, 16)?;
                let old_ptr = st.slots[slot.index()];
                let ptr = self.alloc(*edge, AllocFn::Realloc, size, 16, old_ptr, st)?;
                st.slots[slot.index()] = Some(ptr);
            }
            Stmt::Free { slot } => {
                // free(NULL) is a no-op; the slot keeps its dangling value.
                if let Some(ptr) = st.slots[slot.index()] {
                    st.report.frees += 1;
                    self.backend.free(ptr)?;
                }
            }
            Stmt::Clear { slot } => {
                st.slots[slot.index()] = None;
            }
            Stmt::Write {
                slot,
                offset,
                len,
                byte,
            } => {
                if let Some(ptr) = st.slots[slot.index()] {
                    let off = offset.eval(st.input);
                    let len = len.eval(st.input);
                    if len > 0 {
                        st.report.bytes_written = st.report.bytes_written.saturating_add(len);
                        self.backend.write(ptr.wrapping_add(off), len, *byte)?;
                    }
                }
            }
            Stmt::Copy {
                src,
                src_off,
                dst,
                dst_off,
                len,
            } => {
                if let (Some(s), Some(d)) = (st.slots[src.index()], st.slots[dst.index()]) {
                    let so = src_off.eval(st.input);
                    let do_ = dst_off.eval(st.input);
                    let len = len.eval(st.input);
                    if len > 0 {
                        st.report.bytes_read = st.report.bytes_read.saturating_add(len);
                        st.report.bytes_written = st.report.bytes_written.saturating_add(len);
                        self.backend
                            .copy(s.wrapping_add(so), d.wrapping_add(do_), len)?;
                    }
                }
            }
            Stmt::Read {
                slot,
                offset,
                len,
                sink,
            } => {
                if let Some(ptr) = st.slots[slot.index()] {
                    let off = offset.eval(st.input);
                    let len = len.eval(st.input);
                    if len > 0 {
                        st.report.bytes_read = st.report.bytes_read.saturating_add(len);
                        let r = self.backend.read(ptr.wrapping_add(off), len, *sink);
                        if *sink == Sink::Leak {
                            st.report.leaked.extend_from_slice(&r.data);
                        }
                        r.outcome?;
                    }
                }
            }
            Stmt::Repeat { times, body } => {
                let n = times.eval(st.input);
                for _ in 0..n {
                    self.exec_body(body, st)?;
                }
            }
            Stmt::If { cond, then_, else_ } => {
                if cond.eval(st.input) != 0 {
                    self.exec_body(then_, st)?;
                } else {
                    self.exec_body(else_, st)?;
                }
            }
        }
        Ok(())
    }

    /// The call path `Stmt::Call` and `Stmt::CallVirtual` share, once the
    /// edge is picked: the callee's body under its calling context.
    #[inline]
    fn call(&mut self, edge: EdgeId, st: &mut RunState<'a, '_>) -> Result<(), StopCause> {
        if st.depth >= self.limits.max_depth {
            return Err(StopCause::DepthLimit);
        }
        let prog: &'a Program = self.prog;
        st.enc.on_call(edge);
        st.depth += 1;
        let r = self.exec_body(prog.body(prog.graph().edge(edge).callee), st);
        st.depth -= 1;
        st.enc.on_return();
        r
    }

    /// The allocation path `Stmt::Alloc` and `Stmt::Realloc` share, once
    /// the request is bounded: the call into the allocation API under its
    /// calling context, counted per API and per `(FUN, CCID)`.
    #[inline]
    fn alloc(
        &mut self,
        edge: EdgeId,
        fun: AllocFn,
        size: u64,
        align: u64,
        old_ptr: Option<Addr>,
        st: &mut RunState<'a, '_>,
    ) -> Result<Addr, StopCause> {
        let target = self.prog.graph().edge(edge).callee;
        st.enc.on_call(edge);
        let ccid = st.enc.current();
        let req = AllocRequest {
            fun,
            size,
            align,
            ccid,
            target,
            old_ptr,
        };
        let r = self.backend.alloc(&req);
        st.enc.on_return();
        let ptr = r?;
        st.report.allocs.bump(fun);
        *st.report.ccid_freq.entry((fun, ccid.0)).or_insert(0) += 1;
        Ok(ptr)
    }
}

/// Convenience: run `prog` with `plan` over a fresh [`PlainBackend`]
/// (undefended) and return the report.
///
/// [`PlainBackend`]: crate::PlainBackend
pub fn run_plain(prog: &Program, plan: &InstrumentationPlan, input: &[u64]) -> RunReport {
    Interpreter::new(prog, plan, crate::PlainBackend::new()).run(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, PlainBackend, ProgramBuilder, Sink};
    use ht_callgraph::Strategy;
    use ht_encoding::Scheme;

    fn plan_for(prog: &Program) -> InstrumentationPlan {
        InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Pcc)
    }

    #[test]
    fn straight_line_program_runs() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.write(s, 0u64, 64u64, 0xAB);
            b.read(s, 0u64, 16u64, Sink::Leak);
            b.free(s);
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.leaked, vec![0xAB; 16]);
        assert_eq!(rep.allocs.malloc, 1);
        assert_eq!(rep.frees, 1);
        assert_eq!(rep.bytes_written, 64);
        assert_eq!(rep.bytes_read, 16);
    }

    #[test]
    fn input_parameterizes_behaviour() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, Expr::Input(0));
            b.write(s, 0u64, Expr::Input(1), 0x11);
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        // Benign: write within bounds.
        let rep = run_plain(&prog, &plan, &[64, 64]);
        assert!(rep.outcome.is_completed());
        // Same program, attack input: the class block absorbs a small
        // overflow silently (undefended!), a huge one hits unmapped memory.
        let rep = run_plain(&prog, &plan, &[64, 10_000_000]);
        assert!(matches!(
            rep.outcome,
            RunOutcome::Stopped(StopCause::Segfault { write: true, .. })
        ));
    }

    #[test]
    fn distinct_contexts_distinct_ccids() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let f = pb.func("f");
        let g_ = pb.func("g");
        let s = pb.slot();
        let helper = pb.func("helper");
        pb.define(main, |b| {
            b.call(f);
            b.call(g_);
        });
        pb.define(f, |b| b.call(helper));
        pb.define(g_, |b| b.call(helper));
        pb.define(helper, |b| {
            b.alloc(s, AllocFn::Malloc, 32u64);
            b.free(s);
        });
        let prog = pb.build();
        for strategy in Strategy::ALL {
            if strategy == Strategy::Fcs {
                continue; // FCS also distinguishes; skip to keep parity clear
            }
            let plan = InstrumentationPlan::build(prog.graph(), strategy, Scheme::Pcc);
            let rep = run_plain(&prog, &plan, &[]);
            assert_eq!(
                rep.ccid_freq.len(),
                2,
                "{strategy}: two contexts reach malloc"
            );
        }
    }

    #[test]
    fn repeated_context_counts_frequency() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.repeat(10u64, |b| {
                b.alloc(s, AllocFn::Malloc, 8u64);
                b.free(s);
            });
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        assert_eq!(rep.allocs.malloc, 10);
        assert_eq!(rep.ccid_freq.len(), 1, "one context");
        assert_eq!(*rep.ccid_freq.values().next().unwrap(), 10);
    }

    #[test]
    fn median_frequency_selection() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        let (f1, f2, f3) = (pb.func("f1"), pb.func("f2"), pb.func("f3"));
        pb.define(main, |b| {
            b.call(f1);
            b.call(f2);
            b.call(f3);
        });
        for (f, n) in [(f1, 1u64), (f2, 5), (f3, 100)] {
            pb.define(f, |b| {
                b.repeat(n, |b| {
                    b.alloc(s, AllocFn::Malloc, 8u64);
                    b.free(s);
                });
            });
        }
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        let med = rep.median_frequency_ccids(1);
        assert_eq!(med.len(), 1);
        assert_eq!(rep.ccid_freq[&med[0]], 5, "median frequency is 5");
        assert_eq!(rep.median_frequency_ccids(0), Vec::new());
        assert_eq!(rep.median_frequency_ccids(3).len(), 3);
    }

    #[test]
    fn realloc_null_behaves_as_malloc() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.realloc(s, 128u64);
            b.write(s, 0u64, 128u64, 1);
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.allocs.realloc, 1);
    }

    #[test]
    fn use_after_free_reads_dangling() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let victim = pb.slot();
        let attacker = pb.slot();
        pb.define(main, |b| {
            b.alloc(victim, AllocFn::Malloc, 64u64);
            b.write(victim, 0u64, 64u64, 0x01);
            b.free(victim);
            // Attacker grabs the recycled block and poisons it.
            b.alloc(attacker, AllocFn::Malloc, 64u64);
            b.write(attacker, 0u64, 64u64, 0x66);
            // Victim's dangling use now sees attacker bytes.
            b.read(victim, 0u64, 8u64, Sink::Leak);
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.leaked, vec![0x66; 8], "hijack via prompt reuse");
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.repeat(u64::MAX, |b| {
                b.alloc(s, AllocFn::Malloc, 8u64);
                b.free(s);
            });
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = Interpreter::new(&prog, &plan, PlainBackend::new())
            .with_limits(Limits {
                max_steps: 1000,
                max_depth: 8,
            })
            .run(&[]);
        assert_eq!(rep.outcome, RunOutcome::Stopped(StopCause::StepLimit));
    }

    #[test]
    fn depth_limit_stops_recursion() {
        // A direct call and a virtual call that recurse into themselves:
        // both take the one call path and its depth check.
        let cases: [fn(&mut crate::BodyBuilder<'_>, ht_callgraph::FuncId); 2] = [
            |b, f| b.call(f),
            |b, f| b.call_virtual(&[f], Expr::Input(0)),
        ];
        for recurse in cases {
            let mut pb = ProgramBuilder::new();
            let main = pb.entry();
            let f = pb.func("f");
            pb.define(main, |b| b.call(f));
            pb.define(f, |b| recurse(b, f));
            let prog = pb.build();
            let plan = plan_for(&prog);
            let rep = Interpreter::new(&prog, &plan, PlainBackend::new())
                .with_limits(Limits {
                    max_steps: 1_000_000,
                    max_depth: 32,
                })
                .run(&[]);
            assert_eq!(rep.outcome, RunOutcome::Stopped(StopCause::DepthLimit));
            assert_eq!(rep.steps, 33, "main's call and 32 recursive calls");
        }
    }

    #[test]
    fn if_else_branches_on_input() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 16u64);
            b.write(s, 0u64, 16u64, 9);
            b.if_else(
                Expr::Input(0),
                |b| b.read(s, 0u64, 1u64, Sink::Leak),
                |b| b.read(s, 0u64, 2u64, Sink::Leak),
            );
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        assert_eq!(run_plain(&prog, &plan, &[1]).leaked.len(), 1);
        assert_eq!(run_plain(&prog, &plan, &[0]).leaked.len(), 2);
    }

    #[test]
    fn clear_nulls_the_slot() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 16u64);
            b.free(s);
            b.clear(s);
            // All of these are now no-ops (NULL-guarded code).
            b.write(s, 0u64, 16u64, 1);
            b.read(s, 0u64, 16u64, Sink::Leak);
            b.free(s);
            // realloc(NULL, n) allocates fresh.
            b.realloc(s, 32u64);
            b.write(s, 0u64, 32u64, 2);
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        assert!(rep.outcome.is_completed(), "{:?}", rep.outcome);
        assert!(rep.leaked.is_empty(), "read through NULL is a no-op");
        assert_eq!(rep.frees, 1, "free(NULL) is a no-op");
        assert_eq!(rep.allocs.realloc, 1);
    }

    #[test]
    fn virtual_calls_dispatch_by_selector_with_distinct_ccids() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let impl_a = pb.func("png_handler");
        let impl_b = pb.func("jpg_handler");
        let s = pb.slot();
        for f in [impl_a, impl_b] {
            pb.define(f, |b| {
                b.alloc(s, AllocFn::Malloc, 32u64);
                b.free(s);
            });
        }
        pb.define(main, |b| {
            b.call_virtual(&[impl_a, impl_b], Expr::Input(0));
        });
        let prog = pb.build();
        // Both candidate edges exist statically.
        assert_eq!(prog.graph().edge_count(), 4, "2 virtual edges + 2 mallocs");
        let plan = plan_for(&prog);
        let via_a = run_plain(&prog, &plan, &[0]);
        let via_b = run_plain(&prog, &plan, &[1]);
        assert_eq!(via_a.allocs.malloc, 1);
        assert_eq!(via_b.allocs.malloc, 1);
        assert_ne!(
            via_a.ccid_freq, via_b.ccid_freq,
            "the dynamic callee determines the allocation context"
        );
        // Selector wraps modulo the candidate count.
        let via_a_again = run_plain(&prog, &plan, &[2]);
        assert_eq!(
            via_a_again.ccid_freq, via_a.ccid_freq,
            "selector % len dispatch"
        );
    }

    #[test]
    fn copy_moves_bytes_between_buffers() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let a = pb.slot();
        let b_ = pb.slot();
        pb.define(main, |b| {
            b.alloc(a, AllocFn::Malloc, 32u64);
            b.alloc(b_, AllocFn::Calloc, 32u64);
            b.write(a, 0u64, 32u64, 0x7E);
            b.copy(a, 8u64, b_, 4u64, 16u64);
            b.read(b_, 0u64, 32u64, Sink::Leak);
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let rep = run_plain(&prog, &plan, &[]);
        assert!(rep.outcome.is_completed());
        let mut expected = vec![0u8; 32];
        expected[4..20].fill(0x7E);
        assert_eq!(rep.leaked, expected);
        assert_eq!(rep.bytes_written, 32 + 16);
    }

    /// A plain backend that records every fault delivered to it.
    #[derive(Default)]
    struct FaultLog {
        plain: PlainBackend,
        faults: Vec<StopCause>,
    }

    impl HeapBackend for FaultLog {
        fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause> {
            self.plain.alloc(req)
        }
        fn free(&mut self, ptr: Addr) -> Result<(), StopCause> {
            self.plain.free(ptr)
        }
        fn write(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), StopCause> {
            self.plain.write(addr, len, byte)
        }
        fn read(&mut self, addr: Addr, len: u64, sink: Sink) -> crate::ReadResult {
            self.plain.read(addr, len, sink)
        }
        fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), StopCause> {
            self.plain.copy(src, dst, len)
        }
        fn fault(&mut self, cause: &StopCause) {
            self.faults.push(cause.clone());
        }
    }

    #[test]
    fn only_a_segfault_is_delivered_once_with_the_runs_cause() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        // The input picks the ending: a 1 in word 0 overruns into unmapped
        // memory, in word 1 frees twice, in word 2 loops until the step
        // budget runs out; all zeros completes.
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.if_else(
                Expr::Input(0),
                |b| b.write(s, 0u64, 10_000_000u64, 0x41),
                |_| {},
            );
            b.if_else(
                Expr::Input(1),
                |b| {
                    b.free(s);
                    b.free(s);
                },
                |_| {},
            );
            b.if_else(
                Expr::Input(2),
                |b| b.repeat(u64::MAX, |b| b.write(s, 0u64, 8u64, 1)),
                |_| {},
            );
        });
        let prog = pb.build();
        let plan = plan_for(&prog);
        let limits = Limits {
            max_steps: 1000,
            max_depth: 8,
        };
        let run = |input: &[u64]| {
            let mut interp =
                Interpreter::new(&prog, &plan, FaultLog::default()).with_limits(limits);
            let rep = interp.run(input);
            (rep.outcome, interp.into_backend().faults)
        };
        let (outcome, faults) = run(&[1, 0, 0]);
        let RunOutcome::Stopped(cause @ StopCause::Segfault { write: true, .. }) = outcome else {
            panic!("expected a segfault, got {outcome:?}");
        };
        assert_eq!(faults, [cause], "one delivery, with the run's cause");
        let (outcome, faults) = run(&[0, 1, 0]);
        assert!(matches!(
            outcome,
            RunOutcome::Stopped(StopCause::HeapMisuse(_))
        ));
        assert!(faults.is_empty(), "heap misuse is no fault: {faults:?}");
        let (outcome, faults) = run(&[0, 0, 1]);
        assert_eq!(outcome, RunOutcome::Stopped(StopCause::StepLimit));
        assert!(faults.is_empty(), "a spent budget is no fault: {faults:?}");
        let (outcome, faults) = run(&[0, 0, 0]);
        assert!(outcome.is_completed());
        assert!(
            faults.is_empty(),
            "a completed run has no fault: {faults:?}"
        );
    }

    #[test]
    fn encoder_ops_depend_on_strategy() {
        // Build a program with dead call paths; TCS executes fewer
        // instrumentation ops than FCS.
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let dead = pb.func("dead");
        let live = pb.func("live");
        let s = pb.slot();
        pb.define(main, |b| {
            b.repeat(100u64, |b| {
                b.call(dead);
                b.call(live);
            });
        });
        pb.define(dead, |_| {});
        pb.define(live, |b| {
            b.alloc(s, AllocFn::Malloc, 8u64);
            b.free(s);
        });
        let prog = pb.build();
        let fcs = InstrumentationPlan::build(prog.graph(), Strategy::Fcs, Scheme::Pcc);
        let tcs = InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Pcc);
        let ops_fcs = run_plain(&prog, &fcs, &[]).encoder_ops;
        let ops_tcs = run_plain(&prog, &tcs, &[]).encoder_ops;
        assert!(ops_tcs < ops_fcs, "tcs {ops_tcs} < fcs {ops_fcs}");
        assert_eq!(ops_fcs, 300, "100×(dead + live + malloc)");
        assert_eq!(ops_tcs, 200, "100×(live + malloc)");
    }
}

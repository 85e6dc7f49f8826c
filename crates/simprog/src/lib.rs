//! Modeled programs: the substrate HeapTherapy+ instruments, attacks, and
//! protects.
//!
//! The paper instruments C/C++ programs with an LLVM pass and runs them on
//! real hardware. This crate supplies the equivalent substrate as a *modeled
//! program*: a call graph whose functions have bodies written in a small
//! statement language ([`Stmt`]) — calls, heap allocations, frees, buffer
//! reads and writes, loops — parameterized by an *input* (the attack input of
//! the paper becomes a vector of integers that sizes and lengths may
//! reference).
//!
//! The [`Interpreter`] executes a program while
//!
//! * driving an [`ht_encoding::Encoder`] with every call/return event, so
//!   each allocation carries its calling-context ID, and
//! * routing every heap operation through a pluggable [`HeapBackend`] — the
//!   plain allocator (attack succeeds silently), the offline shadow-memory
//!   analyzer (crate `ht-shadow`), or the online defended allocator (crate
//!   `ht-defense`).
//!
//! Workload models for the evaluation live in [`spec`] (SPEC CPU2006-like
//! benchmarks, Table IV parameters) and [`service`] (Nginx/MySQL-like request
//! loops).
//!
//! # Example
//!
//! ```
//! use ht_patch::AllocFn;
//! use ht_simprog::{Expr, Interpreter, PlainBackend, ProgramBuilder, Sink};
//! use ht_callgraph::Strategy;
//! use ht_encoding::{InstrumentationPlan, Scheme};
//!
//! let mut pb = ProgramBuilder::new();
//! let main = pb.entry();
//! let buf = pb.slot();
//! pb.define(main, |b| {
//!     b.alloc(buf, AllocFn::Malloc, Expr::Const(64));
//!     b.write(buf, Expr::Const(0), Expr::Const(64), 0xAA);
//!     b.read(buf, Expr::Const(0), Expr::Const(8), Sink::Leak);
//!     b.free(buf);
//! });
//! let prog = pb.build();
//!
//! let plan = InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Pcc);
//! let report = Interpreter::new(&prog, &plan, PlainBackend::new()).run(&[]);
//! assert!(report.outcome.is_completed());
//! assert_eq!(report.leaked, vec![0xAA; 8]);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod builder;
pub mod interp;
pub mod program;
pub mod service;
pub mod spec;

pub use backend::{AllocRequest, HeapBackend, PlainBackend, ReadResult, StopCause};
pub use builder::{BodyBuilder, ProgramBuilder};
pub use interp::{AllocCallCounts, Interpreter, Limits, RunOutcome, RunReport, MAX_ALLOC_BYTES};
pub use program::{Expr, Program, Sink, SlotId, Stmt};

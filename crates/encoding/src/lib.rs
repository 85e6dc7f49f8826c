//! Calling-context encoding for HeapTherapy+ (paper Section IV).
//!
//! A *calling context* is the sequence of active call sites on the stack. For
//! heap patching we need the context of every allocation continuously
//! available in O(1) — walking the stack at every `malloc` is far too slow
//! (the paper reports large overheads for allocation-intensive programs).
//! Calling-context *encoding* maintains one integer `V` that always equals an
//! encoding of the current context:
//!
//! * [`Scheme::Pcc`] — probabilistic calling context: at each instrumented
//!   call site `V = 3·V + c` with a per-site constant `c`. Compact,
//!   probabilistically unique, not decodable.
//! * [`Scheme::Additive`] — the one precise scheme, of the PCCE/DeltaPath
//!   family: `V = V + c` with Ball–Larus constants over the target-reaching
//!   sub-DAG, so the `N` contexts of a program encode *densely* as `0..N`
//!   and decode exactly back to the full context — see
//!   [`analysis::decode`]. Like PCCE's decoder it needs that subgraph
//!   acyclic: a recursive one degrades to PCC-grade probabilistic constants
//!   (check [`InstrumentationPlan::is_precise`]).
//!
//! Which call sites carry instrumentation is decided by an
//! [`ht_callgraph::Strategy`]; an [`InstrumentationPlan`] binds a strategy, a
//! scheme, and the per-site constants. The runtime [`Encoder`] then consumes
//! call/return events.
//!
//! # Example
//!
//! ```
//! use ht_callgraph::{CallGraphBuilder, Strategy};
//! use ht_encoding::{Encoder, InstrumentationPlan, Scheme};
//!
//! let mut b = CallGraphBuilder::new();
//! let main = b.func("main");
//! let worker = b.func("worker");
//! let malloc = b.target("malloc");
//! let e1 = b.call(main, worker);
//! let e2 = b.call(worker, malloc);
//! let e3 = b.call(main, malloc);
//! let g = b.build();
//!
//! let plan = InstrumentationPlan::build(&g, Strategy::Tcs, Scheme::Pcc);
//! let mut enc = Encoder::new(&plan);
//! enc.on_call(e1);
//! enc.on_call(e2);
//! let deep = enc.current();
//! enc.on_return();
//! enc.on_return();
//! enc.on_call(e3);
//! assert_ne!(deep, enc.current()); // different contexts, different CCIDs
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod encoder;
pub mod plan;
pub mod scheme;

pub use analysis::{
    collision_report, collisions_among, decode, encode_context, expected_pcc_collisions,
    CollisionReport,
};
pub use encoder::{Encoder, StackWalker};
pub use plan::InstrumentationPlan;
pub use scheme::{Ccid, Scheme};

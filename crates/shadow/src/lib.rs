//! The offline attack analyzer: shadow memory, detection, patch generation
//! (paper Section V).
//!
//! HeapTherapy+ replays an attack input under a heavyweight shadow-memory
//! analyzer (the paper builds on Valgrind; this crate implements the same
//! machinery from scratch over the `ht-memsim` substrate):
//!
//! * an **Accessibility bit (A-bit) per byte** — red zones around every heap
//!   buffer and all freed memory are marked inaccessible; any touch is a
//!   detected violation,
//! * a **Validity bit (V-bit) per bit** — fresh heap memory is invalid;
//!   values are checked only where their use matters (control flow,
//!   addresses, system calls), which avoids the struct-padding false
//!   positives of naive checkers (paper Fig. 4),
//! * a **FIFO quarantine** of freed blocks (2 GB quota by default) so
//!   use-after-free accesses hit inaccessible memory instead of recycled
//!   buffers,
//! * **origin tracking**: every warning is attributed to the heap buffer it
//!   involves, whose allocation-time `(FUN, CCID)` becomes the patch key,
//! * **warning-resume**: execution continues after each warning (checked
//!   V-bits are revalidated to suppress chained reports), so one replay can
//!   expose several vulnerabilities — Heartbleed yields both `UR` and `OF`.
//!
//! The end product of a replay is a set of [`ht_patch::Patch`]es via
//! [`ShadowBackend::generate_patches`].
//!
//! # Example
//!
//! ```
//! use ht_callgraph::Strategy;
//! use ht_encoding::{InstrumentationPlan, Scheme};
//! use ht_patch::{AllocFn, VulnFlags};
//! use ht_shadow::ShadowBackend;
//! use ht_simprog::{Expr, Interpreter, ProgramBuilder, Sink};
//!
//! // A program that overflows its buffer by Input(1) bytes.
//! let mut pb = ProgramBuilder::new();
//! let main = pb.entry();
//! let buf = pb.slot();
//! pb.define(main, |b| {
//!     b.alloc(buf, AllocFn::Malloc, Expr::Input(0));
//!     b.write(buf, Expr::Const(0), Expr::Input(0).add(Expr::Input(1)), 0x41);
//! });
//! let prog = pb.build();
//! let plan = InstrumentationPlan::build(prog.graph(), Strategy::Incremental, Scheme::Pcc);
//!
//! let mut interp = Interpreter::new(&prog, &plan, ShadowBackend::new());
//! interp.run(&[64, 8]); // attack input: 8 bytes past the end
//! let patches = interp.backend().generate_patches("demo");
//! assert_eq!(patches.len(), 1);
//! assert!(patches[0].vuln.contains(VulnFlags::OVERFLOW));
//! ```

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod bits;
pub mod heap;
pub mod warning;

pub use analyzer::{CcidPartition, ShadowBackend, ShadowConfig};
pub use bits::{KernelMode, ShadowBits};
pub use heap::{BufId, BufRecord, BufState, HeapMap, Region};
pub use warning::{Warning, WarningKind};

/// Red-zone width on each side of every buffer, in bytes (paper: 16).
pub const REDZONE: u64 = 16;

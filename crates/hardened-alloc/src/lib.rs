//! HeapTherapy+ defenses on **real memory**: a [`core::alloc::GlobalAlloc`]
//! implementation for Rust programs.
//!
//! The rest of the workspace demonstrates the paper on a simulated address
//! space; this crate closes the loop on the actual process heap:
//!
//! * [`ccid`] — a thread-local calling-context encoder (PCC's `V = 3t + c`)
//!   driven by RAII [`ccid::CallScope`] guards placed at instrumented call
//!   sites,
//! * [`HardenedAlloc`] — wraps the system allocator; every allocation
//!   probes its [`ht_patch::PatchTable`], the table the simulated defense
//!   uses too, with the current `(FUN, CCID)`:
//!   * overflow patches place the buffer against a trailing `PROT_NONE`
//!     **guard page** (`libc::mprotect`); freed guarded regions are kept,
//!     guard intact, in a bounded cache and zeroed on reuse, so only a
//!     cache miss pays the `mmap`,
//!   * use-after-free patches defer frees through a quarantine bounded by
//!     a byte quota alone, whose FIFO links live in the freed buffers'
//!     headers,
//!   * uninitialized-read patches zero the buffer.
//!
//!   The paper's 8-byte metadata word before every buffer tells a free what
//!   to undo: no lock for unpatched frees, and double frees are refused.
//!   A patched buffer's word carries the table slot that matched, so a free
//!   or quarantine eviction is attributed to its patch. Slots are dense
//!   and given in install order; telemetry rows and attack reports name a
//!   patch by the same slot the simulated defense would give it for the
//!   same configuration order.
//!
//! Everything on the allocation path is allocation-free (fixed-size tables,
//! a spin lock, atomics, counter cells each thread claims from a `static`
//! pool) so the type is usable as `#[global_allocator]` — see
//! `examples/hardened_allocator.rs` at the workspace root.
//!
//! `libc` is the one dependency outside the project's standard allowance:
//! `std` exposes no page-permission API, and guard pages are the point.
//!
//! # Example
//!
//! ```
//! use ht_hardened_alloc::{ccid, HardenedAlloc};
//! use ht_patch::{AllocFn, Patch, VulnFlags};
//! use std::alloc::{GlobalAlloc, Layout};
//!
//! static ALLOC: HardenedAlloc = HardenedAlloc::new();
//!
//! // "Instrument" a call site, then install a patch for the context.
//! let _site = ccid::CallScope::enter(0x1234);
//! ALLOC.install(&[Patch::new(AllocFn::Malloc, ccid::current(), VulnFlags::UNINIT_READ)]);
//!
//! let layout = Layout::from_size_align(256, 16).unwrap();
//! let p = unsafe { ALLOC.alloc(layout) };
//! assert!(!p.is_null());
//! // Zero-filled because the context is patched UR.
//! assert!(unsafe { std::slice::from_raw_parts(p, 256) }.iter().all(|&b| b == 0));
//! unsafe { ALLOC.dealloc(p, layout) };
//! ```

pub mod ccid;
pub mod galloc;
mod tables;
pub mod throughput;

pub use galloc::{HardenedAlloc, HardenedStats, RegistryStats};
/// The former name of [`Patch`](ht_patch::Patch) here, kept because the
/// benchmark in `perfbench/` still uses it.
pub use ht_patch::Patch as PatchEntry;

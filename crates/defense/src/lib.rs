//! The online defense generator (paper Section VI).
//!
//! A shared library in the paper, a [`HeapBackend`] here: every allocation
//! call is intercepted; the `(FUN, CCID)` key is probed in the frozen
//! [`ht_patch::PatchTable`] in O(1); *only* buffers that hit receive
//! defenses:
//!
//! * **Overflow** → a guard page is appended right after the buffer
//!   ([`layout`] Structures 2/4); the first out-of-bounds contiguous access
//!   takes a fault instead of corrupting or leaking adjacent memory.
//! * **Use after free** → on `free`, the block enters a FIFO
//!   [`quarantine`] instead of the allocator's free list, deferring reuse.
//! * **Uninitialized read** → the buffer is zero-filled before being
//!   returned.
//!
//! The defense maintains its own metadata word per buffer ([`meta`]) so it
//! needs nothing from the underlying allocator — the paper's
//! "no dependency on specific heap allocators" property (exercised against
//! two different allocators in the tests). A patched buffer's word also
//! records its table slot, the same dense slot the real allocator
//! (`ht-hardened-alloc`) gives the patch, so telemetry attributes frees and
//! quarantine evictions without any pointer-to-patch map.
//!
//! [`HeapBackend`]: ht_simprog::HeapBackend
//!
//! # Example
//!
//! ```
//! use ht_patch::{AllocFn, Patch, PatchTable, VulnFlags};
//! use ht_defense::{DefendedBackend, DefenseConfig};
//! use ht_simprog::{AllocRequest, HeapBackend};
//! use ht_encoding::Ccid;
//! use ht_callgraph::FuncId;
//!
//! let table = PatchTable::from_patches([
//!     Patch::new(AllocFn::Malloc, 0x42, VulnFlags::OVERFLOW),
//! ]);
//! let mut d = DefendedBackend::new(DefenseConfig::with_table(table));
//! let req = AllocRequest {
//!     fun: AllocFn::Malloc, size: 100, align: 16,
//!     ccid: Ccid(0x42), target: FuncId(0), old_ptr: None,
//! };
//! let p = d.alloc(&req).unwrap();
//! assert!(d.write(p, 100, 0xAA).is_ok());       // in bounds: fine
//! assert!(!d.write(p, 5000, 0xAA).is_ok());     // overflow: guard page trap
//! ```

pub mod interpose;
pub mod layout;
pub mod meta;
pub mod quarantine;

pub use interpose::{DefendedBackend, DefenseConfig, DefenseStats};
pub use layout::{BufferStructure, Layout};
pub use meta::MetaWord;
pub use quarantine::Quarantine;

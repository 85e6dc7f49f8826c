//! The heap-backend boundary and the plain (undefended) backend.

use ht_callgraph::FuncId;
use ht_encoding::Ccid;
use ht_memsim::{
    Addr, AddressSpace, AllocStats, BaseAllocator, FreeListAllocator, MemFault, SpaceStats,
};
use ht_patch::AllocFn;
use std::fmt;

/// Everything a backend needs to service one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRequest {
    /// The allocation API invoked.
    pub fun: AllocFn,
    /// Requested size in bytes.
    pub size: u64,
    /// Requested alignment (only meaningful for `memalign`).
    pub align: u64,
    /// The allocation-time calling-context ID.
    pub ccid: Ccid,
    /// The call-graph node of the allocation API (the Incremental key's
    /// target function).
    pub target: FuncId,
    /// For `realloc`: the pointer being resized.
    pub old_ptr: Option<Addr>,
}

/// Why a modeled run terminated abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopCause {
    /// A memory access faulted (the program received SIGSEGV) — this is what
    /// a guard-page hit looks like from inside the program.
    Segfault {
        /// Faulting address.
        addr: Addr,
        /// Whether the faulting access was a write.
        write: bool,
    },
    /// An allocation-family call failed (heap exhaustion, double free, ...).
    HeapMisuse(String),
    /// The interpreter's step budget ran out.
    StepLimit,
    /// The interpreter's call-depth budget ran out.
    DepthLimit,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::Segfault { addr, write } => {
                let op = if *write { "write" } else { "read" };
                write!(f, "segfault on {op} at {addr:#x}")
            }
            StopCause::HeapMisuse(m) => write!(f, "heap misuse: {m}"),
            StopCause::StepLimit => f.write_str("step limit exceeded"),
            StopCause::DepthLimit => f.write_str("call depth limit exceeded"),
        }
    }
}

impl StopCause {
    /// The fault a memory access stopped with, as the program sees it: a
    /// SIGSEGV at the first faulting address of a read or a write.
    #[inline]
    pub fn segfault(fault: MemFault, write: bool) -> Self {
        StopCause::Segfault {
            addr: fault.addr,
            write,
        }
    }

    /// An allocation-family call that failed: real programs crash or
    /// corrupt the heap on a double or invalid free, so the run aborts.
    pub fn misuse(e: impl fmt::Display) -> Self {
        StopCause::HeapMisuse(e.to_string())
    }
}

/// Result of a read: bytes obtained so far plus the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// Bytes read before any fault.
    pub data: Vec<u8>,
    /// `Ok` if the read completed, else the cause that stops the run.
    pub outcome: Result<(), StopCause>,
}

/// The heap boundary between the interpreter and a memory system.
///
/// Every call returns a `Result`: `Ok` lets the program go on, and a
/// [`StopCause`] ends the modeled run. A fault from the memory system
/// becomes [`StopCause::segfault`] and a failed allocator call
/// [`StopCause::misuse`], in every backend alike.
///
/// Three implementations exist across the workspace:
///
/// * [`PlainBackend`] (here) — the undefended substrate: attacks corrupt and
///   leak silently,
/// * `ht_shadow::ShadowBackend` — the offline analyzer: detects and records
///   violations, then *continues* (warning-resume, paper Section V),
/// * `ht_defense::DefendedBackend` — the online system, a layer over a
///   [`PlainBackend`]: patched buffers get guard pages / deferred free /
///   zero-init. Like the paper's library it interposes only the allocation
///   calls: its accesses are the plain backend's, and it learns of a
///   guard-page hit only through [`HeapBackend::fault`]. Its "guard every
///   buffer" ablation is a full patch table, not a mode.
pub trait HeapBackend {
    /// Services an allocation (including `realloc` when
    /// [`AllocRequest::old_ptr`] is set).
    ///
    /// # Errors
    ///
    /// A [`StopCause`] terminates the modeled run.
    fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause>;

    /// Services `free(ptr)`.
    fn free(&mut self, ptr: Addr) -> Result<(), StopCause>;

    /// Writes `len` copies of `byte` starting at `addr`.
    fn write(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), StopCause>;

    /// Reads `len` bytes starting at `addr` (`sink` is the value's use).
    fn read(&mut self, addr: Addr, len: u64, sink: crate::Sink) -> ReadResult;

    /// Copies `len` bytes from `src` to `dst` (a `memcpy` — the value is
    /// moved, not *used*, so analyzers must not treat this as a checked
    /// read).
    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), StopCause>;

    /// Delivers the fault that ended a run (the simulator's SIGSEGV).
    ///
    /// [`Interpreter::run`](crate::Interpreter::run) calls it once, after
    /// an access stopped with [`StopCause::Segfault`]; a stopped access
    /// always ends the run, so no run delivers two. The accesses themselves
    /// only return the fault: code that drives a backend directly delivers
    /// it itself. The default ignores it.
    fn fault(&mut self, _cause: &StopCause) {}

    /// Memory-system statistics, if this backend tracks them.
    fn mem_stats(&self) -> Option<(SpaceStats, AllocStats)> {
        None
    }
}

/// The undefended substrate: a [`BaseAllocator`] over an [`AddressSpace`]
/// with no interposition at all.
///
/// Overflows silently corrupt neighbours, freed blocks are promptly reused
/// (LIFO), and fresh blocks carry stale bytes — i.e., attacks *work*, which
/// is the baseline Table II verifies against.
#[derive(Debug)]
pub struct PlainBackend<A: BaseAllocator = FreeListAllocator> {
    space: AddressSpace,
    heap: A,
}

impl PlainBackend<FreeListAllocator> {
    /// A plain backend over the free-list allocator.
    pub fn new() -> Self {
        Self::with_allocator(FreeListAllocator::new())
    }
}

impl Default for PlainBackend<FreeListAllocator> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: BaseAllocator> PlainBackend<A> {
    /// A plain backend over a caller-chosen allocator.
    pub fn with_allocator(heap: A) -> Self {
        Self {
            space: AddressSpace::new(),
            heap,
        }
    }

    /// The address space, for a layer built over this substrate.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// The address space and the allocator at once, so a layer can call
    /// the allocator on the space.
    pub fn parts_mut(&mut self) -> (&mut AddressSpace, &mut A) {
        (&mut self.space, &mut self.heap)
    }
}

impl<A: BaseAllocator> HeapBackend for PlainBackend<A> {
    fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause> {
        let r = match (req.fun, req.old_ptr) {
            (AllocFn::Realloc, Some(old)) => self.heap.realloc(&mut self.space, old, req.size),
            (AllocFn::Memalign, _) => self.heap.memalign(&mut self.space, req.align, req.size),
            _ => self.heap.malloc(&mut self.space, req.size),
        };
        let ptr = r.map_err(StopCause::misuse)?;
        if req.fun == AllocFn::Calloc {
            self.space
                .fill(ptr, req.size, 0)
                .map_err(StopCause::misuse)?;
        }
        Ok(ptr)
    }

    fn free(&mut self, ptr: Addr) -> Result<(), StopCause> {
        self.heap
            .free(&mut self.space, ptr)
            .map_err(StopCause::misuse)
    }

    fn write(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), StopCause> {
        self.space
            .fill(addr, len, byte)
            .map_err(|f| StopCause::segfault(f, true))
    }

    fn read(&mut self, addr: Addr, len: u64, _sink: crate::Sink) -> ReadResult {
        let mut data = vec![0u8; self.space.reach(addr, len) as usize];
        let outcome = self.space.read(addr, &mut data).map_err(|f| {
            data.truncate(f.completed as usize);
            StopCause::segfault(f, false)
        });
        ReadResult { data, outcome }
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), StopCause> {
        let mut buf = vec![0u8; self.space.reach(src, len) as usize];
        self.space
            .read(src, &mut buf)
            .map_err(|f| StopCause::segfault(f, false))?;
        self.space
            .write(dst, &buf)
            .map_err(|f| StopCause::segfault(f, true))
    }

    fn mem_stats(&self) -> Option<(SpaceStats, AllocStats)> {
        Some((self.space.stats(), self.heap.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sink;
    use ht_encoding::Ccid;

    fn req(fun: AllocFn, size: u64) -> AllocRequest {
        AllocRequest {
            fun,
            size,
            align: 16,
            ccid: Ccid(0),
            target: FuncId(0),
            old_ptr: None,
        }
    }

    #[test]
    fn malloc_write_read_cycle() {
        let mut b = PlainBackend::new();
        let p = b.alloc(&req(AllocFn::Malloc, 32)).unwrap();
        assert!(b.write(p, 32, 0x7F).is_ok());
        let r = b.read(p, 32, Sink::Discard);
        assert!(r.outcome.is_ok());
        assert_eq!(r.data, vec![0x7F; 32]);
        assert!(b.free(p).is_ok());
    }

    #[test]
    fn calloc_zeroes() {
        let mut b = PlainBackend::new();
        // Dirty a block, free it, calloc the same class: must be zero.
        let p = b.alloc(&req(AllocFn::Malloc, 64)).unwrap();
        b.write(p, 64, 0xFF).unwrap();
        b.free(p).unwrap();
        let q = b.alloc(&req(AllocFn::Calloc, 64)).unwrap();
        assert_eq!(q, p, "LIFO reuse");
        let r = b.read(q, 64, Sink::Discard);
        assert_eq!(r.data, vec![0u8; 64]);
    }

    #[test]
    fn malloc_exposes_stale_bytes() {
        // The uninitialized-read substrate property: malloc after free hands
        // back the previous contents.
        let mut b = PlainBackend::new();
        let p = b.alloc(&req(AllocFn::Malloc, 64)).unwrap();
        b.write(p, 64, 0xEE).unwrap();
        b.free(p).unwrap();
        let q = b.alloc(&req(AllocFn::Malloc, 64)).unwrap();
        let r = b.read(q, 64, Sink::Leak);
        assert_eq!(r.data, vec![0xEE; 64], "stale data leaks");
    }

    #[test]
    fn realloc_via_request() {
        let mut b = PlainBackend::new();
        let p = b.alloc(&req(AllocFn::Malloc, 16)).unwrap();
        b.write(p, 16, 0x11).unwrap();
        let mut r = req(AllocFn::Realloc, 256);
        r.old_ptr = Some(p);
        let q = b.alloc(&r).unwrap();
        let got = b.read(q, 16, Sink::Discard);
        assert_eq!(got.data, vec![0x11; 16]);
    }

    #[test]
    fn double_free_stops_run() {
        let mut b = PlainBackend::new();
        let p = b.alloc(&req(AllocFn::Malloc, 16)).unwrap();
        assert!(b.free(p).is_ok());
        match b.free(p) {
            Err(StopCause::HeapMisuse(m)) => assert!(m.contains("double free"), "{m}"),
            other => panic!("expected stop, got {other:?}"),
        }
    }

    #[test]
    fn wild_access_segfaults() {
        let mut b = PlainBackend::new();
        let wild = |write| StopCause::Segfault { addr: 0x10, write };
        assert_eq!(b.write(0x10, 1, 0), Err(wild(true)));
        let r = b.read(0x10, 4, Sink::Discard);
        assert_eq!(r.outcome, Err(wild(false)));
        assert!(r.data.is_empty());
    }

    #[test]
    fn stop_cause_display() {
        let s = StopCause::Segfault {
            addr: 0xabc,
            write: true,
        };
        assert!(s.to_string().contains("0xabc"));
        assert!(StopCause::StepLimit.to_string().contains("step"));
        assert!(StopCause::DepthLimit.to_string().contains("depth"));
        assert!(StopCause::HeapMisuse("x".into()).to_string().contains("x"));
    }

    #[test]
    fn mem_stats_available() {
        let mut b = PlainBackend::new();
        let p = b.alloc(&req(AllocFn::Malloc, 100)).unwrap();
        b.write(p, 100, 1).unwrap();
        let (space, heap) = b.mem_stats().unwrap();
        assert!(space.rss_bytes > 0);
        assert_eq!(heap.live_bytes, 100);
    }
}

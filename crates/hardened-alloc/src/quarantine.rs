//! The deferred-free quarantine of UAF-patched buffers (paper §VI): one
//! FIFO bounded by bytes alone, linked through the quarantine nodes of the
//! freed buffers' own headers, so it never allocates.

use crate::word::{guarded_body, load_word, store_word, MetaWord, Node};
use ht_patch::VulnFlags;
use std::alloc::Layout;
use std::sync::{Mutex, PoisonError};

/// What the allocator needs to release one quarantined allocation,
/// rebuilt from its quarantine node and metadata word when it leaves the
/// quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// User pointer.
    pub ptr: usize,
    /// `mmap` region base for guarded allocations (0 for system ones).
    pub region: usize,
    /// Patch-table slot that matched at allocation time (telemetry
    /// attribution on the free path).
    pub slot: u32,
    /// Original layout size (for quarantine accounting / system dealloc).
    pub size: usize,
    /// Original layout alignment.
    pub align: usize,
}

/// A quarantined buffer whose node or word no longer checks out: its FIFO
/// is cut there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Forged;

/// Takes the quarantined buffer at `ptr` off its FIFO: the entry the
/// allocator needs to release it and the link to the next buffer, or
/// `None` when its node or its word no longer describe a quarantined UAF
/// buffer at `ptr`. A taken buffer's word loses its defense bits, so a
/// second link to it is refused too.
///
/// # Safety
///
/// `ptr` must be a buffer this quarantine holds.
unsafe fn take(ptr: usize) -> Option<(Entry, usize)> {
    // SAFETY: a held buffer keeps its header, node and word, mapped.
    let node = unsafe { Node::load(ptr) }?;
    let layout = Layout::from_size_align(node.size, node.align).ok()?;
    // SAFETY: as above.
    let word = MetaWord::decode(unsafe { load_word(ptr as *mut u8) }).filter(|w| {
        w.freed && w.vuln.contains(VulnFlags::USE_AFTER_FREE) && w.is_at(ptr, layout)
    })?;
    let region = if word.vuln.contains(VulnFlags::OVERFLOW) {
        word.guard.checked_sub(guarded_body(layout, word.vuln))?
    } else {
        0
    };
    let released = MetaWord {
        vuln: VulnFlags::NONE,
        ..word
    };
    // SAFETY: as above.
    unsafe { store_word(ptr as *mut u8, released.encode()) };
    let entry = Entry {
        ptr,
        region,
        slot: word.slot as u32,
        size: node.size,
        align: node.align,
    };
    Some((entry, node.link))
}

/// The quarantine's FIFO: user pointers of its oldest and newest buffers,
/// each buffer linking to the next-newer one through its quarantine node.
struct Fifo {
    head: usize,
    tail: usize,
    /// Blocks and bytes held, including any past a cut.
    len: usize,
    bytes: usize,
}

impl Fifo {
    /// Takes the oldest block off a FIFO whose head is set, or cuts the
    /// FIFO there.
    fn pop(&mut self) -> Result<Entry, Forged> {
        // SAFETY: the head is a buffer this FIFO holds.
        match unsafe { take(self.head) } {
            Some((e, next)) => {
                self.head = next;
                if next == 0 {
                    self.tail = 0;
                }
                self.len -= 1;
                self.bytes -= e.size;
                Ok(e)
            }
            None => {
                self.head = 0;
                self.tail = 0;
                Err(Forged)
            }
        }
    }
}

/// The FIFO of deferred frees, bounded by bytes alone (paper §VI): a push
/// evicts oldest-first until the bytes held are back within the quota.
///
/// The FIFO is intrusive: its links live in the quarantine nodes of the
/// freed buffers' headers (see [`Node`]), so it has no slots to run out
/// of. A node that fails its check cuts the FIFO: the buffers from it
/// on are never followed, never released, and stay counted as held.
///
/// One `std::sync::Mutex` holds the FIFO, locked only for a link, an
/// unlink or a walk: no allocator call is ever made under it. On Linux it
/// is a futex word, so taking it never allocates, and a thread that finds
/// it held sleeps instead of spinning behind a preempted holder. The
/// quarantine has a cache line of its own, so the UAF frees that write the
/// lock write no line the unpatched paths read.
#[repr(align(64))]
pub(crate) struct Quarantine {
    fifo: Mutex<Fifo>,
}

impl Quarantine {
    pub(crate) const fn new() -> Self {
        Self {
            fifo: Mutex::new(Fifo {
                head: 0,
                tail: 0,
                len: 0,
                bytes: 0,
            }),
        }
    }

    /// Runs `f` on the FIFO with the lock held. A lock poisoned by a panic
    /// under it is taken as it is, so no allocator path panics on it.
    fn locked<R>(&self, f: impl FnOnce(&mut Fifo) -> R) -> R {
        f(&mut self.fifo.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Appends the freed buffer at `ptr` of `size` bytes, then yields,
    /// oldest first, every block the quarantine must release to get back
    /// within `quota`, or [`Forged`] where its FIFO is cut. Each block is
    /// popped under its own short lock, so the caller releases it with no
    /// lock held. Consume the iterator, or the quarantine stays over quota
    /// until its next push.
    ///
    /// # Safety
    ///
    /// `ptr` must be a freed UAF buffer of this allocator whose word and
    /// node (link 0) are written, and must not be in the quarantine yet.
    pub(crate) unsafe fn push(
        &self,
        ptr: usize,
        size: usize,
        quota: usize,
    ) -> impl Iterator<Item = Result<Entry, Forged>> + '_ {
        self.locked(|st| {
            if st.tail == 0 {
                st.head = ptr;
            } else {
                // SAFETY: a non-zero tail is a buffer this FIFO holds.
                unsafe { Node::set_link(st.tail, ptr) };
            }
            st.tail = ptr;
            st.len += 1;
            st.bytes += size;
        });
        std::iter::from_fn(move || {
            self.locked(|st| (st.bytes > quota && st.head != 0).then(|| st.pop()))
        })
    }

    /// Removes the oldest block, if there is one to follow.
    pub(crate) fn pop(&self) -> Option<Result<Entry, Forged>> {
        self.locked(|st| (st.head != 0).then(|| st.pop()))
    }

    /// Current (blocks, bytes).
    pub(crate) fn usage(&self) -> (usize, usize) {
        self.locked(|st| (st.len, st.bytes))
    }

    /// Whether `ptr` is currently quarantined and reachable: the FIFO
    /// walked, at most its length, up to a node that fails its check.
    pub(crate) fn contains(&self, ptr: usize) -> bool {
        self.locked(|st| {
            let mut at = st.head;
            for _ in 0..st.len {
                if at == 0 {
                    break;
                }
                if at == ptr {
                    return true;
                }
                // SAFETY: `at` is a buffer this FIFO holds, reached through
                // checked links.
                at = unsafe { Node::load(at) }.map_or(0, |n| n.link);
            }
            false
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Writes, below `ptr`, the header a deferred free leaves on an
    /// 8-aligned UAF buffer of `size` bytes patched at slot 0.
    ///
    /// # Safety
    ///
    /// The 24 bytes below `ptr` must be writable.
    unsafe fn park(ptr: usize, size: usize) {
        let word = MetaWord {
            vuln: VulnFlags::USE_AFTER_FREE,
            freed: true,
            guard: 0,
            slot: 0,
        };
        let node = Node {
            link: 0,
            size,
            align: 8,
        };
        // SAFETY: the caller guarantees the header is writable.
        unsafe {
            store_word(ptr as *mut u8, word.encode());
            node.store(ptr);
        }
    }

    /// Headers for the quarantine to link: buffer `i`'s 24-byte header
    /// fills the end of a 32-byte cell, and its user pointer is the cell's
    /// end. No user byte is ever touched.
    struct Arena {
        cells: Vec<[u64; 4]>,
    }

    impl Arena {
        fn new(n: usize) -> Self {
            Self {
                cells: vec![[0; 4]; n],
            }
        }

        /// The user pointers.
        fn ptrs(&mut self) -> Vec<usize> {
            let base = self.cells.as_mut_ptr() as usize;
            (1..=self.cells.len()).map(|i| base + 32 * i).collect()
        }
    }

    /// Frees `ptr` as a `size`-byte UAF buffer into `q`: the pointers the
    /// push evicts, or `None` for a cut.
    fn push(q: &Quarantine, ptr: usize, size: usize, quota: usize) -> Vec<Option<usize>> {
        // SAFETY: `ptr` is an arena pointer, its header is writable and it
        // is pushed once.
        unsafe {
            park(ptr, size);
            q.push(ptr, size, quota)
                .map(|r| r.ok().map(|e| e.ptr))
                .collect()
        }
    }

    #[test]
    fn ring_fifo_and_quota() {
        let mut arena = Arena::new(2);
        let ptrs = arena.ptrs();
        let (a, b) = (ptrs[0], ptrs[1]);
        let q = Quarantine::new();
        assert_eq!(push(&q, a, 60, 100), []);
        assert!(q.contains(a));
        // A second block busts the quota: the older goes.
        assert_eq!(push(&q, b, 60, 100), [Some(a)]);
        assert_eq!(q.usage(), (1, 60));
        assert!(!q.contains(a) && q.contains(b));
    }

    #[test]
    fn ring_reaches_the_exact_configured_quota() {
        // With 1-byte blocks the FIFO saturates at exactly the quota.
        let quota = 500;
        let mut arena = Arena::new(4096);
        let q = Quarantine::new();
        for p in arena.ptrs() {
            push(&q, p, 1, quota);
        }
        assert_eq!(q.usage(), (quota, quota));
    }

    #[test]
    fn the_fifo_holds_more_than_64_blocks() {
        // Only bytes bound the FIFO: the fixed 64-slot rings it replaced
        // evicted the oldest block at the 65th push.
        let mut arena = Arena::new(1000);
        let ptrs = arena.ptrs();
        let q = Quarantine::new();
        for &p in &ptrs {
            assert_eq!(push(&q, p, 1, usize::MAX), []);
        }
        assert_eq!(q.usage(), (ptrs.len(), ptrs.len()));
        assert!(q.contains(ptrs[0]) && q.contains(ptrs[ptrs.len() - 1]));
        // Oldest first, every one of them.
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|r| r.unwrap().ptr)
            .collect();
        assert_eq!(popped, ptrs);
        assert_eq!(q.usage(), (0, 0));
    }

    #[test]
    fn ring_evicts_until_back_within_quota() {
        // Regression: a push used to release at most two blocks, so a large
        // block landing among small ones left the quarantine over quota.
        let mut arena = Arena::new(11);
        let ptrs = arena.ptrs();
        let q = Quarantine::new();
        for &p in &ptrs[..10] {
            assert_eq!(push(&q, p, 10, 100), []);
        }
        assert_eq!(push(&q, ptrs[10], 95, 100).len(), 10);
        assert_eq!(q.usage(), (1, 95), "only the large block is held");
    }

    #[test]
    fn a_forged_node_cuts_the_fifo() {
        let mut arena = Arena::new(5);
        let p = arena.ptrs();
        let q = Quarantine::new();
        for &ptr in &p[..3] {
            assert_eq!(push(&q, ptr, 8, usize::MAX), []);
        }
        // An overflow from below rewrites one bit of the second block's
        // link.
        // SAFETY: the link is the arena word 24 bytes below the pointer.
        unsafe { *((p[1] - 24) as *mut u64) ^= 1 };
        // A zero quota evicts the first block, then finds the forged node
        // and cuts the FIFO there: the rest stay held, unreachable.
        assert_eq!(push(&q, p[3], 8, 0), [Some(p[0]), None]);
        assert_eq!(q.usage(), (3, 24));
        assert!(!q.contains(p[2]) && !q.contains(p[3]));
        assert!(q.pop().is_none(), "nothing past the cut is followed");
        // The FIFO starts anew, still over quota by the held bytes, so a
        // new block goes at once.
        assert_eq!(push(&q, p[4], 8, 0), [Some(p[4])]);
        assert_eq!(q.usage(), (3, 24));
    }

    #[test]
    fn ring_conserves_bytes_under_concurrent_churn() {
        let mut arena = Arena::new(8 * 2000);
        let ptrs = arena.ptrs();
        let q = Quarantine::new();
        let pushed = AtomicU64::new(0);
        let evicted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for chunk in ptrs.chunks(2000) {
                let (q, pushed, evicted) = (&q, &pushed, &evicted);
                s.spawn(move || {
                    for &p in chunk {
                        pushed.fetch_add(48, Ordering::Relaxed);
                        let out = push(q, p, 48, 16 * 1024);
                        evicted.fetch_add(48 * out.len() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        let (_, held) = q.usage();
        assert_eq!(
            pushed.load(Ordering::Relaxed),
            evicted.load(Ordering::Relaxed) + held as u64,
            "bytes pushed = bytes evicted + bytes held"
        );
        // Every pop leaves more than the quota less one block held.
        assert_eq!(held, 16 * 1024 / 48 * 48);
    }
}

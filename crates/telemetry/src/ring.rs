//! The bounded lock-free event ring.
//!
//! A fixed-capacity multi-producer queue in the style of a sequence-locked
//! ring (Vyukov's bounded MPMC, specialized to a single drainer): each
//! cache-line-padded slot carries a sequence word that tells producers and
//! the consumer whose turn it is. A producer claims a ticket with one CAS,
//! writes the three payload words, and publishes with a Release store of
//! the sequence; a full ring makes `push` count a drop and return — it
//! never blocks, never spins unboundedly, and never allocates, so it is
//! safe to call from inside a `#[global_allocator]`.
//!
//! The only non-standard twist: slot sequence words store the *offset* from
//! the slot's index (`seq - index`) so the whole ring is all-zeros at rest
//! and [`EventRing::new`] can be `const` — required for embedding in a
//! `static` allocator — without unsafe initialization tricks.

use crate::event::Event;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Ring capacity in events (power of two).
pub const RING_CAPACITY: usize = 1024;

/// One ring slot: a sequence word plus the three packed payload words, all
/// on a private cache line so neighbouring slots never false-share.
#[repr(align(64))]
struct Slot {
    /// Stores `seq - index` (see module docs); all-zero means "free for
    /// ticket `index`".
    seq: AtomicU64,
    w0: AtomicU64,
    w1: AtomicU64,
    w2: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    w0: AtomicU64::new(0),
    w1: AtomicU64::new(0),
    w2: AtomicU64::new(0),
};

/// A ticket word and a word written by the same side, on a private cache
/// line (head and tail each get their own).
#[repr(align(64))]
struct Line<T>(AtomicU64, T);

/// Bounded lock-free multi-producer event queue with a single drainer.
pub struct EventRing {
    slots: [Slot; RING_CAPACITY],
    /// Next enqueue ticket (= events ever accepted), then the events lost
    /// to overflow.
    tail: Line<AtomicU64>,
    /// Next drain ticket, then the lock it is mutated under: a spin lock
    /// serializing drainers, fine for a call never on the allocation path.
    head: Line<AtomicBool>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("delivered", &self.delivered())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl Default for EventRing {
    fn default() -> Self {
        Self::new()
    }
}

impl EventRing {
    /// An empty ring. `const` so it can live inside a `static` allocator.
    pub const fn new() -> Self {
        Self {
            slots: [EMPTY_SLOT; RING_CAPACITY],
            tail: Line(AtomicU64::new(0), AtomicU64::new(0)),
            head: Line(AtomicU64::new(0), AtomicBool::new(false)),
        }
    }

    /// Capacity in events.
    pub const fn capacity(&self) -> usize {
        RING_CAPACITY
    }

    /// The stored->logical sequence translation for slot `i`.
    #[inline]
    fn seq_of(slot: &Slot, i: usize) -> u64 {
        slot.seq.load(Ordering::Acquire).wrapping_add(i as u64)
    }

    /// Enqueues `ev`. Returns `false` (and counts a drop) when the ring is
    /// full. Wait-free apart from CAS retries against other producers.
    #[inline]
    pub fn push(&self, ev: Event) -> bool {
        let [w0, w1, w2] = ev.pack();
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let i = (tail as usize) & (RING_CAPACITY - 1);
            let slot = &self.slots[i];
            let seq = Self::seq_of(slot, i);
            let dif = seq.wrapping_sub(tail) as i64;
            if dif == 0 {
                match self.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.w0.store(w0, Ordering::Relaxed);
                        slot.w1.store(w1, Ordering::Relaxed);
                        slot.w2.store(w2, Ordering::Relaxed);
                        // Publish: logical seq becomes ticket+1.
                        slot.seq.store(
                            tail.wrapping_add(1).wrapping_sub(i as u64),
                            Ordering::Release,
                        );
                        return true;
                    }
                    Err(t) => tail = t,
                }
            } else if dif < 0 {
                // The consumer has not freed this slot yet: ring full.
                self.tail.1.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                // Another producer claimed this ticket; chase the tail.
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains every currently-published event, oldest first, into `f`.
    /// Events are delivered exactly once across all drains. Returns the
    /// number delivered by this call.
    pub fn drain(&self, mut f: impl FnMut(Event)) -> usize {
        // One drainer at a time; drains are rare observer calls.
        while self
            .head
            .1
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let mut head = self.head.0.load(Ordering::Relaxed);
        let mut n = 0;
        loop {
            let i = (head as usize) & (RING_CAPACITY - 1);
            let slot = &self.slots[i];
            let seq = Self::seq_of(slot, i);
            if seq != head.wrapping_add(1) {
                break; // next slot not published yet
            }
            let w = [
                slot.w0.load(Ordering::Relaxed),
                slot.w1.load(Ordering::Relaxed),
                slot.w2.load(Ordering::Relaxed),
            ];
            // Free the slot for the producer one lap ahead.
            slot.seq.store(
                head.wrapping_add(RING_CAPACITY as u64)
                    .wrapping_sub(i as u64),
                Ordering::Release,
            );
            head = head.wrapping_add(1);
            n += 1;
            if let Some(ev) = Event::unpack(head - 1, w) {
                f(ev);
            }
        }
        self.head.0.store(head, Ordering::Relaxed);
        self.head.1.store(false, Ordering::Release);
        n
    }

    /// Drains into a fresh `Vec` (observer convenience; allocates).
    pub fn drain_vec(&self) -> Vec<Event> {
        let mut out = Vec::new();
        self.drain(|ev| out.push(ev));
        out
    }

    /// Events ever accepted by the ring (delivered or still pending).
    pub fn delivered(&self) -> u64 {
        self.tail.0.load(Ordering::Relaxed)
    }

    /// Events lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.tail.1.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use ht_patch::AllocFn;
    use std::sync::Arc;

    fn ev(size: u64) -> Event {
        Event::unattributed(EventKind::PatchHit, AllocFn::Malloc, size)
    }

    #[test]
    fn push_then_drain_in_order() {
        let r = EventRing::new();
        for i in 0..10 {
            assert!(r.push(ev(i)));
        }
        let got = r.drain_vec();
        assert_eq!(got.len(), 10);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.size, i as u64);
            assert_eq!(e.seq, i as u64, "seq is the global ticket");
        }
        assert_eq!(r.delivered(), 10);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_exactly_and_never_double_delivers() {
        let r = EventRing::new();
        let total = RING_CAPACITY as u64 + 300;
        let mut accepted = 0;
        for i in 0..total {
            if r.push(ev(i)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, RING_CAPACITY as u64);
        assert_eq!(r.dropped(), 300, "dropped count is exact");
        let got = r.drain_vec();
        assert_eq!(got.len(), RING_CAPACITY);
        // The survivors are exactly the first CAPACITY events, once each.
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.size, i as u64);
        }
        assert!(r.drain_vec().is_empty(), "no double delivery");
        // After draining, the ring accepts again.
        assert!(r.push(ev(9999)));
        assert_eq!(r.drain_vec().len(), 1);
    }

    #[test]
    fn interleaved_push_drain_wraps_many_laps() {
        let r = EventRing::new();
        let mut next_expected = 0u64;
        for round in 0..10 {
            for i in 0..700u64 {
                assert!(r.push(ev(round * 700 + i)));
            }
            let got = r.drain_vec();
            assert_eq!(got.len(), 700);
            for e in got {
                assert_eq!(e.size, next_expected);
                next_expected += 1;
            }
        }
        assert_eq!(r.delivered(), 7000);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let r = Arc::new(EventRing::new());
        let threads = 8;
        let per_thread = RING_CAPACITY / 8;
        let mut handles = Vec::new();
        for t in 0..threads {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    assert!(r.push(ev((t * per_thread + i) as u64)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<u64> = r.drain_vec().iter().map(|e| e.size).collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..(threads * per_thread) as u64).collect();
        assert_eq!(got, want, "every event delivered exactly once");
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_producers_with_concurrent_drainer_conserve_events() {
        let r = Arc::new(EventRing::new());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = 4;
        let per_thread = 20_000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    r.push(ev(i));
                }
            }));
        }
        let drainer = {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seen += r.drain(|_| {}) as u64;
                }
                seen += r.drain(|_| {}) as u64;
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let seen = drainer.join().unwrap();
        // Conservation: accepted = seen; accepted + dropped = produced.
        assert_eq!(seen, r.delivered());
        assert_eq!(r.delivered() + r.dropped(), threads * per_thread);
    }
}

//! The real-memory workloads: `HardenedAlloc` driven through raw
//! `GlobalAlloc` calls, since `ht_hardened_alloc::throughput` only offers
//! fixed-size immediate pairs.
//!
//! Each worker thread keeps [`LIVE`] buffers. One op frees the buffer in a
//! seeded random slot and allocates a new one there, inside a call site
//! entered through `ccid::CallScope`. Every buffer carries a tag in its
//! first and last byte that is checked before it is freed.

use crate::gen::{
    site_vuln, AllocStream, Api, Classes, Op, Rng, LIVE, PATCHED_EVERY, PATCHED_SITES, PLAIN_SITES,
};
use crate::stats::{median, Chunk};
use crate::trace::{Span, Tracer, NO_OP, OP};
use ht_hardened_alloc::{ccid, throughput, HardenedAlloc, HardenedStats, PatchEntry};
use ht_patch::{AllocFn, VulnFlags};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Ops per timed batch; an op's latency is its batch's time over `BATCH`.
const BATCH: u64 = 64;
/// In a traced chunk, one op in `SAMPLE` is traced call by call.
const SAMPLE: u64 = 256;
/// Spans each worker thread keeps at most.
const SPAN_LIMIT: usize = 1 << 20;
/// Throughput is sampled once per `CHUNK` batches (~10–30 ms).
const CHUNK: u64 = 512;
/// Reference ops timed right after set-up, to scale the set-up time.
pub const SETUP_REF_OPS: u64 = CHUNK * BATCH;
/// Thread 0 takes a telemetry snapshot every `SNAPSHOT_EVERY` batches.
const SNAPSHOT_EVERY: u64 = 256;
/// The quarantine quota of the patched workload: small, so evictions run
/// throughout the run.
pub const QUARANTINE_QUOTA: usize = 64 * 1024;

/// What the allocator does for a buffer, by the site it was allocated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Unpatched,
    Guarded,
    Zeroed,
    Deferred,
}

impl Class {
    fn of(patched: Option<usize>) -> Self {
        let Some(k) = patched else {
            return Class::Unpatched;
        };
        let v = site_vuln(k);
        if v.contains(VulnFlags::OVERFLOW) {
            Class::Guarded
        } else if v.contains(VulnFlags::USE_AFTER_FREE) {
            Class::Deferred
        } else {
            Class::Zeroed
        }
    }

    fn alloc_span(self) -> &'static str {
        match self {
            Class::Unpatched => "hardened-alloc.alloc.unpatched",
            Class::Guarded => "hardened-alloc.alloc.guarded",
            Class::Zeroed => "hardened-alloc.alloc.zeroed",
            Class::Deferred => "hardened-alloc.alloc.deferred",
        }
    }

    /// Zero-filled buffers take the unpatched free path.
    fn dealloc_span(self) -> &'static str {
        match self {
            Class::Unpatched | Class::Zeroed => "hardened-alloc.dealloc.unpatched",
            Class::Guarded => "hardened-alloc.dealloc.guarded",
            Class::Deferred => "hardened-alloc.dealloc.deferred",
        }
    }
}

const CCID_SPAN: &str = "hardened-alloc.ccid";
const PAGE: usize = 4096;
const REALLOC_SPAN: &str = "hardened-alloc.realloc.unpatched";

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size, 8).expect("sizes are 16 B to 4 KiB")
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    ptr: *mut u8,
    size: usize,
    tag: u8,
    class: Class,
}

/// Allocator-side counts one thread saw while it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    pub registry_live_max: u64,
    pub quarantine_held_max: usize,
}

/// One worker thread: its op stream, its live set and its checks.
struct Worker<'a, A: GlobalAlloc> {
    heap: &'a A,
    stream: AllocStream,
    slots: Vec<Slot>,
    /// Ops whose output check failed.
    failed: u64,
    tr: Tracer,
    /// The allocator whose telemetry this thread snapshots, if any.
    snapshot: Option<&'a HardenedAlloc>,
    observed: Observed,
    next_op: u64,
}

impl<'a, A: GlobalAlloc> Worker<'a, A> {
    fn new(heap: &'a A, stream: AllocStream, tr: Tracer) -> Self {
        Self {
            heap,
            stream,
            slots: Vec::with_capacity(LIVE),
            failed: 0,
            tr,
            snapshot: None,
            observed: Observed::default(),
            next_op: 0,
        }
    }

    /// Allocates into every slot of the live set.
    fn fill(&mut self) {
        for slot in 0..LIVE {
            let op = self.stream.fill(slot);
            let s = self.alloc(&op, 0x5A);
            self.slots.push(s);
        }
    }

    /// Allocates one buffer for `op` inside its call site, checks that
    /// zeroed memory is zero, and writes the tag.
    fn alloc(&mut self, op: &Op, tag: u8) -> Slot {
        let class = Class::of(op.patched);
        let l = layout(op.size);
        let heap = self.heap;
        let scope = self.tr.span(CCID_SPAN, |_| ccid::CallScope::enter(op.site));
        // SAFETY: `l` has a non-zero size.
        let p = self.tr.span(class.alloc_span(), |_| unsafe {
            if op.api == Api::Zeroed {
                heap.alloc_zeroed(l)
            } else {
                heap.alloc(l)
            }
        });
        self.tr.span(CCID_SPAN, |_| drop(scope));
        let s = Slot {
            ptr: p,
            size: op.size,
            tag,
            class,
        };
        if p.is_null() {
            self.failed += 1;
            return s;
        }
        let must_be_zero =
            op.api == Api::Zeroed || class != Class::Unpatched && class != Class::Deferred;
        // SAFETY: `p` is a live allocation of `op.size` >= 16 bytes.
        unsafe {
            if must_be_zero && (*p != 0 || *p.add(op.size - 1) != 0) {
                self.failed += 1;
            }
            *p = tag;
            *p.add(op.size - 1) = tag;
        }
        s
    }

    /// Whether the slot's buffer still carries its tag.
    fn tag_ok(s: &Slot) -> bool {
        // SAFETY: a non-null slot pointer is a live allocation of `s.size`
        // bytes this worker owns.
        !s.ptr.is_null() && unsafe { *s.ptr == s.tag && *s.ptr.add(s.size - 1) == s.tag }
    }

    fn free(&mut self, s: Slot) {
        if s.ptr.is_null() {
            return;
        }
        if !Self::tag_ok(&s) {
            self.failed += 1;
        }
        let heap = self.heap;
        // SAFETY: `s.ptr` came from `heap` with this layout and is freed once.
        self.tr.span(s.class.dealloc_span(), |_| unsafe {
            heap.dealloc(s.ptr, layout(s.size))
        });
    }

    /// One op: free the slot's buffer and allocate its successor.
    fn step(&mut self) {
        let op = self.stream.next();
        let tag = (self.next_op as u8) | 1;
        self.next_op += 1;
        let old = self.slots[op.slot];
        let new = if op.api == Api::Realloc && !old.ptr.is_null() {
            self.realloc(&op, old, tag)
        } else {
            self.free(old);
            self.alloc(&op, tag)
        };
        self.slots[op.slot] = new;
    }

    fn realloc(&mut self, op: &Op, old: Slot, tag: u8) -> Slot {
        if !Self::tag_ok(&old) {
            self.failed += 1;
        }
        let heap = self.heap;
        let scope = self.tr.span(CCID_SPAN, |_| ccid::CallScope::enter(op.site));
        // SAFETY: `old.ptr` came from `heap` with this layout, and the new
        // size is non-zero; the old pointer is not used again.
        let p = self.tr.span(REALLOC_SPAN, |_| unsafe {
            heap.realloc(old.ptr, layout(old.size), op.size)
        });
        self.tr.span(CCID_SPAN, |_| drop(scope));
        let s = Slot {
            ptr: p,
            size: op.size,
            tag,
            class: Class::Unpatched,
        };
        if p.is_null() {
            // The old buffer is still live; free it so the slot stays sound.
            self.free(old);
            self.failed += 1;
            return s;
        }
        // SAFETY: `p` is a live allocation of `op.size` >= 16 bytes.
        unsafe {
            if *p != old.tag || op.size >= old.size && *p.add(old.size - 1) != old.tag {
                self.failed += 1;
            }
            *p = tag;
            *p.add(op.size - 1) = tag;
        }
        s
    }

    /// Runs batches until `dur` has passed. With `trace`, every other
    /// chunk is traced: one op in [`SAMPLE`] is traced call by call, and
    /// the untraced chunks in between measure the same time window.
    fn run(&mut self, dur: Duration, trace: bool, reference: &mut Reference<'_>) -> Vec<Chunk> {
        let mut chunks: Vec<Chunk> = Vec::new();
        let start = Instant::now();
        let mut batches = 0u64;
        let mut chunk = Chunk::default();
        let mut chunk_start = start;
        while start.elapsed() < dur {
            let traced = trace && chunks.len() % 2 == 1;
            chunk.traced = traced;
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let sampled = traced && self.next_op.is_multiple_of(SAMPLE);
                self.tr.on = sampled;
                self.tr.op = self.next_op;
                let root = self.tr.begin(OP);
                self.step();
                self.tr.end(root);
            }
            self.tr.on = false;
            self.tr.op = NO_OP;
            batches += 1;
            if batches.is_multiple_of(SNAPSHOT_EVERY) {
                self.observe(traced);
            }
            chunk
                .lat_ns
                .push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
            chunk.ops += BATCH;
            if batches.is_multiple_of(CHUNK) {
                chunk.secs = chunk_start.elapsed().as_secs_f64();
                chunk.ref_secs = reference.run(chunk.ops);
                chunks.push(std::mem::take(&mut chunk));
                chunk_start = Instant::now();
            }
        }
        chunks
    }

    /// Thread 0 drains telemetry and samples the registry and quarantine.
    fn observe(&mut self, traced: bool) {
        let Some(a) = self.snapshot else { return };
        self.tr.on = traced;
        self.tr
            .span("telemetry.snapshot", |_| a.telemetry_snapshot());
        self.tr.on = false;
        let o = &mut self.observed;
        o.registry_live_max = o.registry_live_max.max(a.registry_stats().live());
        o.quarantine_held_max = o.quarantine_held_max.max(a.quarantine_usage().1);
    }

    /// Frees the whole live set.
    fn drain(&mut self) {
        self.tr.on = false;
        for s in std::mem::take(&mut self.slots) {
            self.free(s);
        }
    }
}

/// Guarded allocations per reference op on the patched workload: 3 of the
/// 5 patched sites guard, and 1 op in 64 enters a patched site.
const GUARDS_PER_OP: f64 = 3.0 / 5.0 / PATCHED_EVERY as f64;

/// The reference work that scales a real-memory chunk's times (see
/// `stats::summarize`): the same kind of op stream on `System`, plus, for
/// the patched workload, the guard-page syscalls at the rate the workload
/// makes them. The change under test touches neither.
struct Reference<'a> {
    w: Worker<'a, System>,
    guards: bool,
    debt: f64,
}

impl Reference<'_> {
    fn new(seed: u64, thread: usize, guards: bool) -> Self {
        let stream = AllocStream::new(seed, 0x2EF + thread as u64, false);
        let mut w = Worker::new(&System, stream, Tracer::new(false));
        w.fill();
        Self {
            w,
            guards,
            debt: 0.0,
        }
    }

    /// Runs `ops` reference ops; returns the seconds they took.
    fn run(&mut self, ops: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..ops {
            self.w.step();
            if self.guards {
                self.debt += GUARDS_PER_OP;
                if self.debt >= 1.0 {
                    self.debt -= 1.0;
                    guard_cycle();
                }
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

/// One guard-page life cycle straight through libc: map a body page and a
/// guard page, write the body, protect the guard, unmap both.
fn guard_cycle() {
    // SAFETY: the region is a fresh private anonymous mapping of two pages
    // that nothing else references; it is written only within its first
    // page and unmapped with the length it was mapped with.
    unsafe {
        let p = libc::mmap(
            std::ptr::null_mut(),
            2 * PAGE,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        );
        assert!(p != libc::MAP_FAILED, "reference mmap failed");
        let body = p.cast::<u8>();
        body.write(1);
        libc::mprotect(body.add(PAGE).cast(), PAGE, libc::PROT_NONE);
        libc::munmap(p, 2 * PAGE);
    }
}

/// A boxed allocator (it is ~430 KiB) with the five workload patches
/// installed and the table frozen.
pub fn patched_alloc() -> Box<HardenedAlloc> {
    let a = Box::new(HardenedAlloc::new());
    let patches: Vec<PatchEntry> = PATCHED_SITES
        .iter()
        .enumerate()
        .map(|(k, &site)| {
            PatchEntry::new(AllocFn::Malloc, throughput::site_ccid(site), site_vuln(k))
        })
        .collect();
    assert_eq!(
        a.install(&patches),
        patches.len(),
        "workload patches install"
    );
    a.freeze();
    a
}

/// The configuration of one real-memory workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub threads: usize,
    /// Whether ops enter patched sites (and telemetry is armed).
    pub patching: bool,
}

/// Everything one session measured and checked.
#[derive(Debug, Default)]
pub struct Session {
    pub setup_s: f64,
    /// Seconds [`SETUP_REF_OPS`] reference ops took right after set-up.
    pub setup_ref_secs: f64,
    /// Per thread, the timed run's chunks.
    pub chunks: Vec<Vec<Chunk>>,
    pub peak_rss_mib: f64,
    /// Ops whose checks failed.
    pub failed: u64,
    /// Allocator-wide checks that failed.
    pub problems: Vec<String>,
    pub classes: Classes,
    pub stats: HardenedStats,
    pub observed: Observed,
    pub spans: Vec<Vec<Span>>,
    pub telemetry: (u64, u64),
}

/// Sets up the workload (allocator, live sets, warm-up), runs it for
/// `run`'s duration (traced or not), drains and checks the allocator.
/// Without `run` it only sets up and tears down, for the set-up time.
pub fn session(cfg: Config, seed: u64, run: Option<(Duration, bool)>) -> Session {
    let start = Instant::now();
    let a = patched_alloc();
    a.set_quarantine_quota(QUARANTINE_QUOTA);
    a.set_telemetry(cfg.patching);
    let barrier = Barrier::new(cfg.threads + 1);
    let go = Barrier::new(cfg.threads + 1);
    let mut out = Session::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let (a, barrier, go) = (&*a, &barrier, &go);
                s.spawn(move || {
                    let stream = AllocStream::new(seed, t as u64, cfg.patching);
                    let tr = match run {
                        Some((_, true)) => Tracer::bounded(SPAN_LIMIT),
                        _ => Tracer::new(false),
                    };
                    let mut w = Worker::new(a, stream, tr);
                    if t == 0 && cfg.patching {
                        w.snapshot = Some(a);
                    }
                    w.fill();
                    for _ in 0..LIVE {
                        w.step();
                    }
                    barrier.wait();
                    // The reference: the same kind of op stream on `System`,
                    // run after every chunk for as many ops (not set-up).
                    let mut reference = Reference::new(seed, t, cfg.patching);
                    let ref_secs = reference.run(SETUP_REF_OPS);
                    go.wait();
                    let chunks =
                        run.map_or_else(Vec::new, |(d, trace)| w.run(d, trace, &mut reference));
                    w.drain();
                    reference.w.drain();
                    (
                        chunks,
                        w.failed,
                        w.stream.classes,
                        w.observed,
                        w.tr.spans,
                        ref_secs,
                    )
                })
            })
            .collect();
        barrier.wait();
        out.setup_s = start.elapsed().as_secs_f64();
        crate::stats::reset_peak_rss();
        go.wait();
        for h in handles {
            let (chunks, failed, classes, observed, spans, ref_secs) =
                h.join().expect("worker thread panicked");
            out.setup_ref_secs = out.setup_ref_secs.max(ref_secs);
            out.failed += failed;
            out.classes.merge(&classes);
            out.observed.registry_live_max = out
                .observed
                .registry_live_max
                .max(observed.registry_live_max);
            out.observed.quarantine_held_max = out
                .observed
                .quarantine_held_max
                .max(observed.quarantine_held_max);
            out.spans.push(spans);
            out.chunks.push(chunks);
        }
    });
    out.peak_rss_mib = crate::stats::peak_rss_mib();
    let snap = a.telemetry_snapshot();
    out.telemetry = (snap.delivered, snap.dropped);
    out.stats = a.stats();
    check_quiescent(&a, &out.classes, &mut out.problems);
    out
}

/// The allocator-wide checks, once every buffer is freed: every patched
/// allocation was defended, and the counters conserve.
fn check_quiescent(a: &HardenedAlloc, want: &Classes, problems: &mut Vec<String>) {
    let st = a.stats();
    let reg = a.registry_stats();
    let held = a.quarantine_usage().1 as u64;
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    check(st.fail_open == 0, format!("fail_open = {}", st.fail_open));
    check(
        st.table_hits == want.table_hits(),
        format!(
            "table_hits {} != patched allocations {}",
            st.table_hits,
            want.table_hits()
        ),
    );
    check(
        st.guard_pages == want.guard_pages(),
        format!("guard_pages {} != {}", st.guard_pages, want.guard_pages()),
    );
    check(
        st.zero_fills == want.zero_fills(),
        format!("zero_fills {} != {}", st.zero_fills, want.zero_fills()),
    );
    check(
        st.quarantined == want.quarantined(),
        format!("quarantined {} != {}", st.quarantined, want.quarantined()),
    );
    check(
        st.interposed_allocs == st.interposed_frees,
        format!(
            "interposed allocs {} != frees {}",
            st.interposed_allocs, st.interposed_frees
        ),
    );
    check(
        st.quarantined_bytes == st.evicted_bytes + held,
        format!(
            "quarantined bytes {} != evicted {} + held {held}",
            st.quarantined_bytes, st.evicted_bytes
        ),
    );
    check(
        reg.inserts == reg.removes + reg.live() && reg.live() == 0,
        format!(
            "registry inserts {} removes {} live {}",
            reg.inserts,
            reg.removes,
            reg.live()
        ),
    );
}

/// The same kind of op stream replayed against `System`: ns per op, the
/// floor under every real-memory rung.
pub fn native_stream_ns(seed: u64, ops: u64) -> f64 {
    let mut w = Worker::new(
        &System,
        AllocStream::new(seed, 0, false),
        Tracer::new(false),
    );
    w.fill();
    for _ in 0..LIVE {
        w.step();
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        w.step();
    }
    let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    w.drain();
    ns
}

/// One rung of the real-memory ladder.
pub struct Rung {
    pub name: &'static str,
    pub ns_per_pair: f64,
}

/// `pairs` allocate–touch–free round trips inside call site `site`, the
/// calls traced (when `tr` is on) under `class`'s span names.
fn pairs<A: GlobalAlloc>(
    heap: &A,
    site: u64,
    class: Class,
    sizes: &[usize],
    pairs: u64,
    tr: &mut Tracer,
) {
    for i in 0..pairs {
        let l = layout(sizes[i as usize % sizes.len()]);
        let scope = tr.span(CCID_SPAN, |_| ccid::CallScope::enter(site));
        // SAFETY: `l` has a non-zero size.
        let p = tr.span(class.alloc_span(), |_| unsafe { heap.alloc(l) });
        tr.span(CCID_SPAN, |_| drop(scope));
        assert!(!p.is_null(), "ladder allocation failed");
        // SAFETY: `p` is a live allocation of `l.size()` bytes, freed once
        // with the layout it was allocated with.
        unsafe {
            p.write(i as u8);
            std::hint::black_box(p.read());
            tr.span(class.dealloc_span(), |_| {
                heap.dealloc(std::hint::black_box(p), l)
            });
        }
    }
}

/// ns per pair of `run(n)`: the median of five chunks after a warm-up.
fn time_pairs(n: u64, mut run: impl FnMut(u64)) -> f64 {
    run(n / 10);
    median(
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                run(n / 5);
                t0.elapsed().as_nanos() as f64 / (n / 5) as f64
            })
            .collect(),
    )
}

/// The real-memory ladder, one layer at a time: native `System`, then an
/// empty-table interposer, a frozen-table miss, zero-fill, quarantine and
/// guard page. Each rung is timed untraced; a second, traced pass adds
/// per-call spans for the layer's call classes, and a telemetry snapshot.
pub fn ladder(seed: u64, tr: &mut Tracer) -> Vec<Rung> {
    let mut rng = Rng::new(seed, 0x1ADD);
    let sizes: Vec<usize> = (0..4096)
        .map(|_| (16.0 * 256f64.powf(rng.below(1 << 20) as f64 / (1u64 << 20) as f64)) as usize)
        .collect();
    let empty = Box::new(HardenedAlloc::new());
    let patched = patched_alloc();
    patched.set_quarantine_quota(QUARANTINE_QUOTA);
    let plain = PLAIN_SITES[0];
    let mut off = Tracer::new(false);
    let mut rungs = vec![Rung {
        name: "hardened-alloc.rung.native_ns",
        ns_per_pair: time_pairs(200_000, |n| {
            pairs(&System, plain, Class::Unpatched, &sizes, n, &mut off)
        }),
    }];
    for (name, a, site, class, n) in [
        (
            "hardened-alloc.rung.interpose_ns",
            &*empty,
            plain,
            Class::Unpatched,
            200_000,
        ),
        (
            "hardened-alloc.rung.miss_ns",
            &*patched,
            plain,
            Class::Unpatched,
            200_000,
        ),
        (
            "hardened-alloc.rung.zero_fill_ns",
            &*patched,
            PATCHED_SITES[3],
            Class::Zeroed,
            100_000,
        ),
        (
            "hardened-alloc.rung.quarantine_ns",
            &*patched,
            PATCHED_SITES[2],
            Class::Deferred,
            100_000,
        ),
        (
            "hardened-alloc.rung.guard_ns",
            &*patched,
            PATCHED_SITES[0],
            Class::Guarded,
            5_000,
        ),
    ] {
        let ns_per_pair = time_pairs(n, |n| pairs(a, site, class, &sizes, n, &mut off));
        let on = std::mem::replace(&mut tr.on, true);
        pairs(a, site, class, &sizes, n / 8, tr);
        tr.span("telemetry.snapshot", |_| a.telemetry_snapshot());
        tr.on = on;
        rungs.push(Rung { name, ns_per_pair });
    }
    rungs
}

/// The exact counts a fixed prefix of the workload produces: `ops` ops
/// per thread after set-up, on a fresh allocator. The same seed must give
/// the same counts.
pub fn exact_counts(cfg: Config, seed: u64, ops: u64) -> (Classes, HardenedStats) {
    let a = patched_alloc();
    a.set_quarantine_quota(QUARANTINE_QUOTA);
    let per_thread: Vec<Classes> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let a = &*a;
                s.spawn(move || {
                    let stream = AllocStream::new(seed, t as u64, cfg.patching);
                    let mut w = Worker::new(a, stream, Tracer::new(false));
                    w.fill();
                    for _ in 0..ops {
                        w.step();
                    }
                    w.drain();
                    w.stream.classes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut classes = Classes::default();
    for c in &per_thread {
        classes.merge(c);
    }
    (classes, a.stats())
}

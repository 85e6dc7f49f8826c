//! Multi-threaded allocation-throughput scaling of the hardened allocator.
//!
//! Not a paper artifact — the paper evaluates single-threaded SPEC and
//! multi-process services — but the property it probes is the paper's
//! central engineering claim: the online defense adds *no global lock* to
//! the unpatched allocation path (the patch table is frozen read-only, and
//! an unpatched free decodes the buffer's own metadata word; only patched
//! buffers take the quarantine's or a region class's short spin lock), so
//! throughput should scale with threads like the native allocator does.
//!
//! Four series, each at 1/2/4/8 threads (capped by `--threads`):
//!
//! * **native** — the system allocator, the ceiling,
//! * **interpose** — [`HardenedAlloc`] with an empty patch table (the
//!   paper's "interposition only" bar),
//! * **hardened** — [`HardenedAlloc`] with 5 patches installed and frozen,
//!   one patched context exercised every 64th allocation (guard page +
//!   quarantine traffic on the patched slice),
//! * **hardened+telemetry** — the same configuration with attack telemetry
//!   armed (event ring + attack-report log), probing the claim
//!   that telemetry-off costs nothing and telemetry-on stays within noise.
//!
//! Workers start behind a [`Barrier`] and time only their own work loop, so
//! thread-spawn cost is excluded; a series' wall time is the slowest
//! worker's. Ops/sec counts allocate–touch–free *pairs* per second summed
//! over threads. Each cell is measured `samples` times and reported as the
//! median with its min and max: on a small shared box one run of a series
//! can read half or twice another.

use crate::Spread;
use ht_hardened_alloc::{throughput, HardenedAlloc};
use ht_jsonio::Json;
use ht_patch::{AllocFn, Patch, VulnFlags};
use std::sync::Barrier;
use std::time::Instant;

/// Allocation size used by every series (a small-object workload).
pub const ALLOC_SIZE: usize = 64;
/// On the hardened series, every `PATCHED_EVERY`-th pair enters a patched
/// calling context.
pub const PATCHED_EVERY: u64 = 64;
/// The instrumented call sites the 5 patches target.
pub const PATCHED_SITES: [u64; 5] = [0xA1, 0xA2, 0xA3, 0xA4, 0xA5];

/// Throughput of the four series at one thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Number of concurrent worker threads.
    pub threads: usize,
    /// System-allocator pairs/sec (summed over threads).
    pub native: Spread,
    /// Empty-table hardened-allocator pairs/sec.
    pub interpose: Spread,
    /// 5-patch frozen-table hardened-allocator pairs/sec.
    pub hardened: Spread,
    /// The hardened series with attack telemetry armed.
    pub telemetry: Spread,
}

/// `x / base`, or 0 when `base` is not positive.
fn ratio(x: f64, base: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    x / base
}

impl ScalingRow {
    /// Median hardened throughput relative to median native throughput.
    pub fn hardened_vs_native(&self) -> f64 {
        ratio(self.hardened.median, self.native.median)
    }

    /// Median hardened throughput relative to median interpose throughput:
    /// what the patched slice costs on top of interposition.
    pub fn hardened_vs_interpose(&self) -> f64 {
        ratio(self.hardened.median, self.interpose.median)
    }

    /// Telemetry-armed throughput relative to the telemetry-off hardened
    /// series (1.0 = telemetry is free), medians.
    pub fn telemetry_vs_hardened(&self) -> f64 {
        ratio(self.telemetry.median, self.hardened.median)
    }
}

/// A heap-allocated empty-table allocator (the "interpose" configuration).
fn empty_alloc() -> Box<HardenedAlloc> {
    Box::new(HardenedAlloc::new())
}

/// The thread counts a `--threads max` run exercises.
pub fn thread_counts(max: usize) -> Vec<usize> {
    [1, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max.max(1))
        .collect()
}

/// Runs `work` on `n` barrier-synchronized threads and returns total
/// pairs/sec, charged to the slowest worker.
fn run_series<F: Fn(usize) -> u64 + Sync>(n: usize, work: F) -> f64 {
    let barrier = Barrier::new(n);
    let results = ht_par::par_spawn(n, |i| {
        barrier.wait();
        let t0 = Instant::now();
        let pairs = work(i);
        (pairs, t0.elapsed().as_secs_f64())
    });
    let total_pairs: u64 = results.iter().map(|&(p, _)| p).sum();
    let slowest = results.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
    if slowest <= 0.0 {
        return 0.0;
    }
    total_pairs as f64 / slowest
}

/// A hardened allocator with the 5 scaling patches installed and the table
/// frozen (the configuration the "hardened" series runs against).
///
/// Boxed: a `HardenedAlloc` embeds its fixed tables, event ring, and
/// counter block (~93 KiB), which in unoptimized builds would otherwise
/// occupy a fresh stack slot per temporary.
pub fn patched_alloc() -> Box<HardenedAlloc> {
    let a = empty_alloc();
    let patches: Vec<Patch> = PATCHED_SITES
        .iter()
        .map(|&site| {
            Patch::new(
                AllocFn::Malloc,
                throughput::site_ccid(site),
                VulnFlags::OVERFLOW,
            )
        })
        .collect();
    let installed = a.install(&patches);
    assert_eq!(installed, patches.len(), "scaling patches must install");
    a.freeze();
    a
}

/// Measures all four series at each thread count in
/// [`thread_counts`]`(max_threads)`, `pairs_per_thread` allocate–touch–free
/// round trips per worker, `samples` times each (interleaved, so a slow
/// spell of the machine hits every series alike).
pub fn rows(max_threads: usize, pairs_per_thread: u64, samples: usize) -> Vec<ScalingRow> {
    let empty = empty_alloc();
    let patched = patched_alloc();
    let armed = patched_alloc();
    armed.set_telemetry(true);
    let patched_run = |a: &HardenedAlloc, i: usize| {
        throughput::hardened_pairs(
            a,
            pairs_per_thread,
            ALLOC_SIZE,
            Some(PATCHED_SITES[i % PATCHED_SITES.len()]),
            PATCHED_EVERY,
        )
        .pairs
    };
    thread_counts(max_threads)
        .into_iter()
        .map(|n| {
            let mut cells: [Vec<f64>; 4] = Default::default();
            for _ in 0..samples.max(1) {
                cells[0].push(run_series(n, |_| {
                    throughput::native_pairs(pairs_per_thread, ALLOC_SIZE)
                }));
                cells[1].push(run_series(n, |_| {
                    throughput::hardened_pairs(&empty, pairs_per_thread, ALLOC_SIZE, None, 1).pairs
                }));
                cells[2].push(run_series(n, |i| patched_run(&patched, i)));
                cells[3].push(run_series(n, |i| patched_run(&armed, i)));
                // Keep the ring from saturating its drop counter.
                armed.drain_events();
            }
            let [native, interpose, hardened, telemetry] = cells.map(Spread::of);
            ScalingRow {
                threads: n,
                native,
                interpose,
                hardened,
                telemetry,
            }
        })
        .collect()
}

/// The committed-baseline JSON shape (`BENCH_scaling.json`): per series,
/// `<series>_ops` is the median pairs/sec and `<series>_ops_min` /
/// `<series>_ops_max` its range, rounded to integers since the wire format
/// is integer-only.
pub fn to_json(rows: &[ScalingRow], pairs_per_thread: u64, samples: usize) -> Json {
    let cells = |r: &ScalingRow| {
        let mut fields = vec![("threads".to_string(), Json::U64(r.threads as u64))];
        for (name, s) in [
            ("native", r.native),
            ("interpose", r.interpose),
            ("hardened", r.hardened),
            ("telemetry", r.telemetry),
        ] {
            fields.extend(s.json_fields(&format!("{name}_ops")));
        }
        Json::Obj(fields)
    };
    Json::Obj(vec![
        ("alloc_size".into(), Json::U64(ALLOC_SIZE as u64)),
        ("pairs_per_thread".into(), Json::U64(pairs_per_thread)),
        ("patched_every".into(), Json::U64(PATCHED_EVERY)),
        ("samples".into(), Json::U64(samples.max(1) as u64)),
        ("rows".into(), Json::Arr(rows.iter().map(cells).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_the_requested_thread_range() {
        assert_eq!(thread_counts(1), vec![1]);
        assert_eq!(thread_counts(2), vec![1, 2]);
        assert_eq!(thread_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_counts(5), vec![1, 2, 4]);
        assert_eq!(thread_counts(0), vec![1], "clamped to one thread");
    }

    #[test]
    fn series_produce_positive_throughput() {
        let rows = rows(2, 500, 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            for s in [r.native, r.interpose, r.hardened, r.telemetry] {
                assert!(s.min > 0.0, "{r:?}");
                assert!(s.min <= s.median && s.median <= s.max, "{r:?}");
            }
        }
    }

    #[test]
    fn telemetry_series_records_its_patch_hits() {
        let a = patched_alloc();
        a.set_telemetry(true);
        throughput::hardened_pairs(&a, 128, ALLOC_SIZE, Some(PATCHED_SITES[0]), PATCHED_EVERY);
        let snap = a.telemetry_snapshot();
        assert!(
            snap.per_patch.iter().any(|p| p.hits > 0),
            "patched slice of the workload was counted: {snap:?}"
        );
    }

    #[test]
    fn patched_alloc_is_frozen_and_hits_its_contexts() {
        let a = patched_alloc();
        assert!(a.is_frozen());
        // A frozen table rejects further installs.
        assert_eq!(
            a.install(&[Patch::new(AllocFn::Malloc, 99, VulnFlags::OVERFLOW)]),
            0
        );
        throughput::hardened_pairs(&a, PATCHED_EVERY, ALLOC_SIZE, Some(PATCHED_SITES[0]), 1);
        let st = a.stats();
        assert_eq!(st.table_hits, PATCHED_EVERY, "every pair was patched");
        assert_eq!(st.guard_pages, PATCHED_EVERY);
    }

    #[test]
    fn json_round_trips() {
        let s = Spread::of(vec![900.9, 880.0, 1234.7]);
        assert_eq!((s.median, s.min, s.max), (900.9, 880.0, 1234.7));
        let rs = [ScalingRow {
            threads: 2,
            native: s,
            interpose: s,
            hardened: s,
            telemetry: s,
        }];
        let j = to_json(&rs, 500, 3);
        let parsed = Json::parse(&j.to_pretty()).expect("self-emitted JSON parses");
        assert_eq!(parsed, j);
    }
}

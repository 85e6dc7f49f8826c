//! Threaded stress and property coverage for the hardened allocator: with
//! 8 threads hammering patched and unpatched contexts, no live pointer is
//! lost or corrupted, and the counters, summed over the threads' own
//! cells and the one shared row, conserve (allocs = frees, tracked
//! inserts = removes + live, quarantined bytes = evicted bytes + bytes
//! still held) — including under eviction-heavy quarantine quotas and
//! with telemetry armed. A layout property checks the metadata header
//! against every size, alignment, API and defense combination.
//!
//! Everything goes through the public API plus the safe
//! [`throughput`](heaptherapy_plus::hardened_alloc::throughput) drivers —
//! no `unsafe` in this file.

use heaptherapy_plus::hardened_alloc::throughput::{self, Api};
use heaptherapy_plus::hardened_alloc::HardenedAlloc;
use heaptherapy_plus::patch::{AllocFn, Patch, VulnFlags};
use proptest::prelude::*;
use std::alloc::Layout;

/// Distinct instrumented call sites, one per patched defense combination.
const OVERFLOW_SITE: u64 = 0xF100;
const UAF_SITE: u64 = 0xF200;
const UR_SITE: u64 = 0xF300;
const OF_UR_SITE: u64 = 0xF400;
const OF_UAF_SITE: u64 = 0xF500;
const SITES: [u64; 5] = [OVERFLOW_SITE, UAF_SITE, UR_SITE, OF_UR_SITE, OF_UAF_SITE];

/// The defenses the patch for `site` asks for.
fn vuln_of(site: u64) -> VulnFlags {
    match site {
        OVERFLOW_SITE => VulnFlags::OVERFLOW,
        UAF_SITE => VulnFlags::USE_AFTER_FREE,
        UR_SITE => VulnFlags::UNINIT_READ,
        OF_UR_SITE => VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ,
        OF_UAF_SITE => VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE,
        _ => VulnFlags::NONE,
    }
}

fn patched_alloc() -> Box<HardenedAlloc> {
    let a = Box::new(HardenedAlloc::new());
    let patches =
        SITES.map(|site| Patch::new(AllocFn::Malloc, throughput::site_ccid(site), vuln_of(site)));
    assert_eq!(a.install(&patches), SITES.len());
    a.freeze();
    a
}

/// 8 threads × alternating vulnerability classes, every 4th allocation in a
/// patched context: exact counter conservation at the end.
#[test]
fn threaded_pairs_conserve_every_counter() {
    const THREADS: usize = 8;
    const PAIRS: u64 = 2000; // divisible by EVERY
    const EVERY: u64 = 4;
    let a = patched_alloc();

    let sites = [OVERFLOW_SITE, UAF_SITE, UR_SITE];
    ht_par::par_spawn(THREADS, |i| {
        let run =
            throughput::hardened_pairs(&a, PAIRS, 32 + i * 8, Some(sites[i % sites.len()]), EVERY);
        assert_eq!(run.pairs, PAIRS);
        assert_eq!(run.dirty_guarded, 0, "guarded buffers read zero");
    });

    let st = a.stats();
    let total = THREADS as u64 * PAIRS;
    let patched_per_thread = PAIRS / EVERY;
    assert_eq!(st.interposed_allocs, total);
    assert_eq!(st.interposed_frees, total);
    assert_eq!(st.table_hits, THREADS as u64 * patched_per_thread);
    // Thread i uses sites[i % 3]: overflow on 0,3,6 (3 threads), UAF on
    // 1,4,7 (3 threads), UR on 2,5 (2 threads).
    assert_eq!(st.guard_pages, 3 * patched_per_thread);
    assert_eq!(st.quarantined, 3 * patched_per_thread);
    assert_eq!(st.zero_fills, 2 * patched_per_thread);
    assert!(st.evictions <= st.quarantined);
    assert_eq!(st.fail_open, 0, "patch table never filled up");
    assert_eq!(st.invalid_frees, 0);

    // Tracked-buffer conservation: every guarded or quarantine-bound
    // allocation was counted once and its free once (UR-only buffers are
    // zeroed, not tracked; a quarantined block counts as freed when its
    // free is deferred).
    let rs = a.registry_stats();
    assert_eq!(rs.inserts, rs.removes + rs.live());
    assert_eq!(rs.live(), 0, "no patched pointer leaked");
    assert_eq!(
        rs.inserts,
        st.guard_pages + st.quarantined,
        "each guarded/deferred allocation registered once"
    );
}

/// 8 threads each hold a large batch of patched allocations live at once,
/// then verify their buffers byte-for-byte before freeing.
#[test]
fn threaded_batches_never_lose_or_corrupt_live_pointers() {
    const THREADS: usize = 8;
    const COUNT: usize = 96;
    let a = patched_alloc();

    ht_par::par_spawn(THREADS, |i| {
        for round in 0..4 {
            let corrupt = throughput::hardened_batch(&a, COUNT, 64 + round * 32, OVERFLOW_SITE);
            assert_eq!(corrupt, 0, "thread {i} round {round}: corrupted buffer");
        }
    });

    let st = a.stats();
    assert_eq!(st.interposed_allocs, st.interposed_frees);
    assert_eq!(st.fail_open, 0);
    assert_eq!(st.guard_pages, (THREADS * 4 * COUNT) as u64);
    let rs = a.registry_stats();
    assert_eq!(rs.live(), 0);
    assert_eq!(rs.inserts, (THREADS * 4 * COUNT) as u64);
}

/// 8 threads of use-after-free frees against a deliberately tiny quarantine
/// quota: blocks cycle through quarantine and back out to the system
/// allocator, the byte ledger conserves exactly, and armed telemetry
/// counts every patched allocation and files the UAF report exactly once.
#[test]
fn eviction_heavy_quarantine_conserves_bytes_and_reports_once() {
    const THREADS: usize = 8;
    const PAIRS: u64 = 512;
    const SIZE: usize = 128;
    const QUOTA: usize = 1024; // eight 128 B blocks
    let a = patched_alloc();
    a.set_quarantine_quota(QUOTA);
    a.set_telemetry(true);

    ht_par::par_spawn(THREADS, |_| {
        throughput::hardened_pairs(&a, PAIRS, SIZE, Some(UAF_SITE), 1);
    });

    let st = a.stats();
    let total = THREADS as u64 * PAIRS;
    assert_eq!(st.quarantined, total, "every free was deferred");
    assert!(st.evictions > 0, "tiny quota must evict: {st:?}");
    let (_, held_bytes) = a.quarantine_usage();
    assert!(held_bytes <= QUOTA, "usage {held_bytes} over quota {QUOTA}");
    assert_eq!(
        st.quarantined_bytes,
        st.evicted_bytes + held_bytes as u64,
        "deferred bytes either evicted or still held"
    );

    let snap = a.telemetry_snapshot();
    // The per-slot counters are exact even though the 1024-slot ring
    // overflowed.
    assert_eq!(snap.per_patch.iter().map(|p| p.hits).sum::<u64>(), total);
    assert_eq!(
        snap.per_patch.iter().map(|p| p.bytes).sum::<u64>(),
        total * SIZE as u64
    );
    // Ring accounting is exact too: per pair one patch-hit and one defer
    // event, plus one evict event per eviction and the single UAF report.
    assert!(
        snap.dropped > 0,
        "workload must overflow the ring: {snap:?}"
    );
    assert_eq!(
        snap.delivered + snap.dropped,
        2 * total + st.evictions + 1,
        "every event either delivered or counted as dropped"
    );
    assert_eq!(snap.reports.len(), 1, "one UAF report, filed exactly once");
}

/// One thread's mixed workload, used as the proptest unit below.
#[derive(Debug, Clone, Copy)]
struct Workload {
    pairs: u64,
    size: usize,
    site: Option<u64>,
    every: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (1u64..200, 1usize..512, 0usize..SITES.len() + 1, 1u64..8).prop_map(
        |(pairs, size, site, every)| Workload {
            pairs,
            size,
            site: site.checked_sub(1).map(|k| SITES[k]),
            every,
        },
    )
}

/// Patched allocations `workloads` make whose patch passes `pred`.
fn patched_where(workloads: &[Workload], pred: impl Fn(VulnFlags) -> bool) -> u64 {
    workloads
        .iter()
        .filter(|w| w.site.is_some_and(|s| pred(vuln_of(s))))
        .map(|w| w.pairs.div_ceil(w.every))
        .sum()
}

/// A quota above all the bytes one case of the conservation property
/// defers, so nothing may evict under it.
const ROOMY_QUOTA: usize = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever mix of patched/unpatched workloads runs on however many
    /// threads, next to a thread of more small UAF frees than the old
    /// fixed 8 × 64 quarantine slots — under an unlimited, a roomy or an
    /// eviction-heavy tiny quota, with telemetry armed or off — the
    /// allocator's books balance afterwards, down to the byte.
    #[test]
    fn stats_conservation_holds_for_arbitrary_threaded_workloads(
        mut workloads in proptest::collection::vec(arb_workload(), 1..6),
        uaf_frees in 600u64..1000,
        uaf_size in 16usize..65,
        quota in prop_oneof![
            Just(usize::MAX),    // effectively unlimited: nothing evicts
            Just(ROOMY_QUOTA),   // holds every block: nothing evicts
            512usize..4096,      // eviction-heavy: most deferred frees cycle out
        ],
        telemetry in any::<bool>(),
    ) {
        workloads.push(Workload {
            pairs: uaf_frees,
            size: uaf_size,
            site: Some(UAF_SITE),
            every: 1,
        });
        let a = patched_alloc();
        a.set_quarantine_quota(quota);
        a.set_telemetry(telemetry);
        let expected_allocs: u64 = workloads.iter().map(|w| w.pairs).sum();
        let expected_hits = patched_where(&workloads, |_| true);
        let expected_patched_bytes: u64 = workloads
            .iter()
            .filter(|w| w.site.is_some())
            .map(|w| w.pairs.div_ceil(w.every) * w.size as u64)
            .sum();
        let has = |bit: VulnFlags| patched_where(&workloads, |v| v.contains(bit));
        // Guarded and quarantine-bound buffers are tracked; UR-only
        // buffers are zeroed in place, never tracked.
        let expected_registered = patched_where(&workloads, |v| {
            v.contains(VulnFlags::OVERFLOW) || v.contains(VulnFlags::USE_AFTER_FREE)
        });

        // OF|UAF regions cycle through the quarantine back into the region
        // cache, and from there to whichever thread allocates next.
        let dirty_guarded: u64 = ht_par::par_spawn(workloads.len(), |i| {
            let w = workloads[i];
            throughput::hardened_pairs(&a, w.pairs, w.size, w.site, w.every).dirty_guarded
        })
        .into_iter()
        .sum();
        prop_assert_eq!(dirty_guarded, 0, "a guarded buffer read nonzero");

        let st = a.stats();
        prop_assert_eq!(st.interposed_allocs, expected_allocs);
        prop_assert_eq!(st.interposed_frees, expected_allocs);
        prop_assert_eq!(st.table_hits, expected_hits);
        prop_assert_eq!(st.guard_pages, has(VulnFlags::OVERFLOW));
        prop_assert_eq!(st.quarantined, has(VulnFlags::USE_AFTER_FREE));
        prop_assert_eq!(st.zero_fills, has(VulnFlags::UNINIT_READ));
        prop_assert!(st.evictions <= st.quarantined);
        prop_assert_eq!(st.fail_open, 0);
        // Byte conservation: whatever the quota forced out plus whatever is
        // still held is exactly what was deferred.
        let (held_blocks, held_bytes) = a.quarantine_usage();
        prop_assert_eq!(st.quarantined_bytes, st.evicted_bytes + held_bytes as u64);
        prop_assert!(held_bytes <= quota);
        if quota >= ROOMY_QUOTA {
            prop_assert!(st.quarantined_bytes < ROOMY_QUOTA as u64);
            prop_assert_eq!(st.evictions, 0);
            prop_assert_eq!(held_blocks as u64, st.quarantined);
            prop_assert!(held_blocks > 512, "{} blocks held", held_blocks);
        }

        let rs = a.registry_stats();
        prop_assert_eq!(rs.inserts, rs.removes + rs.live());
        prop_assert_eq!(rs.live(), 0);
        prop_assert_eq!(rs.inserts, expected_registered);

        // The per-slot counters are exact (the ring may drop under
        // load; the counters never do), and disabled telemetry sees nothing.
        let snap = a.telemetry_snapshot();
        if telemetry {
            prop_assert_eq!(
                snap.per_patch.iter().map(|p| p.hits).sum::<u64>(),
                expected_hits
            );
            prop_assert_eq!(
                snap.per_patch.iter().map(|p| p.bytes).sum::<u64>(),
                expected_patched_bytes
            );
        } else {
            prop_assert!(snap.is_empty());
        }
    }
}

/// Call sites of the layout property: plain, then one per patched defense.
const ROUND_SITES: [Option<u64>; 6] = [
    None,
    Some(OVERFLOW_SITE),
    Some(UAF_SITE),
    Some(UR_SITE),
    Some(OF_UR_SITE),
    Some(OF_UAF_SITE),
];

fn arb_round() -> impl Strategy<Value = (Api, Layout, Option<u64>)> {
    let site = || 0usize..ROUND_SITES.len();
    (
        (0usize..3, 1usize..9001, 0u32..13),
        (site(), 1usize..9001, site()),
    )
        .prop_map(|((api, size, align_log2), (site, old_size, old_site))| {
            let api = match api {
                0 => Api::Malloc,
                1 => Api::Calloc,
                _ => Api::Realloc {
                    from_size: old_size,
                    from_site: ROUND_SITES[old_site],
                },
            };
            let layout = Layout::from_size_align(size, 1 << align_log2).expect("power of two");
            (api, layout, ROUND_SITES[site])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the size, alignment, API and defense, the header keeps
    /// every pointer aligned, defended buffers read zero and abut their
    /// guard, UAF buffers are quarantined with their bytes intact, realloc
    /// carries bytes across plain and patched buffers, and the books
    /// balance afterwards.
    #[test]
    fn every_layout_keeps_alignment_defenses_and_contents(
        rounds in proptest::collection::vec(arb_round(), 1..48),
    ) {
        let a = Box::new(HardenedAlloc::new());
        let patches: Vec<Patch> = AllocFn::ALL
            .iter()
            .flat_map(|&fun| {
                SITES.map(|site| Patch::new(fun, throughput::site_ccid(site), vuln_of(site)))
            })
            .collect();
        prop_assert_eq!(a.install(&patches), patches.len());
        a.freeze();
        for &(api, l, site) in &rounds {
            let vuln = site.map_or(VulnFlags::NONE, vuln_of);
            let round = throughput::checked_round(&a, api, l, site);
            let case = format!("{api:?} {l:?} in {vuln}: {round:?}");
            prop_assert!(round.aligned && round.prefix_kept, "{}", case);
            // The default quota holds every deferred free, and the FIFO's
            // links never land in the freed buffer's bytes.
            prop_assert_eq!(round.quarantined, vuln.contains(VulnFlags::USE_AFTER_FREE), "{}", case);
            prop_assert!(round.freed_bytes_kept, "{}", case);
            if api == Api::Calloc
                || vuln.contains(VulnFlags::OVERFLOW)
                || vuln.contains(VulnFlags::UNINIT_READ)
            {
                prop_assert!(round.reads_zero, "{}", case);
            }
            match round.guard_gap {
                Some(gap) => prop_assert!(vuln.contains(VulnFlags::OVERFLOW) && gap < l.align(), "{}", case),
                None => prop_assert!(!vuln.contains(VulnFlags::OVERFLOW), "{}", case),
            }
        }
        let st = a.stats();
        prop_assert_eq!(st.interposed_allocs, st.interposed_frees);
        prop_assert_eq!((st.fail_open, st.invalid_frees), (0, 0));
        prop_assert_eq!(a.registry_stats().live(), 0);
        prop_assert_eq!(st.quarantined_bytes, st.evicted_bytes + a.quarantine_usage().1 as u64);
    }
}

//! Backend parity: the simulated defense (`DefendedBackend`) and the real
//! allocator (`HardenedAlloc`), loaded from one configuration file and
//! driven by one allocation trace, must account for it identically — the
//! same per-patch rows, the same attack reports, down to the slot that
//! names each patch, the same defense events in the same order, and the
//! same totals of table hits, guard pages and quarantined blocks. One
//! recorder, `ht_telemetry::Recorder`, emits for both.
//!
//! Both backends load the file through their public configuration entry
//! points, so the oracle holds for whatever table each of them builds.
//! Their quarantines agree too: one FIFO each, evicting oldest-first once
//! the byte quota is passed, so the same quota evicts the same blocks in
//! the same order. Memalign
//! patches fire on both, though the real allocator keys them under
//! malloc, and the SAMATE memalign cases' own patches guard real memory.

use heaptherapy_plus::callgraph::FuncId;
use heaptherapy_plus::core::{HeapTherapy, PipelineConfig};
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig, DefenseStats};
use heaptherapy_plus::encoding::Ccid;
use heaptherapy_plus::hardened_alloc::{ccid, HardenedAlloc, HardenedStats};
use heaptherapy_plus::patch::{
    from_config_text, to_config_text, AllocFn, Patch, PatchTable, VulnFlags,
};
use heaptherapy_plus::simprog::{AllocRequest, HeapBackend};
use heaptherapy_plus::telemetry::{EventKind, TelemetrySnapshot};
use heaptherapy_plus::vulnapps;
use std::alloc::{GlobalAlloc, Layout};
use std::collections::BTreeSet;

/// Call sites of the trace: the API each calls, its alignment and the bits
/// of its patch. Four patched malloc sites (OF, UAF, UR, OF|UR), three
/// patched memalign sites (OF, UAF, UR), and two that no patch names.
const SITES: [(u64, AllocFn, u64, u8); 9] = [
    (0x0F, AllocFn::Malloc, 16, 0b001),
    (0xAF, AllocFn::Malloc, 16, 0b010),
    (0x0B, AllocFn::Malloc, 16, 0b100),
    (0xFB, AllocFn::Malloc, 16, 0b101),
    (0x1F, AllocFn::Memalign, 64, 0b001),
    (0x1A, AllocFn::Memalign, 4096, 0b010),
    (0x1B, AllocFn::Memalign, 32, 0b100),
    (0x01, AllocFn::Malloc, 16, 0),
    (0x02, AllocFn::Malloc, 16, 0),
];

/// The allocation trace: `(site index, size)`, each buffer freed at once.
fn trace() -> Vec<(usize, u64)> {
    (0..120u64)
        .map(|i| ((i * 7 % 9) as usize, 16 + (i * 37) % 3000))
        .collect()
}

/// The CCID the real allocator reads inside call site `site`.
fn site_ccid(site: u64) -> u64 {
    ccid::with_site(site, ccid::current)
}

/// The configuration both backends load, sorted by `(FUN, CCID)` as the
/// pipeline writes it.
fn config() -> String {
    let mut patches: Vec<Patch> = SITES
        .iter()
        .filter(|&&(.., bits)| bits != 0)
        .map(|&(site, fun, _, bits)| {
            Patch::new(fun, site_ccid(site), VulnFlags::from_bits_truncate(bits))
        })
        .collect();
    patches.sort_by_key(Patch::key);
    to_config_text(&patches)
}

/// The trace through the simulated defense, with telemetry `armed` or
/// not, under `quota` or the default one.
fn simulated(
    config: &str,
    armed: bool,
    quota: Option<usize>,
) -> (Option<TelemetrySnapshot>, DefenseStats) {
    let patches = from_config_text(config).expect("config parses");
    let mut cfg = DefenseConfig {
        telemetry: armed,
        ..DefenseConfig::with_table(PatchTable::from_patches(patches))
    };
    if let Some(quota) = quota {
        cfg.quarantine_quota = quota as u64;
    }
    let mut d = DefendedBackend::new(cfg);
    for (site, size) in trace() {
        let (site, fun, align, _) = SITES[site];
        let req = AllocRequest {
            fun,
            size,
            align,
            ccid: Ccid(site_ccid(site)),
            target: FuncId(0),
            old_ptr: None,
        };
        let p = d.alloc(&req).expect("simulated allocation");
        assert!(d.free(p).is_ok());
    }
    (d.telemetry_snapshot(), d.stats())
}

/// The trace through `HardenedAlloc`, with telemetry `armed` or not,
/// under `quota` or the default one.
fn real(config: &str, armed: bool, quota: Option<usize>) -> (TelemetrySnapshot, HardenedStats) {
    let a = Box::new(HardenedAlloc::new());
    assert_eq!(a.install_from_config(config).expect("config parses"), 7);
    a.freeze();
    a.set_telemetry(armed);
    if let Some(quota) = quota {
        a.set_quarantine_quota(quota);
    }
    for (site, size) in trace() {
        let (site, _, align, _) = SITES[site];
        let layout = Layout::from_size_align(size as usize, align as usize).unwrap();
        let _scope = ccid::CallScope::enter(site);
        // SAFETY: the layout has a non-zero size; the buffer is freed once
        // with the layout it was allocated with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
    }
    let snap = a.telemetry_snapshot();
    assert_eq!(a.stats().invalid_frees, 0);
    assert_eq!(a.registry_stats().live(), 0, "every tracked buffer freed");
    (snap, a.stats())
}

type ReportKey = (AllocFn, u64, VulnFlags, u32);

fn report_keys(s: &TelemetrySnapshot) -> BTreeSet<ReportKey> {
    s.reports
        .iter()
        .map(|r| (r.fun, r.ccid, r.vuln, r.slot))
        .collect()
}

/// The defense events of one snapshot in delivery order, as `(kind, fun,
/// ccid, vuln, slot, size)` tuples.
fn defense_events(s: &TelemetrySnapshot) -> Vec<(u8, AllocFn, u64, VulnFlags, u32, u64)> {
    s.events
        .iter()
        .map(|e| (e.kind as u8, e.fun, e.ccid, e.vuln, e.slot, e.size))
        .collect()
}

#[test]
fn both_backends_account_for_one_trace_identically() {
    let config = config();
    let ((sim, sim_stats), (real, real_stats)) =
        (simulated(&config, true, None), real(&config, true, None));
    let sim = sim.expect("telemetry armed");
    assert_eq!((sim.dropped, real.dropped), (0, 0), "no event lost");

    let slots: Vec<usize> = sim.per_patch.iter().map(|r| r.slot).collect();
    assert_eq!(
        slots,
        [0, 1, 2, 3, 4, 5, 6],
        "every patch fired, at its line's slot"
    );
    let rows = |s: &TelemetrySnapshot| -> Vec<_> {
        s.per_patch
            .iter()
            .map(|r| (r.slot, r.fun, r.ccid, r.vuln, r.hits, r.bytes))
            .collect()
    };
    assert_eq!(rows(&sim), rows(&real), "per-patch rows");

    // One report per (FUN, CCID, T): malloc OF, UAF, UR, and OF + UR, and
    // memalign OF, UAF and UR, filed in the same order with the same slots
    // and sizes.
    assert_eq!(report_keys(&sim).len(), 8);
    assert_eq!(sim.reports.len(), 8);
    let memalign = sim.reports.iter().filter(|r| r.fun == AllocFn::Memalign);
    assert_eq!(memalign.count(), 3, "memalign reports name memalign");
    assert_eq!(sim.reports, real.reports, "attack reports");

    assert_eq!(
        defense_events(&sim),
        defense_events(&real),
        "defense events"
    );

    let r = real_stats;
    let s = sim_stats;
    assert_eq!(
        (r.table_hits, r.guard_pages, r.quarantined),
        (s.table_hits, s.guard_pages, s.quarantined_blocks),
        "table hits, guard pages, quarantined blocks"
    );
}

/// Under one small quota both quarantines evict the same blocks, in the
/// same order, each eviction among the other defense events where the
/// other backend delivers it.
#[test]
fn one_small_quota_evicts_alike_on_both_backends() {
    const QUOTA: usize = 4000;
    let config = config();
    let (sim, _) = simulated(&config, true, Some(QUOTA));
    let (real, real_stats) = real(&config, true, Some(QUOTA));
    let sim = sim.expect("telemetry armed");
    assert_eq!((sim.dropped, real.dropped), (0, 0), "no event lost");
    let events = defense_events(&sim);
    let evictions = EventKind::QuarantineEvict as u8;
    let evicted = events.iter().filter(|e| e.0 == evictions).count();
    assert_eq!(evicted, 24, "the quota evicts");
    assert_eq!(real_stats.evictions, evicted as u64);
    assert_eq!(events, defense_events(&real), "defense events");
}

#[test]
fn a_never_armed_run_records_nothing_and_defends_alike() {
    let config = config();
    let (sim_snap, sim_stats) = simulated(&config, false, None);
    assert!(
        sim_snap.is_none(),
        "a simulator without telemetry has no snapshot"
    );
    let (real_snap, real_stats) = real(&config, false, None);
    assert!(
        real_snap.is_empty(),
        "a disarmed allocator observed {real_snap:?}"
    );
    assert_eq!(real_snap.delivered, 0);
    assert_eq!(
        sim_stats,
        simulated(&config, true, None).1,
        "simulated stats"
    );
    assert_eq!(real_stats, real(&config, true, None).1, "real stats");
}

/// The size of the quarantine oracle's UAF frees.
const UAF_SIZE: usize = 64;

/// `frees` frees of `UAF_SIZE`-byte UAF-patched buffers through the
/// simulated defense, under `quota` or its default: (evicted, held) blocks.
fn simulated_uaf_frees(frees: usize, quota: Option<usize>) -> (u64, usize) {
    let patches = from_config_text(&config()).expect("config parses");
    let mut cfg = DefenseConfig::with_table(PatchTable::from_patches(patches));
    if let Some(quota) = quota {
        cfg.quarantine_quota = quota as u64;
    }
    let mut d = DefendedBackend::new(cfg);
    for _ in 0..frees {
        let req = AllocRequest {
            fun: AllocFn::Malloc,
            size: UAF_SIZE as u64,
            align: 16,
            ccid: Ccid(site_ccid(0xAF)),
            target: FuncId(0),
            old_ptr: None,
        };
        let p = d.alloc(&req).expect("simulated allocation");
        assert!(d.free(p).is_ok());
    }
    (d.quarantine().evictions(), d.quarantine().len())
}

/// The same frees through `HardenedAlloc`.
fn real_uaf_frees(frees: usize, quota: Option<usize>) -> (u64, usize) {
    let a = Box::new(HardenedAlloc::new());
    a.install_from_config(&config()).expect("config parses");
    if let Some(quota) = quota {
        a.set_quarantine_quota(quota);
    }
    let layout = Layout::from_size_align(UAF_SIZE, 16).unwrap();
    for _ in 0..frees {
        let _scope = ccid::CallScope::enter(0xAF);
        // SAFETY: the layout has a non-zero size; the buffer is freed once
        // with the layout it was allocated with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
    }
    let st = a.stats();
    assert_eq!(st.invalid_frees, 0);
    assert_eq!(st.quarantined, frees as u64);
    (st.evictions, a.quarantine_usage().0)
}

#[test]
fn both_quarantines_evict_by_bytes_alone() {
    const FREES: usize = 5000;
    let all_held = (0, FREES);
    assert_eq!(
        simulated_uaf_frees(FREES, None),
        all_held,
        "simulated, default quota"
    );
    assert_eq!(real_uaf_frees(FREES, None), all_held, "real, default quota");
    let none_held = (FREES as u64, 0);
    assert_eq!(
        simulated_uaf_frees(FREES, Some(0)),
        none_held,
        "simulated, quota 0"
    );
    assert_eq!(real_uaf_frees(FREES, Some(0)), none_held, "real, quota 0");
}

/// The quota sweep of EXPERIMENTS.md: 10 000 frees hold as many whole
/// blocks as each quota fits, on both backends.
#[test]
fn the_quota_sweep_holds_the_same_blocks_on_both_backends() {
    const FREES: usize = 10_000;
    for (quota, held) in [
        (4 << 10, 64),
        (64 << 10, 1024),
        (1 << 20, FREES),
        (16 << 20, FREES),
    ] {
        let expected = ((FREES - held) as u64, held);
        let sim = simulated_uaf_frees(FREES, Some(quota));
        assert_eq!(sim, expected, "simulated, quota {quota}");
        assert_eq!(
            real_uaf_frees(FREES, Some(quota)),
            expected,
            "real, quota {quota}"
        );
    }
}

/// The memalign cases of Table II: each app's own patch, generated from
/// its attack, installed into `HardenedAlloc`, guards one placed buffer at
/// every alignment, and its reports name memalign.
#[test]
fn samate_memalign_patches_fire_on_real_memory() {
    let ht = HeapTherapy::new(PipelineConfig::default());
    let apps: Vec<_> = vulnapps::table2_suite()
        .into_iter()
        .filter(|app| app.name.contains("memalign"))
        .collect();
    let names: Vec<&str> = apps.iter().map(|app| &app.name[..9]).collect();
    assert_eq!(
        names,
        [
            "samate-03",
            "samate-07",
            "samate-11",
            "samate-15",
            "samate-18"
        ]
    );
    for app in &apps {
        let ip = ht.instrument(&app.program);
        let patches = ht
            .analyze_attack(&ip, app.patching_input(), &app.name)
            .patches;
        let config = to_config_text(&patches);
        let [patch] = &patches[..] else {
            panic!("{}: one patch expected, got {config}", app.name)
        };
        assert_eq!(patch.alloc_fn, AllocFn::Memalign, "{}: {config}", app.name);
        let a = Box::new(HardenedAlloc::new());
        assert_eq!(a.install_from_config(&config).expect("config parses"), 1);
        a.set_telemetry(true);
        for (n, align) in [16, 64, 4096].into_iter().enumerate() {
            let layout = Layout::from_size_align(64, align).unwrap();
            // Entered from the thread's entry context, the scope's CCID is
            // the patch's.
            let _scope = ccid::CallScope::enter(patch.ccid);
            assert_eq!(ccid::current(), patch.ccid);
            // SAFETY: the layout has a non-zero size; the buffer is freed
            // once with the layout it was allocated with.
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null() && (p as usize).is_multiple_of(align));
                assert_eq!(
                    a.stats().table_hits,
                    n as u64 + 1,
                    "{} at alignment {align}",
                    app.name
                );
                a.dealloc(p, layout);
            }
        }
        let st = a.stats();
        let defended = |t: VulnFlags| u64::from(patch.vuln.contains(t)) * 3;
        assert_eq!(
            (st.guard_pages, st.quarantined, st.zero_fills, st.fail_open),
            (
                defended(VulnFlags::OVERFLOW),
                defended(VulnFlags::USE_AFTER_FREE),
                defended(VulnFlags::UNINIT_READ),
                0
            ),
            "{}",
            app.name
        );
        let snap = a.telemetry_snapshot();
        assert!(!snap.reports.is_empty(), "{}: no report", app.name);
        assert!(
            snap.reports.iter().all(|r| r.fun == AllocFn::Memalign),
            "{}: {:?}",
            app.name,
            snap.reports
        );
        let rows: Vec<_> = snap.per_patch.iter().map(|r| (r.fun, r.hits)).collect();
        assert_eq!(rows, [(AllocFn::Memalign, 3)], "{}", app.name);
    }
}

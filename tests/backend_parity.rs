//! Backend parity: the simulated defense (`DefendedBackend`) and the real
//! allocator (`HardenedAlloc`), loaded from one configuration file and
//! driven by one allocation trace, must account for it identically — the
//! same per-patch rows, the same attack reports, down to the slot that
//! names each patch, and the same totals of table hits, guard pages and
//! quarantined blocks.
//!
//! Both backends load the file through their public configuration entry
//! points, so the oracle holds for whatever table each of them builds.
//! Their quarantines agree too: only the byte quota evicts.

use heaptherapy_plus::callgraph::FuncId;
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig, DefenseStats};
use heaptherapy_plus::encoding::Ccid;
use heaptherapy_plus::hardened_alloc::{ccid, HardenedAlloc, HardenedStats};
use heaptherapy_plus::patch::{
    from_config_text, to_config_text, AllocFn, Patch, PatchTable, VulnFlags,
};
use heaptherapy_plus::simprog::{AllocRequest, HeapBackend};
use heaptherapy_plus::telemetry::{EventKind, TelemetryConfig, TelemetrySnapshot};
use std::alloc::{GlobalAlloc, Layout};
use std::collections::BTreeSet;

/// Call sites of the trace with the bits of their patch: four patched
/// (OF, UAF, UR, OF|UR) and two that no patch names.
const SITES: [(u64, u8); 6] = [
    (0x0F, 0b001),
    (0xAF, 0b010),
    (0x0B, 0b100),
    (0xFB, 0b101),
    (0x01, 0),
    (0x02, 0),
];

/// The allocation trace: `(site index, size)`, each buffer freed at once.
fn trace() -> Vec<(usize, u64)> {
    (0..120u64)
        .map(|i| ((i * 7 % 6) as usize, 16 + (i * 37) % 3000))
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
        .filter(|&&(_, bits)| bits != 0)
        .map(|&(site, bits)| {
            Patch::new(
                AllocFn::Malloc,
                site_ccid(site),
                VulnFlags::from_bits_truncate(bits),
            )
        })
        .collect();
    patches.sort_by_key(Patch::key);
    to_config_text(&patches)
}

fn simulated(config: &str) -> (TelemetrySnapshot, DefenseStats) {
    let patches = from_config_text(config).expect("config parses");
    let mut d = DefendedBackend::new(DefenseConfig {
        telemetry: TelemetryConfig::enabled(),
        ..DefenseConfig::with_table(PatchTable::from_patches(patches))
    });
    for (site, size) in trace() {
        let req = AllocRequest {
            fun: AllocFn::Malloc,
            size,
            align: 16,
            ccid: Ccid(site_ccid(SITES[site].0)),
            target: FuncId(0),
            old_ptr: None,
        };
        let p = d.alloc(&req).expect("simulated allocation");
        assert!(d.free(p).is_ok());
    }
    let snap = d.telemetry_snapshot().expect("telemetry armed");
    (snap, d.stats())
}

fn real(config: &str) -> (TelemetrySnapshot, HardenedStats) {
    let a = Box::new(HardenedAlloc::new());
    assert_eq!(a.install_from_config(config).expect("config parses"), 4);
    a.freeze();
    a.set_telemetry(true);
    for (site, size) in trace() {
        let layout = Layout::from_size_align(size as usize, 16).unwrap();
        let _scope = ccid::CallScope::enter(SITES[site].0);
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

/// The defense events of one snapshot, as sorted `(kind, fun, ccid, vuln,
/// slot, size)` tuples. Evictions are left out: the two quarantines split
/// their quota differently.
fn defense_events(s: &TelemetrySnapshot) -> Vec<(u8, AllocFn, u64, VulnFlags, u32, u64)> {
    let mut events: Vec<_> = s
        .events
        .iter()
        .filter(|e| e.kind != EventKind::QuarantineEvict)
        .map(|e| (e.kind as u8, e.fun, e.ccid, e.vuln, e.slot, e.size))
        .collect();
    events.sort_unstable();
    events
}

#[test]
fn both_backends_account_for_one_trace_identically() {
    let config = config();
    let ((sim, sim_stats), (real, real_stats)) = (simulated(&config), real(&config));
    assert_eq!((sim.dropped, real.dropped), (0, 0), "no event lost");

    let slots: Vec<usize> = sim.per_patch.iter().map(|r| r.slot).collect();
    assert_eq!(slots, [0, 1, 2, 3], "every patch fired, at its line's slot");
    let rows = |s: &TelemetrySnapshot| -> Vec<_> {
        s.per_patch
            .iter()
            .map(|r| (r.slot, r.fun, r.ccid, r.vuln, r.hits, r.bytes))
            .collect()
    };
    assert_eq!(rows(&sim), rows(&real), "per-patch rows");

    // One report per (FUN, CCID, T): OF, UAF, UR, and OF + UR.
    assert_eq!(report_keys(&sim).len(), 5);
    assert_eq!(report_keys(&sim), report_keys(&real), "attack reports");

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

/// UAF frees of the quarantine oracle, and their size.
const UAF_FREES: usize = 5000;
const UAF_SIZE: usize = 64;

/// `UAF_FREES` frees of `UAF_SIZE`-byte UAF-patched buffers through the
/// simulated defense, under `quota` or its default: (evicted, held) blocks.
fn simulated_uaf_frees(quota: Option<u64>) -> (u64, usize) {
    let patches = from_config_text(&config()).expect("config parses");
    let mut cfg = DefenseConfig::with_table(PatchTable::from_patches(patches));
    if let Some(quota) = quota {
        cfg.quarantine_quota = quota;
    }
    let mut d = DefendedBackend::new(cfg);
    for _ in 0..UAF_FREES {
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
fn real_uaf_frees(quota: Option<usize>) -> (u64, usize) {
    let a = Box::new(HardenedAlloc::new());
    a.install_from_config(&config()).expect("config parses");
    if let Some(quota) = quota {
        a.set_quarantine_quota(quota);
    }
    let layout = Layout::from_size_align(UAF_SIZE, 16).unwrap();
    for _ in 0..UAF_FREES {
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
    assert_eq!(st.quarantined, UAF_FREES as u64);
    (st.evictions, a.quarantine_usage().0)
}

#[test]
fn both_quarantines_evict_by_bytes_alone() {
    let all_held = (0, UAF_FREES);
    assert_eq!(
        simulated_uaf_frees(None),
        all_held,
        "simulated, default quota"
    );
    assert_eq!(real_uaf_frees(None), all_held, "real, default quota");
    let none_held = (UAF_FREES as u64, 0);
    assert_eq!(
        simulated_uaf_frees(Some(0)),
        none_held,
        "simulated, quota 0"
    );
    assert_eq!(real_uaf_frees(Some(0)), none_held, "real, quota 0");
}

//! Backend parity: the simulated defense (`DefendedBackend`) and the real
//! allocator (`HardenedAlloc`), loaded from one configuration file and
//! driven by one allocation trace, must account for it identically — the
//! same per-patch rows and the same attack reports, down to the slot that
//! names each patch.
//!
//! Both backends load the file through their public configuration entry
//! points, so the oracle holds for whatever table each of them builds.

use heaptherapy_plus::callgraph::FuncId;
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig};
use heaptherapy_plus::encoding::Ccid;
use heaptherapy_plus::hardened_alloc::{ccid, HardenedAlloc};
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

fn simulated(config: &str) -> TelemetrySnapshot {
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
    d.telemetry_snapshot().expect("telemetry armed")
}

fn real(config: &str) -> TelemetrySnapshot {
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
    snap
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
    let (sim, real) = (simulated(&config), real(&config));
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
}

//! Real-memory cost of the hardened allocator: allocation/free throughput
//! through `HardenedAlloc` vs. the system allocator, for unpatched traffic,
//! patched-UR, patched-UAF, and guarded (patched-OF) contexts.
//!
//! This is the `#[global_allocator]` deliverable's analogue of Fig. 8: the
//! unpatched path should cost one table probe over `System`, and each
//! defense should price in honestly (a guarded buffer reuses a cached
//! region and zeroes its body; only a cache miss pays `mmap`+`mprotect`).

use criterion::{criterion_group, criterion_main, Criterion};
use ht_hardened_alloc::{ccid, HardenedAlloc, PatchEntry};
use ht_patch::{AllocFn, VulnFlags};
use std::alloc::{GlobalAlloc, Layout, System};

const SITE_UR: u64 = 0x11;
const SITE_UAF: u64 = 0x22;
const SITE_OF: u64 = 0x33;

fn bench_hardened(c: &mut Criterion) {
    static ALLOC: HardenedAlloc = HardenedAlloc::new();
    let ur = ccid::with_site(SITE_UR, ccid::current);
    let uaf = ccid::with_site(SITE_UAF, ccid::current);
    let of = ccid::with_site(SITE_OF, ccid::current);
    ALLOC.install(&[
        PatchEntry::new(AllocFn::Malloc, ur, VulnFlags::UNINIT_READ),
        PatchEntry::new(AllocFn::Malloc, uaf, VulnFlags::USE_AFTER_FREE),
        PatchEntry::new(AllocFn::Malloc, of, VulnFlags::OVERFLOW),
    ]);
    ALLOC.set_quarantine_quota(1 << 20);

    let layout = Layout::from_size_align(256, 16).unwrap();
    let mut group = c.benchmark_group("hardened_alloc_real_memory");

    group.bench_function("system_baseline", |b| {
        b.iter(|| unsafe {
            let p = System.alloc(layout);
            std::ptr::write_volatile(p, 1);
            System.dealloc(p, layout);
        })
    });
    group.bench_function("unpatched_context", |b| {
        b.iter(|| unsafe {
            let p = ALLOC.alloc(layout);
            std::ptr::write_volatile(p, 1);
            ALLOC.dealloc(p, layout);
        })
    });
    group.bench_function("patched_ur_zero_fill", |b| {
        b.iter(|| unsafe {
            let _site = ccid::CallScope::enter(SITE_UR);
            let p = ALLOC.alloc(layout);
            std::ptr::write_volatile(p, 1);
            ALLOC.dealloc(p, layout);
        })
    });
    group.bench_function("patched_uaf_quarantine", |b| {
        b.iter(|| unsafe {
            let _site = ccid::CallScope::enter(SITE_UAF);
            let p = ALLOC.alloc(layout);
            std::ptr::write_volatile(p, 1);
            ALLOC.dealloc(p, layout);
        })
    });
    group.bench_function("patched_of_guard_page", |b| {
        b.iter(|| unsafe {
            let _site = ccid::CallScope::enter(SITE_OF);
            let p = ALLOC.alloc(layout);
            std::ptr::write_volatile(p, 1);
            ALLOC.dealloc(p, layout);
        })
    });
    group.finish();

    let st = ALLOC.stats();
    println!(
        "\nhardened-alloc stats: {} interposed, {} hits, {} guard pages, \
         {} zero-fills, {} quarantined, {} evictions\n",
        st.interposed_allocs,
        st.table_hits,
        st.guard_pages,
        st.zero_fills,
        st.quarantined,
        st.evictions
    );
}

criterion_group!(benches, bench_hardened);
criterion_main!(benches);

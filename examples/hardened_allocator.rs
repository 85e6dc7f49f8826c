//! The defenses on *real* memory: `HardenedAlloc` as this process's
//! `#[global_allocator]`.
//!
//! Every `Box`, `Vec` and `String` in this program, and every thread it
//! spawns, flows through the HeapTherapy+ interposition and carries its
//! metadata word; the patched allocation site gets a real `mmap`'d guard
//! page (check `/proc/self/maps` output below), a quarantined free, and
//! zero-filling; a guarded region freed outside the quarantine is kept
//! mapped and handed to the next guarded buffer. The program exits non-zero
//! if any check fails.
//!
//! ```sh
//! cargo run --release --example hardened_allocator
//! ```

use heaptherapy_plus::hardened_alloc::{ccid, HardenedAlloc};
use heaptherapy_plus::patch::{AllocFn, Patch, VulnFlags};
use std::alloc::Layout;

#[global_allocator]
static ALLOC: HardenedAlloc = HardenedAlloc::new();

/// The site constants the instrumentation pass would assign.
const SITE_HANDLER: u64 = 0x9A31;
const SITE_PARSE: u64 = 0x44F7;
const SITE_REPLY: u64 = 0x5C1E;

fn parse_request(payload: usize) -> Vec<u8> {
    let _site = ccid::CallScope::enter(SITE_PARSE);
    // The "vulnerable" allocation: in the patched context this buffer is
    // guarded, zeroed, and quarantine-freed.
    vec![0x41; payload]
}

fn handle_request(payload: usize) -> Vec<u8> {
    let _site = ccid::CallScope::enter(SITE_HANDLER);
    parse_request(payload)
}

fn build_reply(len: usize) -> Vec<u8> {
    let _site = ccid::CallScope::enter(SITE_REPLY);
    vec![0x52; len]
}

fn reply_ccid() -> u64 {
    let _site = ccid::CallScope::enter(SITE_REPLY);
    ccid::current()
}

fn vulnerable_ccid() -> u64 {
    let _a = ccid::CallScope::enter(SITE_HANDLER);
    let _b = ccid::CallScope::enter(SITE_PARSE);
    ccid::current()
}

fn perms_at(addr: usize) -> Option<String> {
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    for line in maps.lines() {
        let (range, rest) = line.split_once(' ')?;
        let (lo, hi) = range.split_once('-')?;
        let lo = usize::from_str_radix(lo, 16).ok()?;
        let hi = usize::from_str_radix(hi, 16).ok()?;
        if addr >= lo && addr < hi {
            return Some(rest.split(' ').next()?.to_string());
        }
    }
    None
}

fn main() {
    // Install the patch for the vulnerable calling context, as the online
    // defense generator does at startup from the configuration file.
    ALLOC.install(&[
        Patch::new(
            AllocFn::Malloc,
            vulnerable_ccid(),
            VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE | VulnFlags::UNINIT_READ,
        ),
        Patch::new(AllocFn::Malloc, reply_ccid(), VulnFlags::OVERFLOW),
    ]);

    // Ordinary traffic: untouched.
    let plain = vec![1u8; 4096];
    println!("unpatched Vec at {:p}: no guard page", plain.as_ptr());

    // The patched context: the Vec's buffer is guarded on real pages.
    let hot = handle_request(4000);
    // SAFETY: `hot` is a live allocation of `ALLOC`.
    let guard = unsafe { ALLOC.guard_page_of(hot.as_ptr() as *mut u8) }
        .expect("patched allocation is guarded");
    println!(
        "patched Vec at {:p}: guard page at {:#x} with permissions {:?}",
        hot.as_ptr(),
        guard,
        perms_at(guard)
    );
    assert_eq!(perms_at(guard).as_deref(), Some("---p"));

    let ptr = hot.as_ptr() as *mut u8;
    drop(hot); // free → quarantine (UAF bit)
    println!(
        "after drop: quarantined = {}, quarantine usage = {:?}",
        ALLOC.is_quarantined(ptr),
        ALLOC.quarantine_usage()
    );

    // A guarded buffer grown by `realloc` outside the patched context moves
    // to a plain block and keeps its bytes.
    let mut grown = handle_request(100);
    grown.resize(10_000, 0x42);
    assert!(grown[..100].iter().all(|&b| b == 0x41));
    assert!(grown[100..].iter().all(|&b| b == 0x42));
    println!("Vec grown by realloc from the patched context: contents kept");

    // An OVERFLOW-only context: a freed buffer skips the quarantine, and
    // its region, guard page still `PROT_NONE`, serves the next one.
    let reply = build_reply(2000);
    // SAFETY: `reply` is a live allocation of `ALLOC`.
    let reply_guard = unsafe { ALLOC.guard_page_of(reply.as_ptr() as *mut u8) }
        .expect("patched allocation is guarded");
    drop(reply);
    let before = ALLOC.stats();
    let again = build_reply(2000);
    let after = ALLOC.stats();
    // SAFETY: `again` is a live allocation of `ALLOC`.
    let again_guard = unsafe { ALLOC.guard_page_of(again.as_ptr() as *mut u8) };
    assert_eq!(again_guard, Some(reply_guard), "region reused");
    assert_eq!(perms_at(reply_guard).as_deref(), Some("---p"));
    assert!(again.iter().all(|&b| b == 0x52));
    assert_eq!(after.guard_pages, before.guard_pages + 1);
    assert_eq!(after.region_maps, before.region_maps, "no fresh mapping");
    println!(
        "second guarded Vec in one context: guard page {reply_guard:#x} reused, \
         {} regions mapped for {} guard pages",
        after.region_maps, after.guard_pages
    );

    // An over-aligned layout: its header is padded to the alignment.
    let page = Layout::from_size_align(10_000, 4096).expect("valid layout");
    // SAFETY: `page` has a non-zero size; the block is freed once, with it.
    unsafe {
        let p = std::alloc::alloc(page);
        assert!(
            !p.is_null() && (p as usize).is_multiple_of(4096),
            "4096-aligned"
        );
        for i in 0..page.size() {
            p.add(i).write(i as u8);
        }
        assert!((0..page.size()).all(|i| p.add(i).read() == i as u8));
        std::alloc::dealloc(p, page);
    }
    println!("4096-aligned block: aligned, contents kept");

    let words = std::thread::spawn(|| (0..1000).map(|i| i.to_string()).collect::<Vec<_>>())
        .join()
        .expect("worker thread");
    assert_eq!(words[999], "999");

    let stats = ALLOC.stats();
    assert_eq!(stats.invalid_frees, 0, "every free decoded its word");
    // Each thread counts in a cell of its own from its first allocation
    // on: registering the cell's exit hook never re-enters this allocator.
    assert_eq!(
        stats.fallback_counts, 0,
        "no count fell back to the shared row"
    );
    println!(
        "\nallocator stats: {} allocations interposed, {} table hits, \
         {} guard pages, {} zero-fills, {} quarantined",
        stats.interposed_allocs,
        stats.table_hits,
        stats.guard_pages,
        stats.zero_fills,
        stats.quarantined
    );
    println!("\nOK: HeapTherapy+ defenses active on the real process heap.");
}

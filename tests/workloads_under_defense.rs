//! Integration: the evaluation workloads (SPEC models, services) under the
//! full online system — the structural halves of Fig. 8/9 and §VIII-B2.

use heaptherapy_plus::core::{HeapTherapy, PipelineConfig};
use heaptherapy_plus::memsim::PAGE_SIZE;
use heaptherapy_plus::simprog::service::{build_service_workload, ServiceKind};
use heaptherapy_plus::simprog::spec::{build_spec_workload, spec_suite};

#[test]
fn every_spec_model_completes_under_five_patches() {
    let ht = HeapTherapy::new(PipelineConfig::default());
    for bench in spec_suite() {
        let w = build_spec_workload(bench);
        let ip = ht.instrument(&w.program);
        let input = w.input_for_allocs(400);
        let patches = ht.hypothesized_patches(&ip, &input, 4);
        let native = ht.run_native(&ip, &input);
        let protected = ht.run_protected(&ip, &input, &patches);
        assert!(protected.report.outcome.is_completed(), "{}", bench.name);
        // Program-visible behaviour identical: same allocation counts, same
        // bytes moved.
        assert_eq!(
            native.allocs, protected.report.allocs,
            "{}: defenses must not change program logic",
            bench.name
        );
        assert_eq!(
            native.bytes_written, protected.report.bytes_written,
            "{}",
            bench.name
        );
        assert!(
            protected.stats.interposed_allocs >= native.allocs.total(),
            "{}",
            bench.name
        );
    }
}

#[test]
fn services_keep_serving_with_patches_installed() {
    let ht = HeapTherapy::new(PipelineConfig::default());
    for kind in [ServiceKind::Nginx, ServiceKind::Mysql] {
        let w = build_service_workload(kind);
        let ip = ht.instrument(&w.program);
        let input = w.input_for_requests(200);
        let patches = ht.hypothesized_patches(&ip, &input, 2);
        let run = ht.run_protected(&ip, &input, &patches);
        assert!(run.report.outcome.is_completed(), "{}", kind.name());
        assert_eq!(
            run.report.allocs.total(),
            run.report.frees,
            "{}: steady state preserved",
            kind.name()
        );
        assert!(
            run.stats.table_hits > 0,
            "{}: patches exercised",
            kind.name()
        );
    }
}

#[test]
fn interposition_alone_never_changes_behaviour() {
    let ht = HeapTherapy::new(PipelineConfig::default());
    for bench in spec_suite().into_iter().take(4) {
        let w = build_spec_workload(bench);
        let ip = ht.instrument(&w.program);
        let input = w.input_for_allocs(300);
        let native = ht.run_native(&ip, &input);
        let interposed = ht.run_interposed(&ip, &input);
        assert_eq!(native.allocs, interposed.report.allocs, "{}", bench.name);
        assert_eq!(native.leaked, interposed.report.leaked, "{}", bench.name);
    }
}

#[test]
fn guard_pages_are_mapped_but_not_all_resident() {
    // Fig. 9's footnote: guard pages are virtual. They grow the mapped
    // bytes, but only a live guard page is dirty, through the user size
    // stored in its first word; a freed one is recycled with its block.
    // Compare mapped and peak resident bytes between 0 and 5 patches on an
    // allocation-heavy model.
    let ht = HeapTherapy::new(PipelineConfig::default());
    let w =
        build_spec_workload(heaptherapy_plus::simprog::spec::spec_bench("471.omnetpp").unwrap());
    let ip = ht.instrument(&w.program);
    let input = w.input_for_allocs(500);
    let p5 = ht.hypothesized_patches(&ip, &input, 5);

    let run0 = ht.run_protected(&ip, &input, &[]);
    let run5 = ht.run_protected(&ip, &input, &p5);
    let pages = run5.stats.guard_pages;
    assert!(pages > 0);
    assert!(
        run5.mem.mapped_bytes > run0.mem.mapped_bytes,
        "guard pages are mapped: {} vs {}",
        run5.mem.mapped_bytes,
        run0.mem.mapped_bytes
    );
    let rss_growth = run5
        .mem
        .peak_rss_bytes
        .saturating_sub(run0.mem.peak_rss_bytes);
    assert!(
        rss_growth < pages * PAGE_SIZE,
        "{pages} guard pages made {rss_growth} B resident"
    );
}

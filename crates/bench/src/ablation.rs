//! Ablations of the design choices DESIGN.md calls out.

use crate::{time_median, time_median_last};
use heaptherapy_core::{Deploy, HeapTherapy, PipelineConfig};
use ht_callgraph::{CallGraphBuilder, Strategy};
use ht_defense::{DefendedBackend, DefenseConfig};
use ht_encoding::{Encoder, InstrumentationPlan, Scheme, StackWalker};
use ht_patch::{AllocFn, Patch, PatchTable, VulnFlags};
use ht_simprog::spec::{build_spec_workload, spec_bench, SpecWorkload};
use ht_simprog::Interpreter;

/// Encoding vs. stack walking: cost of obtaining a context ID at call depth
/// `depth`, over `iters` allocation events.
///
/// Returns `(encoder_seconds, walker_seconds, frames_walked)` — the reason
/// HeapTherapy+ (and PCC before it) rejects per-allocation stack walks.
pub fn walk_vs_encode(depth: usize, iters: u64) -> (f64, f64, u64) {
    // A linear chain main → f1 → … → f_depth → malloc.
    let mut b = CallGraphBuilder::new();
    let mut prev = b.func("main");
    let mut edges = Vec::new();
    for i in 0..depth {
        let f = b.func(format!("f{i}"));
        edges.push(b.call(prev, f));
        prev = f;
    }
    let m = b.target("malloc");
    edges.push(b.call(prev, m));
    let g = b.build();
    let plan = InstrumentationPlan::build(&g, Strategy::Fcs, Scheme::Pcc);

    let enc_time = time_median(3, || {
        let mut enc = Encoder::new(&plan);
        for &e in &edges {
            enc.on_call(e);
        }
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(enc.current().0); // O(1) read per alloc
        }
        std::hint::black_box(acc);
    });

    let mut frames = 0;
    let walk_time = time_median(3, || {
        let mut w = StackWalker::new();
        for &e in &edges {
            w.on_call(e);
        }
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(w.walk().0); // O(depth) walk per alloc
        }
        frames = w.frames_walked();
        std::hint::black_box(acc);
    });
    (enc_time, walk_time, frames)
}

/// The 403.gcc model and its input at `allocs` allocations.
fn gcc_model(allocs: u64) -> (SpecWorkload, Vec<u64>) {
    let w = build_spec_workload(spec_bench("403.gcc").expect("gcc model"));
    let input = w.input_for_allocs(allocs);
    (w, input)
}

/// Targeted guard pages vs. guarding *every* buffer (the policy the paper's
/// targeting makes affordable). "Every buffer" is a patch table holding
/// `OVERFLOW` on every `(FUN, CCID)` an undefended profiling run saw.
/// Returns `(targeted_seconds, guard_all_seconds, guard_all_pages)`.
pub fn guard_all_cost(allocs: u64, samples: usize) -> (f64, f64, u64) {
    let ht = HeapTherapy::new(PipelineConfig::default());
    let (w, input) = gcc_model(allocs);
    let ip = ht.instrument(&w.program);
    let profile = ht.run(&ip, &input, Deploy::Native).report;
    let every: Vec<Patch> = profile
        .ccids_by_frequency()
        .into_iter()
        .map(|((fun, ccid), _)| Patch::new(fun, ccid, VulnFlags::OVERFLOW))
        .collect();

    let targeted = time_median(samples, || {
        ht.run(&ip, &input, Deploy::Protected(&[]));
    });
    let (guard_all, run) =
        time_median_last(samples, || ht.run(&ip, &input, Deploy::Protected(&every)));
    (targeted, guard_all, run.stats.guard_pages)
}

/// Quarantine-quota sweep (paper §IX): smaller quotas evict earlier,
/// shortening the deferral window. Returns `(quota, held_blocks, evictions)`
/// per quota after a UAF-heavy run.
pub fn quarantine_sweep(quotas: &[u64], frees: u64) -> Vec<(u64, usize, u64)> {
    quotas
        .iter()
        .map(|&quota| {
            let mut cfg = DefenseConfig::with_table(PatchTable::from_patches([Patch::new(
                AllocFn::Malloc,
                0, // entry-context CCID: allocations below are unwrapped
                VulnFlags::USE_AFTER_FREE,
            )]));
            cfg.quarantine_quota = quota;
            let mut backend = DefendedBackend::new(cfg);
            // Drive the backend directly: alloc/free churn in the patched
            // context.
            use ht_simprog::{AllocRequest, HeapBackend};
            for _ in 0..frees {
                let req = AllocRequest {
                    fun: AllocFn::Malloc,
                    size: 64,
                    align: 16,
                    ccid: ht_encoding::Ccid(0),
                    target: ht_callgraph::FuncId(0),
                    old_ptr: None,
                };
                let p = backend.alloc(&req).expect("alloc");
                assert!(backend.free(p).is_ok());
            }
            (
                quota,
                backend.quarantine().len(),
                backend.quarantine().evictions(),
            )
        })
        .collect()
}

/// The offline/online cost split (paper §X: shadow memory incurs tens of
/// times of slowdown and is therefore reserved for offline analysis).
/// Returns `(plain_seconds, shadow_seconds)` for the same workload.
pub fn shadow_cost(allocs: u64, samples: usize) -> (f64, f64) {
    let ht = HeapTherapy::new(PipelineConfig::default());
    let w = build_spec_workload(spec_bench("456.hmmer").expect("hmmer model"));
    let ip = ht.instrument(&w.program);
    let input = w.input_for_allocs(allocs);
    let plain = time_median(samples, || {
        ht.run(&ip, &input, Deploy::Native);
    });
    let shadow = time_median(samples, || {
        Interpreter::new(&w.program, &ip.plan, ht_shadow::ShadowBackend::new()).run(&input);
    });
    (plain, shadow)
}

/// O(1) hash probe vs. linear patch-list scan, `probes` lookups against
/// `entries` installed patches. Returns `(hash_seconds, linear_seconds)`.
pub fn lookup_comparison(entries: u64, probes: u64) -> (f64, f64) {
    let patches: Vec<Patch> = (0..entries)
        .map(|i| Patch::new(AllocFn::Malloc, i * 7919, VulnFlags::OVERFLOW))
        .collect();
    let table = PatchTable::from_patches(patches.clone());

    let hash = time_median(3, || {
        let mut hits = 0u64;
        for i in 0..probes {
            if table.lookup(AllocFn::Malloc, i).is_some() {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
    });
    let linear = time_median(3, || {
        let mut hits = 0u64;
        for i in 0..probes {
            if patches
                .iter()
                .any(|p| p.alloc_fn == AllocFn::Malloc && p.ccid == i)
            {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
    });
    (hash, linear)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_visits_depth_frames_per_event() {
        let (_, _, frames) = walk_vs_encode(32, 100);
        assert_eq!(frames, 33 * 100, "O(depth) per allocation event");
    }

    #[test]
    fn guard_all_installs_a_page_per_buffer() {
        let (_, _, pages) = guard_all_cost(100, 1);
        let ht = HeapTherapy::new(PipelineConfig::default());
        let (w, input) = gcc_model(100);
        let run = ht.run(&ht.instrument(&w.program), &input, Deploy::Native);
        assert_eq!(pages, run.report.allocs.total(), "every allocation guarded");
    }

    #[test]
    fn quota_sweep_trades_held_blocks_for_evictions() {
        let rows = quarantine_sweep(&[64, 640, 6400], 100);
        // Larger quota → more blocks still held, fewer evictions.
        assert!(rows[0].1 <= rows[1].1 && rows[1].1 <= rows[2].1, "{rows:?}");
        assert!(rows[0].2 >= rows[1].2 && rows[1].2 >= rows[2].2, "{rows:?}");
        // Conservation: held + evicted = frees.
        for (_, held, evicted) in &rows {
            assert_eq!(*held as u64 + evicted, 100);
        }
    }

    #[test]
    fn lookup_comparison_runs() {
        let (h, l) = lookup_comparison(64, 1000);
        assert!(h > 0.0 && l > 0.0);
    }
}

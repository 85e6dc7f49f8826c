//! Fig. 9 — normalized memory overhead of the online system.
//!
//! Paper: 4.3% average RSS overhead, attributed to the per-buffer metadata;
//! guard pages are virtual and cost nothing resident. What must reproduce:
//! the defended RSS proxy tracks the native one closely, and installing
//! guard-page patches moves *mapped* bytes, not resident bytes.

use heaptherapy_core::{Deploy, HeapTherapy, PipelineConfig};
use ht_simprog::spec::{build_spec_workload, spec_suite};

/// Paper-reported average memory overhead, percent.
pub const PAPER_AVG: f64 = 4.3;

/// One benchmark's memory measurements (bytes are the dirty-page RSS proxy).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Native peak RSS proxy.
    pub native_rss: u64,
    /// Defended peak RSS proxy, zero patches — the paper's Fig. 9
    /// configuration (the overhead it reports is the per-buffer metadata).
    pub defended_rss: u64,
    /// Defended peak RSS with 5 overflow patches installed. Each *live*
    /// guarded buffer additionally keeps its guard page's first word
    /// resident (the stored user size), so this can exceed the metadata-only
    /// figure when a patch lands on a long-lived allocation context.
    pub defended5_rss: u64,
    /// Defended mapped bytes with 5 patches (includes virtual guard pages).
    pub defended_mapped: u64,
    /// Metadata-only RSS overhead percent (the paper's quantity).
    pub pct: f64,
}

/// Regenerates Fig. 9 at `fraction` of each benchmark's natural volume,
/// `threads` benchmarks at a time (memory measurements are deterministic,
/// so parallelism cannot change the rows).
pub fn rows(threads: usize, fraction: f64) -> Vec<Fig9Row> {
    let ht = HeapTherapy::new(PipelineConfig::default());
    ht_par::par_map(threads, &spec_suite(), |_, &bench| {
        let w = build_spec_workload(bench);
        let ip = ht.instrument(&w.program);
        // Natural volume — no iteration floor: memory is deterministic,
        // and flooring would force allocation-poor benchmarks into an
        // unrealistic guarded-churn profile.
        let input = w.input_for_fraction(fraction);

        let native = ht.run(&ip, &input, Deploy::Native);
        let native_rss = native.mem.peak_rss_bytes;
        let defended_rss = ht
            .run(&ip, &input, Deploy::Protected(&[]))
            .mem
            .peak_rss_bytes;
        let patches = native.hypothesized_patches(5);
        let defended5 = ht.run(&ip, &input, Deploy::Protected(&patches)).mem;

        Fig9Row {
            bench: bench.name,
            native_rss,
            defended_rss,
            defended5_rss: defended5.peak_rss_bytes,
            defended_mapped: defended5.mapped_bytes,
            pct: crate::overhead_pct(native_rss as f64, defended_rss as f64),
        }
    })
}

/// Average RSS overhead percent.
pub fn average(rows: &[Fig9Row]) -> f64 {
    rows.iter().map(|r| r.pct).sum::<f64>() / rows.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_overhead_is_modest_and_guard_pages_stay_virtual() {
        let rows = rows(2, 2e-6);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.native_rss > 0, "{}", r.bench);
            // The defense adds metadata words and some class rounding — the
            // RSS proxy must stay in the same ballpark. At test scale the
            // 4 KiB page granularity dominates, so bound the absolute gap
            // rather than the percentage.
            assert!(
                r.defended_rss <= r.native_rss * 4 + 64 * 1024,
                "{}: defended {} vs native {}",
                r.bench,
                r.defended_rss,
                r.native_rss
            );
            // Guard pages are mapped; a live one dirties only its size word.
            assert!(r.defended_mapped >= r.defended_rss, "{}", r.bench);
        }
    }
}

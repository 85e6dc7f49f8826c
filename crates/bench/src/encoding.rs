//! §VIII-B1 — runtime overhead of the encoding strategies.
//!
//! Paper: on SPEC CPU2006, FCS costs 2.4% while TCS/Slim/Incremental cost
//! 0.6% / 0.5% / 0.4% — a 6× reduction. What must reproduce: executed
//! instrumentation work strictly shrinks FCS → TCS → Slim → Incremental, and
//! wall-clock overhead over the uninstrumented baseline follows the same
//! order.

use crate::{overhead_pct, time_median_last};
use ht_callgraph::Strategy;
use ht_encoding::{InstrumentationPlan, Scheme};
use ht_simprog::interp::run_plain;
use ht_simprog::spec::{build_spec_workload, spec_suite};

/// Paper-reported average slowdowns (FCS, TCS, Slim, Incremental), percent.
pub const PAPER_AVG: [f64; 4] = [2.4, 0.6, 0.5, 0.4];

/// One benchmark's encoding-overhead measurements.
#[derive(Debug, Clone)]
pub struct EncodingRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Executed instrumentation updates per strategy
    /// `[FCS, TCS, Slim, Incremental]`.
    pub ops: [u64; 4],
    /// Wall-clock overhead over the uninstrumented run, percent (same
    /// order). Only meaningful in release builds.
    pub time_pct: [f64; 4],
}

/// Regenerates the comparison over all 12 SPEC models.
///
/// `allocs` bounds the allocation volume per run; each wall time is the
/// median of `samples` runs, and each strategy's ops come from its last
/// timed run (they are deterministic).
pub fn rows(allocs: u64, samples: usize) -> Vec<EncodingRow> {
    spec_suite()
        .into_iter()
        .map(|bench| {
            let w = build_spec_workload(bench);
            let input = w.input_for_allocs(allocs);
            let time = |plan: &InstrumentationPlan| {
                time_median_last(samples, || run_plain(&w.program, plan, &input))
            };
            let (base_time, _) = time(&InstrumentationPlan::uninstrumented(w.program.graph()));
            let mut ops = [0u64; 4];
            let mut time_pct = [0.0f64; 4];
            for (i, &s) in Strategy::ALL.iter().enumerate() {
                let (t, last) = time(&InstrumentationPlan::build(
                    w.program.graph(),
                    s,
                    Scheme::Pcc,
                ));
                ops[i] = last.encoder_ops;
                time_pct[i] = overhead_pct(base_time, t);
            }
            EncodingRow {
                bench: bench.name,
                ops,
                time_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_shrink_monotonically_everywhere() {
        let rows = rows(300, 1);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            for i in 0..3 {
                assert!(r.ops[i] >= r.ops[i + 1], "{}: {:?}", r.bench, r.ops);
            }
            assert!(r.ops[0] > 0, "{}", r.bench);
        }
        let avg = crate::column_means(rows.iter().map(|r| r.ops.map(|o| o as f64)));
        // The paper's 6× speedup: FCS executes several times the
        // instrumentation work of Incremental on average.
        assert!(
            avg[0] > 2.0 * avg[3],
            "FCS {:.0} vs Incremental {:.0}",
            avg[0],
            avg[3]
        );
    }
}

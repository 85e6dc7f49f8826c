//! Table II — effectiveness on the vulnerable-program suite.

use heaptherapy_core::{CycleReport, HeapTherapy, PipelineConfig};
use ht_shadow::ShadowConfig;

/// Runs the full patch-generation/deployment cycle on every Table II model
/// (7 CVE programs + 23 SAMATE cases), `threads` apps at a time. Every app's
/// cycle is independent, so the row order (and content) is identical at any
/// thread count. `reference_kernels` forces the byte-at-a-time reference
/// shadow kernels: word and reference kernels must produce byte-identical
/// rows — CI diffs the two (`--reference-kernels`).
pub fn rows(threads: usize, reference_kernels: bool) -> Vec<CycleReport> {
    let ht = HeapTherapy::new(PipelineConfig {
        shadow: ShadowConfig {
            reference_kernels,
            ..ShadowConfig::default()
        },
        ..PipelineConfig::default()
    });
    ht_par::par_map(threads, &ht_vulnapps::table2_suite(), |_, app| {
        ht.full_cycle(app, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name))
    })
}

/// A one-line verdict over all rows (printed by `reproduce`).
pub fn summary(rows: &[CycleReport]) -> String {
    let total = rows.len();
    let detected = rows.iter().filter(|r| r.detection_correct()).count();
    let blocked = rows.iter().filter(|r| r.all_attacks_blocked).count();
    let benign = rows.iter().filter(|r| r.benign_ok).count();
    let exploitable = rows
        .iter()
        .filter(|r| r.undefended_attack_succeeded)
        .count();
    format!(
        "{total} programs: {exploitable} exploitable undefended, \
         {detected} correctly diagnosed, {blocked} fully protected, \
         {benign} benign-behaviour preserved"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_reproduces_the_paper_verdict() {
        let rows = rows(2, false);
        assert_eq!(rows.len(), 30);
        for r in &rows {
            assert!(r.undefended_attack_succeeded, "{}", r.app);
            assert!(r.detection_correct(), "{}: detected {}", r.app, r.detected);
            assert!(r.all_attacks_blocked, "{}", r.app);
            assert!(r.benign_ok, "{}", r.app);
        }
        let s = summary(&rows);
        assert!(s.contains("30 programs"), "{s}");
    }
}

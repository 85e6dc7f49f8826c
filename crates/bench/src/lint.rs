//! Static-vs-dynamic agreement: lints every Table II model and reports
//! whether the static triage over-approximated the dynamic patches and
//! whether the encoding plan verified.

use heaptherapy_core::{HeapTherapy, LintReport, PipelineConfig};

/// Lints the whole Table II suite under the default pipeline, `threads`
/// apps at a time (each lint is independent; row order is deterministic).
/// [`LintReport::agreement_row`] prints one table line per report.
pub fn rows(threads: usize) -> Vec<LintReport> {
    let ht = HeapTherapy::new(PipelineConfig::default());
    ht_par::par_map(threads, &ht_vulnapps::table2_suite(), |_, app| ht.lint(app))
}

/// One-line verdict over all rows.
pub fn summary(rows: &[LintReport]) -> String {
    let total = rows.len();
    let covered = rows.iter().filter(|r| r.static_over_approximates()).count();
    let verified = rows.iter().filter(|r| r.verdict.is_ok()).count();
    format!(
        "{total} programs: {covered} with static ⊇ dynamic agreement, \
         {verified} with verified encoding plans"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_agrees() {
        let rows = rows(2);
        assert_eq!(rows.len(), 30);
        for r in &rows {
            assert!(r.static_over_approximates(), "{}", r.app);
            assert!(r.verdict.is_ok(), "{}", r.app);
            assert!(!r.triage.candidates.is_empty(), "{}", r.app);
        }
        assert!(summary(&rows).contains("30 programs"));
    }
}

//! Runtime attack telemetry across the Table II corpus.
//!
//! Not a table of the paper, but the paper's Section VII claim made
//! measurable: every model whose defense fires must file exactly one
//! attack report per distinct `(FUN, CCID, T)`, with the calling context
//! decoded back from the CCID (the corpus runs under the additive precise
//! encoding so decoding succeeds). The rows also surface what the
//! observability costs: events delivered/dropped per app and the offline
//! vs protected-replay phase wall-clock.

use heaptherapy_core::{CycleReport, HeapTherapy, PipelineConfig};
use ht_encoding::Scheme;
use ht_jsonio::{Json, ToJson};

/// Gathers telemetry from every Table II model, `threads` apps at a time.
/// Rows are input-order deterministic (each app's cycle is independent).
pub fn rows(threads: usize) -> Vec<CycleReport> {
    let ht = HeapTherapy::new(PipelineConfig {
        scheme: Scheme::Additive,
        telemetry: true,
        ..PipelineConfig::default()
    });
    ht_par::par_map(threads, &ht_vulnapps::table2_suite(), |_, app| {
        ht.full_cycle(app, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name))
    })
}

/// Microseconds spent in the offline phases (everything but `protected`).
fn offline_micros(t: &CycleReport) -> u64 {
    let protected = t.timeline.get("protected").map_or(0, |s| s.micros);
    t.timeline.total_micros() - protected
}

/// One text-table row per app.
pub fn table_row(t: &CycleReport) -> String {
    let decoded = t
        .reports
        .iter()
        .filter(|r| !r.call_chain.is_empty())
        .count();
    format!(
        "{:<28} reports={:<2} decoded={:<2} hits={:<5} events={:<5} dropped={:<3} offline={:>8.3}ms protected={:>8.3}ms",
        t.app,
        t.reports.len(),
        decoded,
        t.per_patch.iter().map(|p| p.hits).sum::<u64>(),
        t.delivered,
        t.dropped,
        offline_micros(t) as f64 / 1000.0,
        t.timeline.get("protected").map_or(0, |s| s.micros) as f64 / 1000.0,
    )
}

/// Whether every app's reports are unique per `(FUN, CCID, T)` — the
/// tentpole's once-only property.
pub(crate) fn reports_are_unique(rows: &[CycleReport]) -> bool {
    rows.iter().all(|t| {
        let mut keys: Vec<_> = t.reports.iter().map(|r| (r.fun, r.ccid, r.vuln)).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        keys.len() == n
    })
}

/// A one-line verdict over all rows.
pub fn summary(rows: &[CycleReport]) -> String {
    let total_reports: usize = rows.iter().map(|t| t.reports.len()).sum();
    let with_reports = rows.iter().filter(|t| !t.reports.is_empty()).count();
    let decoded: usize = rows
        .iter()
        .flat_map(|t| &t.reports)
        .filter(|r| !r.call_chain.is_empty())
        .count();
    let dropped: u64 = rows.iter().map(|t| t.dropped).sum();
    format!(
        "{} apps: {with_reports} filed reports ({total_reports} total, {decoded} with decoded \
         contexts), one per (FUN, CCID, T) = {}, {dropped} events dropped",
        rows.len(),
        reports_are_unique(rows),
    )
}

/// Machine-readable export for the CI smoke job.
pub fn to_json(rows: &[CycleReport]) -> Json {
    let total_reports: u64 = rows.iter().map(|t| t.reports.len() as u64).sum();
    let with_reports = rows.iter().filter(|t| !t.reports.is_empty()).count() as u64;
    Json::Obj(vec![
        ("apps".into(), Json::U64(rows.len() as u64)),
        ("apps_with_reports".into(), Json::U64(with_reports)),
        ("total_reports".into(), Json::U64(total_reports)),
        (
            "reports_unique_per_key".into(),
            Json::Bool(reports_are_unique(rows)),
        ),
        (
            "rows".into(),
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_files_unique_decodable_reports() {
        let rows = rows(2);
        assert_eq!(rows.len(), 30);
        assert!(reports_are_unique(&rows));
        // Every Table II model's attack drives a patched context, so every
        // app files at least one report...
        for t in &rows {
            assert!(!t.reports.is_empty(), "{}: no defense activated", t.app);
            // ...and under the additive encoding its context decodes.
            for r in &t.reports {
                assert!(
                    !r.call_chain.is_empty(),
                    "{}: undecoded report {r:?}",
                    t.app
                );
            }
        }
        let j = to_json(&rows);
        assert_eq!(j.get("apps").and_then(Json::as_u64), Some(30));
        assert!(j.get("total_reports").and_then(Json::as_u64).unwrap() >= 30);
        let parsed = Json::parse(&j.to_pretty()).expect("self-emitted JSON parses");
        assert_eq!(parsed, j);
    }

    #[test]
    fn rows_are_deterministic_across_thread_counts() {
        let serial = rows(1);
        let parallel = rows(4);
        let key = |ts: &[CycleReport]| -> Vec<(String, usize, u64)> {
            ts.iter()
                .map(|t| {
                    (
                        t.app.clone(),
                        t.reports.len(),
                        t.per_patch.iter().map(|p| p.hits).sum(),
                    )
                })
                .collect()
        };
        assert_eq!(key(&serial), key(&parallel));
    }
}

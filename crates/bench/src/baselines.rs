//! CI guards over the JSON that `reproduce scaling`, `reproduce telemetry`
//! and `reproduce shadow` write: `reproduce check-baselines`.
//!
//! Each check returns the lines to print when every bound holds, or the
//! first bound that failed. Ratios are compared as integer cross products,
//! so a bound holds or fails exactly.

use ht_jsonio::Json;

/// A failed bound or a malformed report.
pub type CheckError = String;

fn u64_of(j: &Json, key: &str) -> Result<u64, CheckError> {
    j.req_u64(key).map_err(|e| e.to_string())
}

fn arr_of<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], CheckError> {
    j.req_arr(key).map_err(|e| e.to_string())
}

/// Whether `num / den > p / q`, for the non-negative ratios the checks use.
fn ratio_above(num: u64, den: u64, p: u64, q: u64) -> bool {
    u128::from(num) * u128::from(q) > u128::from(p) * u128::from(den)
}

/// Whether `num / den >= p / q`.
fn ratio_at_least(num: u64, den: u64, p: u64, q: u64) -> bool {
    u128::from(num) * u128::from(q) >= u128::from(p) * u128::from(den)
}

/// The scaling guard, on the medians of one run against the committed
/// `BENCH_scaling.json`:
///
/// * the hardened series stays above a third of the baseline's (catches
///   an accidental global lock, not runner speed);
/// * arming telemetry costs under 25 % of the hardened series;
/// * hardened stays at least half of interpose at every thread count;
/// * hardened does not fall below 0.9× from 1 to 2 threads.
///
/// All but the first compare series of one run, so runner speed cancels.
pub fn check_scaling(run: &Json, baseline: &Json) -> Result<Vec<String>, CheckError> {
    let every = u64_of(run, "patched_every")?;
    if every != u64_of(baseline, "patched_every")? {
        return Err(format!("patched_every {every} differs from the baseline's"));
    }
    let rows = arr_of(run, "rows")?;
    let base_rows = arr_of(baseline, "rows")?;
    let mut lines = Vec::new();
    let hardened_at = |threads: u64| -> Result<u64, CheckError> {
        let row = rows
            .iter()
            .find(|r| r.req_u64("threads").ok() == Some(threads))
            .ok_or_else(|| format!("no row for {threads} threads"))?;
        u64_of(row, "hardened_ops")
    };
    let (one, two) = (hardened_at(1)?, hardened_at(2)?);
    for r in rows {
        let threads = u64_of(r, "threads")?;
        let base = base_rows
            .iter()
            .find(|b| b.req_u64("threads").ok() == Some(threads))
            .ok_or_else(|| format!("baseline has no row for {threads} threads"))?;
        let hardened = u64_of(r, "hardened_ops")?;
        let base_hardened = u64_of(base, "hardened_ops")?;
        let telemetry = u64_of(r, "telemetry_ops")?;
        let interpose = u64_of(r, "interpose_ops")?;
        if !ratio_above(hardened, base_hardened, 1, 3) {
            return Err(format!(
                "threads={threads}: hardened series fell >3x below baseline: {hardened} vs {base_hardened}"
            ));
        }
        if !ratio_above(telemetry, hardened, 3, 4) {
            return Err(format!(
                "threads={threads}: arming telemetry cost >25%: {telemetry} vs {hardened}"
            ));
        }
        if !ratio_at_least(hardened, interpose, 1, 2) {
            return Err(format!(
                "threads={threads}: hardened below half of interpose: {hardened} vs {interpose}"
            ));
        }
        lines.push(format!(
            "threads={threads} hardened {:.2}x of baseline, {:.2}x of interpose, telemetry {:.2}x of hardened",
            hardened as f64 / base_hardened as f64,
            hardened as f64 / interpose as f64,
            telemetry as f64 / hardened as f64
        ));
    }
    let scale = two as f64 / one as f64;
    if !ratio_at_least(two, one, 9, 10) {
        return Err(format!(
            "hardened throughput fell from 1 to 2 threads: {scale:.2}x"
        ));
    }
    lines.push(format!("hardened 2 threads / 1 thread: {scale:.2}x"));
    Ok(lines)
}

/// The telemetry smoke check: the Table II corpus files at least one
/// attack report per app, each unique per `(FUN, CCID, T)`, every one with
/// a decoded call chain.
pub fn check_telemetry(r: &Json) -> Result<Vec<String>, CheckError> {
    let apps = u64_of(r, "apps")?;
    let with_reports = u64_of(r, "apps_with_reports")?;
    let total = u64_of(r, "total_reports")?;
    if apps != 30 {
        return Err(format!("{apps} apps, expected 30"));
    }
    if with_reports != 30 {
        return Err(format!("{with_reports} apps with reports, expected 30"));
    }
    if total < 30 {
        return Err(format!("{total} reports, expected at least 30"));
    }
    if !r
        .req_bool("reports_unique_per_key")
        .map_err(|e| e.to_string())?
    {
        return Err("reports are not unique per (FUN, CCID, T)".to_string());
    }
    for row in arr_of(r, "rows")? {
        for rep in arr_of(row, "reports")? {
            if arr_of(rep, "call_chain")?.is_empty() {
                let app = row.req_str("app").unwrap_or("?");
                return Err(format!("undecoded report in {app}"));
            }
        }
    }
    Ok(vec![format!(
        "{total} attack reports across {apps} apps, all decoded"
    )])
}

/// The shadow spread check: the replay ran over a non-empty corpus, all
/// seven kernels were measured, and every measured value is a median
/// inside its sample range.
pub fn check_shadow(r: &Json) -> Result<Vec<String>, CheckError> {
    if u64_of(r, "corpus_events")? == 0 {
        return Err("empty replay corpus".to_string());
    }
    if u64_of(r, "word_events_per_sec")? == 0 {
        return Err("word kernels replayed nothing".to_string());
    }
    let kernels = arr_of(r, "kernels")?;
    if kernels.len() != 7 {
        return Err(format!("{} kernels, expected 7", kernels.len()));
    }
    let mut spreads = vec![(r, "word_events_per_sec"), (r, "reference_events_per_sec")];
    for k in kernels {
        spreads.push((k, "word_ns"));
        spreads.push((k, "reference_ns"));
    }
    for (o, m) in spreads {
        let (lo, mid, hi) = (
            u64_of(o, &format!("{m}_min"))?,
            u64_of(o, m)?,
            u64_of(o, &format!("{m}_max"))?,
        );
        if !(lo <= mid && mid <= hi) {
            return Err(format!("{m}: median {mid} outside [{lo}, {hi}]"));
        }
    }
    let speedup = u64_of(r, "replay_speedup_x100")? as f64 / 100.0;
    Ok(vec![format!("replay speedup: {speedup:.2}x")])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaling(rows: &[(u64, u64, u64, u64)]) -> Json {
        Json::parse(&format!(
            r#"{{"patched_every": 64, "rows": [{}]}}"#,
            rows.iter()
                .map(|(t, i, h, m)| format!(
                    r#"{{"threads": {t}, "interpose_ops": {i}, "hardened_ops": {h}, "telemetry_ops": {m}}}"#
                ))
                .collect::<Vec<_>>()
                .join(",")
        ))
        .unwrap()
    }

    #[test]
    fn scaling_bounds_hold_exactly_at_their_edges() {
        let base = scaling(&[(1, 100, 90, 90), (2, 200, 180, 180)]);
        // At the edges: 2x hardened = interpose, 10x two = 9x one.
        let edge = scaling(&[(1, 200, 100, 76), (2, 180, 90, 68)]);
        assert_eq!(check_scaling(&edge, &base).unwrap().len(), 3);
        // Just past each edge.
        for bad in [
            scaling(&[(1, 201, 100, 76), (2, 180, 90, 68)]), // below half of interpose
            scaling(&[(1, 200, 100, 75), (2, 180, 90, 68)]), // telemetry costs 25 %
            scaling(&[(1, 200, 100, 76), (2, 178, 89, 68)]), // 1 → 2 threads falls
            scaling(&[(1, 60, 30, 30), (2, 180, 90, 68)]),   // a third of baseline
        ] {
            assert!(check_scaling(&bad, &base).is_err(), "{bad:?}");
        }
        let other = Json::parse(r#"{"patched_every": 32, "rows": []}"#).unwrap();
        assert!(check_scaling(&other, &base).is_err());
    }

    #[test]
    fn telemetry_check_wants_thirty_decoded_apps() {
        let report = |chain: &str| {
            Json::parse(&format!(
                r#"{{"apps": 30, "apps_with_reports": 30, "total_reports": 31,
                    "reports_unique_per_key": true,
                    "rows": [{{"app": "bc", "reports": [{{"call_chain": [{chain}]}}]}}]}}"#
            ))
            .unwrap()
        };
        assert!(check_telemetry(&report(r#""main""#)).is_ok());
        let undecoded = check_telemetry(&report("")).unwrap_err();
        assert!(undecoded.contains("bc"), "{undecoded}");
    }

    #[test]
    fn shadow_check_wants_medians_inside_their_ranges() {
        let report = |word_ns_max: u64| {
            let kernel = format!(
                r#"{{"word_ns": 5, "word_ns_min": 4, "word_ns_max": {word_ns_max},
                    "reference_ns": 9, "reference_ns_min": 9, "reference_ns_max": 9}}"#
            );
            Json::parse(&format!(
                r#"{{"corpus_events": 10, "replay_speedup_x100": 250,
                    "word_events_per_sec": 7, "word_events_per_sec_min": 6, "word_events_per_sec_max": 8,
                    "reference_events_per_sec": 3, "reference_events_per_sec_min": 3,
                    "reference_events_per_sec_max": 3, "kernels": [{}]}}"#,
                vec![kernel; 7].join(",")
            ))
            .unwrap()
        };
        assert_eq!(check_shadow(&report(6)).unwrap(), ["replay speedup: 2.50x"]);
        assert!(check_shadow(&report(4)).is_err());
    }
}

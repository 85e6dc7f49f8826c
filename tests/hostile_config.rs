//! Hostile configuration and report text: the patch-configuration reader
//! and the `check-baselines` guards answer every input with a value or an
//! error. None panics, and none aborts on a deeply nested document.

use ht_bench::baselines::{check_scaling, check_shadow, check_telemetry};
use ht_jsonio::{Json, MAX_DEPTH};
use ht_patch::from_config_text;
use proptest::prelude::*;

/// What hostile text is spliced from: JSON syntax, numbers in and out of
/// range, configuration fields, and the keys the readers look up.
const FRAGMENTS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "null",
    "true",
    "false",
    "0",
    "1",
    "64",
    "18446744073709551615",
    "18446744073709551616",
    "1.5",
    "-1",
    " ",
    "\n",
    "#",
    "malloc",
    "calloc",
    "memalign",
    "0x1",
    "0xffffffffffffffff",
    "0x",
    "OF",
    "UAF|UR",
    "OF|UAF|UR|",
    "\"fun\"",
    "\"ccid\"",
    "\"vuln\"",
    "\"malloc\"",
    "\"OF\"",
    "\"patched_every\"",
    "\"rows\"",
    "\"threads\"",
    "\"hardened_ops\"",
    "\"interpose_ops\"",
    "\"telemetry_ops\"",
    "\"apps\"",
    "\"reports\"",
    "\"call_chain\"",
    "\"kernels\"",
    "\"corpus_events\"",
    "\"word_ns_min\"",
    "é",
    "\u{0}",
];

/// Runs every reader over `text`; a panic fails the test.
fn read_all(text: &str) {
    let _ = from_config_text(text);
    if let Ok(doc) = Json::parse(text) {
        let _ = check_scaling(&doc, &doc);
        let _ = check_telemetry(&doc);
        let _ = check_shadow(&doc);
    }
}

/// `depth` levels of `opener` around `body`, left unclosed.
fn nested(opener: &str, depth: usize, body: &str) -> String {
    format!("{}{body}", opener.repeat(depth))
}

proptest! {
    #[test]
    fn spliced_text_never_panics_a_reader(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..48),
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        read_all(&text);
    }

    #[test]
    fn nesting_past_the_cap_is_an_error(
        depth in (MAX_DEPTH + 1)..20_000,
        object in proptest::bool::ANY,
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..8),
    ) {
        let opener = if object { r#"{"rows":"# } else { "[" };
        let tail: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let text = nested(opener, depth, &tail);
        prop_assert!(Json::parse(&text).is_err());
        read_all(&text);
    }

    #[test]
    fn well_shaped_reports_with_hostile_numbers_never_panic(
        values in proptest::collection::vec(
            prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), 0u64..1_000_000],
            12..13,
        ),
    ) {
        let v = |i: usize| values[i];
        let scaling = format!(
            r#"{{"patched_every": {}, "rows": [
                {{"threads": 1, "interpose_ops": {}, "hardened_ops": {}, "telemetry_ops": {}}},
                {{"threads": 2, "interpose_ops": {}, "hardened_ops": {}, "telemetry_ops": {}}}]}}"#,
            v(0), v(1), v(2), v(3), v(4), v(5), v(6)
        );
        let telemetry = format!(
            r#"{{"apps": {}, "apps_with_reports": {}, "total_reports": {},
                "reports_unique_per_key": true, "rows": [{{"app": "a", "reports": [{{"call_chain": []}}]}}]}}"#,
            v(7), v(8), v(9)
        );
        let shadow = format!(
            r#"{{"corpus_events": {}, "word_events_per_sec": {}, "kernels": [],
                "replay_speedup_x100": {}}}"#,
            v(10), v(11), v(0)
        );
        for text in [scaling, telemetry, shadow] {
            read_all(&text);
        }
    }
}

#[test]
fn a_hundred_thousand_brackets_are_an_error() {
    for opener in ["[", "{\"a\":"] {
        let text = nested(opener, 100_000, "");
        let err = Json::parse(&text).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        assert!(from_config_text(&text).is_err(), "not a config line");
    }
}

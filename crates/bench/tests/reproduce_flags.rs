//! `reproduce` refuses a flag it cannot honour instead of measuring
//! something else: an unknown flag, a missing or malformed value, or 0
//! threads or repeats all exit 2 before any section runs. A report
//! `check-baselines` cannot read or parse fails the check (exit 1) with a
//! message, not a panic.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn a_bad_flag_is_a_usage_error() {
    for (args, why) in [
        (&["table1", "--samples", "banana"][..], "not a number"),
        (&["table1", "--threads", "0"], "at least 1"),
        (&["table1", "--repeat", "0"], "at least 1"),
        (&["table1", "--bogus"], "unknown flag --bogus"),
        (&["table1", "--samples"], "needs a value"),
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    }
}

#[test]
fn every_documented_flag_is_known() {
    // Flags parse before the target is looked up, so an unknown target
    // shows that every flag before it was accepted.
    let out = reproduce(&[
        "no-such-target",
        "--allocs",
        "10",
        "--fraction",
        "1e-5",
        "--samples",
        "1",
        "--requests",
        "10",
        "--threads",
        "2",
        "--pairs",
        "10",
        "--repeat",
        "1",
        "--reference-kernels",
        "--json",
        "out.json",
        "--scaling",
        "s.json",
        "--telemetry",
        "t.json",
        "--shadow",
        "sh.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown target `no-such-target`"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage: reproduce"), "{stderr}");
}

#[test]
fn an_unreadable_or_hostile_report_fails_the_check_without_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let deep = dir.join("deeply_nested_report.json");
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    let missing = dir.join("no_such_report.json");
    for (flag, path, why) in [
        ("--shadow", &deep, "nesting deeper than"),
        ("--telemetry", &deep, "nesting deeper than"),
        ("--scaling", &deep, "nesting deeper than"),
        ("--shadow", &missing, "reading"),
    ] {
        let out = reproduce(&["check-baselines", flag, path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{flag} {path:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

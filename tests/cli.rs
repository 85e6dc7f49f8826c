//! End-to-end smoke tests for the `heaptherapy` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_heaptherapy"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = bin().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_names_the_suite() {
    let (stdout, _, ok) = run(&["list"]);
    assert!(ok);
    for needle in ["heartbleed", "bc-1.06", "samate-23", "multictx-overflow"] {
        assert!(stdout.contains(needle), "{needle} missing:\n{stdout}");
    }
}

#[test]
fn analyze_protect_round_trip_on_disk() {
    let conf = std::env::temp_dir().join("ht_cli_test_patches.conf");
    let conf_s = conf.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["analyze", "ghostxps", "--out", conf_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("uninitialized-read"), "{stdout}");
    assert!(
        stdout.contains("xps_parse_color"),
        "decoded chain: {stdout}"
    );

    let (stdout, stderr, ok) = run(&["protect", "ghostxps", "--patches", conf_s]);
    assert!(ok, "attack must be defeated: {stdout}{stderr}");
    assert!(stdout.contains("attack succeeded  : false"), "{stdout}");
    std::fs::remove_file(conf).ok();
}

#[test]
fn demo_succeeds_for_single_context_apps() {
    let (stdout, _, ok) = run(&["demo", "wavpack"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("blocked=true"), "{stdout}");
}

#[test]
fn demo_multictx_requires_iterative_mode() {
    let (_, _, ok) = run(&["demo", "multictx"]);
    assert!(!ok, "one-shot patching must NOT cover both contexts");
    let (stdout, _, ok) = run(&["demo", "multictx", "--iterative", "true"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("2 round(s)"), "{stdout}");
}

#[test]
fn decode_names_the_chain() {
    let (stdout, _, ok) = run(&["decode", "heartbleed", "--fun", "malloc", "--ccid", "0x1"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("main → tls1_process_heartbeat → malloc"),
        "{stdout}"
    );
}

#[test]
fn instrument_prints_strategy_ladder() {
    let (stdout, _, ok) = run(&["instrument", "bc-1.06"]);
    assert!(ok);
    for s in ["fcs", "tcs", "slim", "incremental"] {
        assert!(stdout.contains(s), "{stdout}");
    }
}

#[test]
fn lint_clean_spec_model_exits_zero() {
    let out = bin().args(["lint", "429.mcf"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("static triage: clean"), "{stdout}");
    assert!(stdout.contains("plan verifier: OK"), "{stdout}");
}

#[test]
fn lint_vulnapp_exits_two_with_decoded_chains() {
    let out = bin().args(["lint", "heartbleed"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "findings exit with 2: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("candidate context"), "{stdout}");
    assert!(
        stdout.contains("main → tls1_process_heartbeat"),
        "decoded call chain: {stdout}"
    );
    assert!(stdout.contains("covered=true"), "{stdout}");
    assert!(stdout.contains("plan verifier: OK"), "{stdout}");
}

#[test]
fn lint_respects_strategy_and_scheme_flags() {
    let out = bin()
        .args([
            "lint",
            "bc-1.06",
            "--strategy",
            "tcs",
            "--scheme",
            "positional",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("more_arrays → malloc"), "{stdout}");
    assert!(stdout.contains("0 uncovered"), "{stdout}");
}

#[test]
fn unknown_scheme_or_strategy_is_a_usage_error() {
    let decode = ["decode", "heartbleed", "--fun", "malloc", "--ccid", "0x1"];
    for (flag, names) in [
        ("--scheme", "pcc, positional, additive"),
        ("--strategy", "fcs, tcs, slim, incremental"),
    ] {
        let out = bin()
            .args(decode)
            .args([flag, "bogus"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        assert!(out.stdout.is_empty(), "{flag}: no chain printed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "{flag}: {stderr}");
    }
}

#[test]
fn lint_unknown_app_errors() {
    let out = bin().args(["lint", "no-such-app"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown app"), "{stderr}");
}

#[test]
fn unknown_app_and_usage_errors() {
    let (_, stderr, ok) = run(&["analyze", "no-such-app"]);
    assert!(!ok);
    assert!(stderr.contains("unknown app"), "{stderr}");
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

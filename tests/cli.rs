//! End-to-end smoke tests for the `heaptherapy` CLI binary.

use heaptherapy_plus::jsonio::Json;
use std::process::{Command, Stdio};

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
fn protect_refuses_an_attack_index_the_app_lacks() {
    let conf = std::env::temp_dir().join("ht_cli_test_attack_index.conf");
    let conf_s = conf.to_str().unwrap();
    let (_, stderr, ok) = run(&["analyze", "heartbleed", "--out", conf_s]);
    assert!(ok, "{stderr}");
    let protect = ["protect", "heartbleed", "--patches", conf_s, "--attack"];
    // Heartbleed has two attack inputs.
    for bad in ["2", "7", "x", "-1"] {
        let out = bin().args(protect).arg(bad).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "--attack {bad}: {out:?}");
        assert!(out.stdout.is_empty(), "--attack {bad}: nothing replayed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("0..=1"), "--attack {bad}: {stderr}");
    }
    let out = bin().args(protect).arg("1").output().expect("runs");
    assert!(out.status.success(), "{out:?}");
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
    let (stdout, _, ok) = run(&["demo", "multictx", "--iterative"]);
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
            "additive",
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
        ("--scheme", "pcc, additive"),
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
    // A scheme the encoding crate no longer has is refused like any other.
    let out = bin()
        .args(decode)
        .args(["--scheme", "positional"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no chain printed");
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

#[test]
fn report_prints_the_patch_row_and_the_guard_page_report() {
    let (stdout, stderr, ok) = run(&["report", "bc"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("patch   : {malloc, 0x0, OF}"), "{stdout}");
    assert!(stdout.contains("guard page"), "{stdout}");
}

#[test]
fn report_json_files_reports_with_call_chains() {
    let (stdout, stderr, ok) = run(&["report", "bc", "--json"]);
    assert!(ok, "{stderr}");
    let json = Json::parse(&stdout).expect("report --json parses");
    let reports = json.req_arr("reports").expect("a reports array");
    assert!(!reports.is_empty(), "{stdout}");
    for r in reports {
        let chain = r.req_arr("call_chain").expect("a call_chain array");
        assert!(!chain.is_empty(), "{stdout}");
    }
}

#[test]
fn report_flags_read_alike_in_any_order() {
    // `phases` holds wall-clock times; the reports alone are deterministic.
    let reports = |args: &[&str]| {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{args:?}: {stderr}");
        let json = Json::parse(&stdout).expect("report --json parses");
        json.req_arr("reports").expect("a reports array").to_vec()
    };
    assert_eq!(
        reports(&["report", "bc", "--json", "--scheme", "pcc"]),
        reports(&["report", "bc", "--scheme", "pcc", "--json"])
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let out = bin()
        .args(["demo", "bc", "--bogus", "1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing runs: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
}

#[test]
fn a_flag_its_command_does_not_read_is_a_usage_error() {
    let conf = std::env::temp_dir().join("ht_cli_test_unread.conf");
    std::fs::remove_file(&conf).ok();
    let conf_s = conf.to_str().unwrap();
    for (args, flag) in [
        (&["demo", "bc", "--out", conf_s][..], "--out"),
        (&["report", "bc", "--iterative"], "--iterative"),
    ] {
        let out = bin().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "nothing runs: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    assert!(!conf.exists(), "demo writes no file");
}

#[test]
fn a_switch_takes_no_value() {
    let out = bin()
        .args(["demo", "multictx", "--iterative", "true"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing runs: {out:?}");
}

#[test]
fn a_closed_stdout_ends_quietly() {
    for args in [&["list"][..], &["demo", "bc"], &["report", "bc", "--json"]] {
        // The read end is gone before the child starts, so its first
        // write to stdout fails with `EPIPE`.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = bin()
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn decode_takes_a_known_fun_and_a_hex_ccid() {
    let decode = ["decode", "heartbleed", "--fun"];
    let out = bin()
        .args(decode)
        .args(["bogus", "--ccid", "1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("malloc, calloc, realloc, memalign"),
        "{stderr}"
    );
    let chain = |ccid| run(&["decode", "heartbleed", "--fun", "malloc", "--ccid", ccid]);
    assert_eq!(chain("1"), chain("0x1"), "the 0x prefix is optional");
    let out = bin()
        .args(decode)
        .args(["malloc", "--ccid", "1g"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

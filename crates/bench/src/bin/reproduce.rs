//! Regenerates every table and figure of the HeapTherapy+ evaluation.
//!
//! ```text
//! reproduce [all|TARGET] [--allocs N] [--fraction F] [--samples N] [--requests N]
//!           [--threads N] [--pairs N] [--repeat N] [--reference-kernels] [--json PATH]
//! reproduce check-baselines [--scaling PATH] [--telemetry PATH] [--shadow PATH]
//! ```
//!
//! `TARGETS` names every target and those `all` runs, in order; an unknown
//! target exits 2 with the list. `check-baselines` applies the CI guards to
//! the JSON that `scaling`, `telemetry` and `shadow` wrote (the scaling
//! guard against `BENCH_scaling.json` in the working directory) and exits 1
//! on the first bound that fails.
//!
//! Paper-reported numbers are printed beside the measured ones. Absolute
//! values differ (simulated substrate); the shape is what reproduces. Run
//! with `--release` for meaningful timings.

use ht_bench::{
    ablation, baselines, encoding, fig2, fig8, fig9, lint, scaling, services, shadow, table1,
    table2, table3, table4, telemetry,
};

struct Opts {
    what: String,
    allocs: u64,
    fraction: f64,
    samples: usize,
    requests: u64,
    /// Worker threads for the offline pipeline (and the cap for `scaling`).
    threads: usize,
    /// Allocate/free pairs per worker in the scaling benchmark.
    pairs: u64,
    /// Corpus passes inside each timed sample of the shadow benchmark.
    repeat: usize,
    /// Run the byte-at-a-time reference shadow kernels (table2 parity runs).
    reference_kernels: bool,
    /// Optional path to write the scaling/shadow rows as JSON.
    json: Option<String>,
    /// `check-baselines`: the reports to check, by the flag naming them.
    checks: Vec<(String, String)>,
}

const USAGE: &str = "usage: reproduce [TARGET] [--allocs N] [--fraction F] [--samples N] \
     [--requests N] [--threads N] [--pairs N] [--repeat N] [--reference-kernels] [--json PATH]\n       \
     reproduce check-baselines [--scaling PATH] [--telemetry PATH] [--shadow PATH]";

/// The options, or what is wrong with them: an unknown flag, a flag
/// without its value, or a value that does not parse (or is 0 where at
/// least 1 is needed).
fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        what: "all".to_string(),
        allocs: 20_000,
        fraction: 2e-4,
        samples: 5,
        requests: 2_000,
        threads: ht_par::available_threads(),
        pairs: 200_000,
        repeat: 1,
        reference_kernels: false,
        json: None,
        checks: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--allocs" => opts.allocs = number(&a, &value()?)?,
            "--fraction" => opts.fraction = number(&a, &value()?)?,
            "--samples" => opts.samples = number(&a, &value()?)?,
            "--requests" => opts.requests = number(&a, &value()?)?,
            "--threads" => opts.threads = at_least_one(&a, &value()?)?,
            "--pairs" => opts.pairs = number(&a, &value()?)?,
            "--repeat" => opts.repeat = at_least_one(&a, &value()?)?,
            "--reference-kernels" => opts.reference_kernels = true,
            "--json" => opts.json = Some(value()?),
            "--scaling" | "--telemetry" | "--shadow" => {
                opts.checks.push((a[2..].to_string(), value()?))
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => opts.what = a,
        }
    }
    Ok(opts)
}

/// `value` of `flag`, parsed.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} {value:?} is not a number"))
}

/// `value` of `flag`, parsed, and at least 1.
fn at_least_one(flag: &str, value: &str) -> Result<usize, String> {
    match number(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// A target: its name, what it runs, and whether `all` runs it.
struct Target(&'static str, fn(&Opts), bool);

/// Every target. `all` runs the ones it runs in this order.
const TARGETS: &[Target] = &[
    Target("fig2", run_fig2, true),
    Target("extras", run_extras, true),
    Target("table1", run_table1, true),
    Target("table2", run_table2, true),
    Target("lint", run_lint, true),
    Target("table3", run_table3, true),
    Target("table4", run_table4, true),
    Target("encoding", run_encoding, true),
    Target("fig8", run_fig8, true),
    Target("fig9", run_fig9, true),
    Target("services", run_services, true),
    Target("ablations", run_ablations, true),
    Target("scaling", run_scaling, false),
    Target("shadow", run_shadow, false),
    Target("telemetry", run_telemetry, false),
    Target("check-baselines", run_check_baselines, false),
];

/// Writes `json` to the `--json` path, when one was given.
fn write_json(opts: &Opts, json: ht_jsonio::Json) {
    if let Some(path) = &opts.json {
        std::fs::write(path, json.to_pretty() + "\n")
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

fn run_fig2(_: &Opts) {
    header("Figure 2 — targeted instrumentation of the example graph");
    for r in fig2::rows() {
        println!("{:<12} {:>2} sites   {}", r.strategy, r.sites, r.edges);
    }
    println!("(paper panels: FCS=all, TCS prunes D→H/H→I, Slim prunes B/E, Incremental keeps AB,AC,CE,CF)");
}

fn run_table1(_: &Opts) {
    header("Table I — buffer structure selection");
    println!(
        "{:<10} {:>8} {:>9} {:>14} {:>10}",
        "vuln", "plain", "aligned", "deferred-free", "zero-init"
    );
    for r in table1::rows() {
        println!(
            "{:<10} {:>8} {:>9} {:>14} {:>10}",
            r.vuln.to_string(),
            format!("{:?}", r.plain),
            format!("{:?}", r.aligned),
            r.deferred_free,
            r.zero_init
        );
    }
}

fn run_table2(opts: &Opts) {
    header("Table II — effectiveness (7 CVE models + 23 SAMATE cases)");
    let rows = table2::rows_with(opts.threads, opts.reference_kernels);
    for r in &rows {
        println!("{}", r.table_row());
    }
    println!("\n{}", table2::summary(&rows));
    println!("(paper: patches generated and attacks prevented for all programs)");
}

fn run_lint(opts: &Opts) {
    header("Static triage — static-vs-dynamic agreement per vulnerable program");
    let rows = lint::rows(opts.threads);
    for r in &rows {
        println!("{}", r.agreement_row());
    }
    println!("\n{}", lint::summary(&rows));
    println!("(static candidates must cover every dynamically generated patch)");
}

fn run_table3(opts: &Opts) {
    header("Table III — program size increase (%) per encoding strategy");
    println!(
        "{:<16} {:>22}  {:>30}",
        "benchmark", "measured FCS/TCS/Slim/Inc", "paper FCS/TCS/Slim/Inc"
    );
    let rows = table3::rows(opts.threads);
    for r in &rows {
        println!(
            "{:<16} {:>5.1} {:>5.1} {:>5.1} {:>5.1}   {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            r.bench,
            r.measured[0],
            r.measured[1],
            r.measured[2],
            r.measured[3],
            r.paper[0],
            r.paper[1],
            r.paper[2],
            r.paper[3]
        );
    }
    let avg = table3::averages(&rows);
    println!(
        "{:<16} {:>5.1} {:>5.1} {:>5.1} {:>5.1}   {:>6.2} {:>6.2} {:>6.2} {:>6.2}   (averages)",
        "AVERAGE", avg[0], avg[1], avg[2], avg[3], 12.0, 6.0, 4.5, 4.4
    );
}

fn run_table4(opts: &Opts) {
    header("Table IV — heap allocation statistics (replayed at reduced scale)");
    println!(
        "{:<16} {:>36} {:>30}",
        "benchmark", "paper malloc/calloc/realloc", "replayed malloc/calloc/realloc"
    );
    for r in table4::rows(opts.threads, opts.fraction) {
        println!(
            "{:<16} {:>14} {:>10} {:>10} {:>12} {:>8} {:>8}",
            r.bench,
            r.paper[0],
            r.paper[1],
            r.paper[2],
            r.replayed[0],
            r.replayed[1],
            r.replayed[2]
        );
    }
}

fn run_encoding(opts: &Opts) {
    header("§VIII-B1 — encoding runtime overhead (FCS vs targeted)");
    println!(
        "{:<16} {:>34} {:>34}",
        "benchmark", "instr. ops FCS/TCS/Slim/Inc", "time overhead % FCS/TCS/Slim/Inc"
    );
    let rows = encoding::rows(opts.allocs, opts.samples);
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8}   {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
            r.bench,
            r.ops[0],
            r.ops[1],
            r.ops[2],
            r.ops[3],
            r.time_pct[0],
            r.time_pct[1],
            r.time_pct[2],
            r.time_pct[3]
        );
    }
    let avg = encoding::avg_ops(&rows);
    println!(
        "AVERAGE ops      {:>8.0} {:>8.0} {:>8.0} {:>8.0}   (paper time %: {:?})",
        avg[0],
        avg[1],
        avg[2],
        avg[3],
        encoding::PAPER_AVG
    );
}

fn run_fig8(opts: &Opts) {
    header("Figure 8 — runtime overhead vs patch count (% over native)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}   {:>6} {:>6} {:>7}",
        "benchmark", "interpose", "0 patches", "1 patch", "5 patches", "hits1", "hits5", "guards5"
    );
    let rows = fig8::rows(opts.threads, opts.fraction, opts.samples);
    for r in &rows {
        println!(
            "{:<16} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%   {:>6} {:>6} {:>7}",
            r.bench, r.pct[0], r.pct[1], r.pct[2], r.pct[3], r.hits[0], r.hits[1], r.guard_pages5
        );
    }
    let avg = fig8::averages(&rows);
    println!(
        "AVERAGE          {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%   (paper: {:?})",
        avg[0],
        avg[1],
        avg[2],
        avg[3],
        fig8::PAPER_AVG
    );
}

fn run_fig9(opts: &Opts) {
    header("Figure 9 — memory overhead (RSS proxy)");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "benchmark", "native", "defended", "defended+5p", "mapped", "overhead"
    );
    let rows = fig9::rows(opts.threads, opts.fraction);
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>12} {:>8.1}%",
            r.bench, r.native_rss, r.defended_rss, r.defended5_rss, r.defended_mapped, r.pct
        );
    }
    println!(
        "AVERAGE overhead {:.1}%   (paper: {:.1}%; guard pages are mapped, never resident)",
        fig9::average(&rows),
        fig9::PAPER_AVG
    );
}

fn run_services(opts: &Opts) {
    header("§VIII-B2 — service throughput under the defense");
    println!(
        "{:<8} {:>14} {:>14} {:>10} {:>8}",
        "service", "native req/s", "defended req/s", "overhead", "mem"
    );
    for r in services::rows(opts.requests, opts.samples) {
        println!(
            "{:<8} {:>14.0} {:>14.0} {:>9.2}% {:>7.1}%",
            r.service, r.native_rps, r.defended_rps, r.overhead_pct, r.mem_pct
        );
    }
    println!("(paper: nginx ≈4.2% throughput overhead, mysql ≈0%, memory negligible)");
}

fn run_ablations(opts: &Opts) {
    header("Ablation — stack walking vs encoding (1M context reads, depth 32)");
    let (enc, walk, frames) = ablation::walk_vs_encode(32, 1_000_000);
    println!(
        "encoder read: {:.3} ms   stack walk: {:.3} ms   ({}x, {} frames visited)",
        enc * 1e3,
        walk * 1e3,
        walk / enc.max(1e-12),
        frames
    );

    header("Ablation — targeted guard pages vs guard-everything (403.gcc model)");
    let (targeted, all, pages) = ablation::guard_all_cost(opts.allocs, opts.samples);
    println!(
        "targeted: {:.3} ms   guard-all: {:.3} ms ({:.2}x, {} guard pages)",
        targeted * 1e3,
        all * 1e3,
        all / targeted.max(1e-12),
        pages
    );

    header("Ablation — quarantine quota sweep (§IX), 10k UAF frees of 64 B");
    println!("{:>12} {:>12} {:>12}", "quota", "held blocks", "evictions");
    for (quota, held, evicted) in ablation::quarantine_sweep(
        &[4 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024],
        10_000,
    ) {
        println!("{quota:>12} {held:>12} {evicted:>12}");
    }

    header("Ablation — offline heavyweight vs online lightweight (456.hmmer model)");
    let (plain, shadow) = ablation::shadow_cost(opts.allocs.min(20_000), opts.samples);
    println!(
        "native run: {:.3} ms   shadow-memory replay: {:.3} ms ({:.1}x) — why analysis is offline",
        plain * 1e3,
        shadow * 1e3,
        shadow / plain.max(1e-12)
    );

    header("Ablation — patch lookup: O(1) hash vs linear scan (64 patches, 100k probes)");
    let (hash, linear) = ablation::lookup_comparison(64, 100_000);
    println!(
        "hash: {:.3} ms   linear: {:.3} ms ({:.1}x)",
        hash * 1e3,
        linear * 1e3,
        linear / hash.max(1e-12)
    );
}

fn run_scaling(opts: &Opts) {
    header("Scaling — multi-threaded allocation throughput (Mops/s, alloc+free pairs)");
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14} {:>16} {:>16} {:>15}",
        "threads",
        "native",
        "interpose",
        "hardened(5p)",
        "telemetry(5p)",
        "hardened/native",
        "hardened/interp",
        "telem/hardened"
    );
    let rows = scaling::rows(opts.threads, opts.pairs, opts.samples);
    for r in &rows {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>14.3} {:>14.3} {:>15.2}x {:>15.2}x {:>14.2}x",
            r.threads,
            r.native.median / 1e6,
            r.interpose.median / 1e6,
            r.hardened.median / 1e6,
            r.telemetry.median / 1e6,
            r.hardened_vs_native(),
            r.hardened_vs_interpose(),
            r.telemetry_vs_hardened()
        );
    }
    println!(
        "\nrange over {} samples (min–max Mops/s):",
        opts.samples.max(1)
    );
    let range = |s: ht_bench::Spread| format!("{:.3}–{:.3}", s.min / 1e6, s.max / 1e6);
    for r in &rows {
        println!(
            "{:<8} {:>16} {:>16} {:>16} {:>16}",
            r.threads,
            range(r.native),
            range(r.interpose),
            range(r.hardened),
            range(r.telemetry)
        );
    }
    println!(
        "(medians; patched context every {} allocs of {} B; metadata-word frees, one quarantine FIFO, patch table frozen, guarded regions recycled)",
        scaling::PATCHED_EVERY,
        scaling::ALLOC_SIZE
    );
    write_json(opts, scaling::to_json(&rows, opts.pairs, opts.samples));
}

fn run_shadow(opts: &Opts) {
    header("Shadow — offline-replay kernel throughput (word vs byte-at-a-time reference)");
    let report = shadow::run(opts.samples, opts.repeat);
    println!(
        "corpus: {} shadow events (Table II suite, all attack + benign inputs)",
        report.word.events
    );
    println!(
        "{:<12} {:>14} {:>14} {:>9}",
        "kernels", "events/s", "secs/pass", "speedup"
    );
    println!(
        "{:<12} {:>14.0} {:>14.4} {:>9}",
        "reference",
        report.reference.events_per_sec().median,
        report.reference.secs.median,
        "1.00x"
    );
    println!(
        "{:<12} {:>14.0} {:>14.4} {:>8.2}x",
        "word",
        report.word.events_per_sec().median,
        report.word.secs.median,
        report.replay_speedup()
    );
    println!(
        "\nper-kernel microbenches ({} B span):",
        shadow::KERNEL_SPAN
    );
    println!(
        "{:<24} {:>14} {:>12} {:>9}",
        "kernel", "reference ns", "word ns", "speedup"
    );
    for k in &report.kernels {
        println!(
            "{:<24} {:>14.0} {:>12.0} {:>8.2}x",
            k.name,
            k.reference_ns.median,
            k.word_ns.median,
            k.speedup()
        );
    }
    println!("(distinguished pages + word scans + last-page/interval caches; both modes emit identical warnings)");
    write_json(opts, shadow::to_json(&report, opts.samples, opts.repeat));
}

fn run_telemetry(opts: &Opts) {
    header("Telemetry — one-time attack reports across the Table II corpus (§VII)");
    let rows = telemetry::rows(opts.threads);
    for t in &rows {
        println!("{}", telemetry::table_row(t));
    }
    println!("\n{}", telemetry::summary(&rows));
    if let Some((app, sample)) = rows
        .iter()
        .find_map(|t| t.reports.first().map(|r| (&t.app, r)))
    {
        println!("\nsample report ({app}):");
        print!("{sample}");
    }
    println!("(each report fires exactly once per (FUN, CCID, T); contexts decoded from the CCID)");
    write_json(opts, telemetry::to_json(&rows));
}

fn run_extras(_: &Opts) {
    use heaptherapy_core::{incident_report, HeapTherapy, PipelineConfig};
    use ht_callgraph::Strategy;
    use ht_encoding::Scheme;

    header("§IX — multi-context vulnerability: iterative defense generation");
    let ht = HeapTherapy::new(PipelineConfig::default());
    let app = ht_vulnapps::multi_context_overflow();
    let (patches, rounds) = ht.iterative_cycle(&app, 8).expect("converges");
    println!(
        "{}: converged in {rounds} rounds with {} patches",
        app.name,
        patches.len()
    );
    for p in &patches {
        println!("  - {p}");
    }

    header("§IX — CCID-subspace partitioned analysis (quota-bounded replays)");
    let uaf = ht_vulnapps::optipng();
    let ip = ht.instrument(&uaf.program);
    let single = ht.analyze_attack(&ip, uaf.patching_input(), &uaf.reference);
    let parts = ht.analyze_attack_partitioned(&ip, uaf.patching_input(), &uaf.reference, 4);
    println!(
        "optipng UAF: 1 replay → {} patch(es); 4 partitioned replays → {} patch(es); equal = {}",
        single.patches.len(),
        parts.patches.len(),
        single.patches == parts.patches
    );

    header("Incident report — decoded calling contexts (additive/PCCE encoding)");
    let ht_precise = HeapTherapy::new(PipelineConfig {
        strategy: Strategy::Slim,
        scheme: Scheme::Additive,
        ..PipelineConfig::default()
    });
    let hb = ht_vulnapps::heartbleed();
    let ip = ht_precise.instrument(&hb.program);
    let analysis = ht_precise.analyze_attack(&ip, hb.patching_input(), &hb.reference);
    print!("{}", incident_report(&ip, &analysis, "CVE-2014-0160"));
}

fn read_json(path: &str) -> Result<ht_jsonio::Json, baselines::CheckError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    ht_jsonio::Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn run_check_baselines(opts: &Opts) {
    if opts.checks.is_empty() {
        eprintln!("check-baselines: name a report with --scaling, --telemetry or --shadow");
        std::process::exit(2);
    }
    for (kind, path) in &opts.checks {
        let checked = read_json(path).and_then(|report| match kind.as_str() {
            "scaling" => baselines::check_scaling(&report, &read_json("BENCH_scaling.json")?),
            "telemetry" => baselines::check_telemetry(&report),
            _ => baselines::check_shadow(&report),
        });
        match checked {
            Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
            Err(e) => {
                eprintln!("check-baselines: {kind} report {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!("note: debug build — timings are not meaningful; use --release");
    }
    if opts.what == "all" {
        for Target(_, run, _) in TARGETS.iter().filter(|t| t.2) {
            run(&opts);
        }
    } else if let Some(Target(_, run, _)) = TARGETS.iter().find(|t| t.0 == opts.what) {
        run(&opts);
    } else {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        eprintln!(
            "unknown target `{}`; expected one of all, {}",
            opts.what,
            names.join(", ")
        );
        std::process::exit(2);
    }
}

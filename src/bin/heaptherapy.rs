//! `heaptherapy` — the command-line face of the pipeline, operating on the
//! bundled vulnerable-program models.
//!
//! ```text
//! heaptherapy list
//! heaptherapy analyze <app> [--out patches.conf] [--scheme pcc|positional|additive]
//! heaptherapy protect <app> --patches patches.conf [--attack N]
//! heaptherapy demo <app>
//! heaptherapy report <app> [--json] [--scheme pcc|positional|additive]
//! heaptherapy decode <app> --fun malloc --ccid 0x1f3a [--scheme additive]
//! heaptherapy lint <app> [--strategy fcs|tcs|slim|incremental] [--scheme pcc|positional|additive]
//! heaptherapy instrument <app> [--strategy fcs|tcs|slim|incremental]
//! ```

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{incident_report, Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::encoding::{decode, Ccid, Scheme};
use heaptherapy_plus::patch::{from_config_text, to_config_text};
use heaptherapy_plus::vulnapps::{self, VulnApp};
use std::process::ExitCode;

fn find_app(name: &str) -> Option<VulnApp> {
    if name == "multictx" || name == "multictx-overflow" {
        return Some(vulnapps::multi_context_overflow());
    }
    vulnapps::table2_suite()
        .into_iter()
        .find(|a| a.name == name || a.name.starts_with(name))
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().unwrap_or_default();
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Self { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The value of `--flag` among `all`, found by `name`, or `default`
/// without the flag. An unknown value prints the valid names and yields
/// `None`.
fn choice<T: Copy>(
    args: &Args,
    flag: &str,
    all: &[T],
    name: fn(T) -> &'static str,
    default: T,
) -> Option<T> {
    let Some(value) = args.flag(flag) else {
        return Some(default);
    };
    let found = all.iter().copied().find(|&x| name(x) == value);
    if found.is_none() {
        let names: Vec<&str> = all.iter().map(|&x| name(x)).collect();
        eprintln!("unknown --{flag} {value:?}; one of: {}", names.join(", "));
    }
    found
}

/// The pipeline the `--scheme` and `--strategy` flags select, or `None`
/// when either flag has an unknown value.
fn pipeline(args: &Args) -> Option<HeapTherapy> {
    let scheme = choice(args, "scheme", &Scheme::ALL, Scheme::name, Scheme::Additive)?;
    let strategy = choice(
        args,
        "strategy",
        &Strategy::ALL,
        Strategy::name,
        Strategy::Incremental,
    )?;
    Some(HeapTherapy::new(PipelineConfig {
        strategy,
        scheme,
        ..PipelineConfig::default()
    }))
}

fn cmd_list() -> ExitCode {
    println!("{:<30} {:<16} {:<10}", "name", "reference", "class");
    let mut apps = vulnapps::table2_suite();
    apps.push(vulnapps::multi_context_overflow());
    for a in apps {
        println!(
            "{:<30} {:<16} {:<10}",
            a.name,
            a.reference,
            a.expected.to_string()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_analyze(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| find_app(n)) else {
        eprintln!("unknown app; try `heaptherapy list`");
        return ExitCode::from(2);
    };
    let Some(ht) = pipeline(args) else {
        return ExitCode::from(2);
    };
    let ip = ht.instrument(&app.program);
    let analysis = ht.analyze_attack(&ip, app.patching_input(), &app.reference);
    print!("{}", incident_report(&ip, &analysis, &app.name));
    let text = to_config_text(&analysis.patches);
    match args.flag("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} patch(es) to {path}", analysis.patches.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn cmd_protect(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| find_app(n)) else {
        eprintln!("unknown app; try `heaptherapy list`");
        return ExitCode::from(2);
    };
    let Some(path) = args.flag("patches") else {
        eprintln!("--patches <file> is required");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let patches = match from_config_text(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bad patch file: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(ht) = pipeline(args) else {
        return ExitCode::from(2);
    };
    let attack = args.flag("attack").unwrap_or("0");
    let Some(input) = attack
        .parse()
        .ok()
        .and_then(|i: usize| app.attack_inputs.get(i))
    else {
        let n = app.attack_inputs.len();
        eprintln!(
            "unknown --attack {attack:?}; {} has {n} attack input(s): 0..={}",
            app.name,
            n - 1
        );
        return ExitCode::from(2);
    };
    let ip = ht.instrument(&app.program);
    let run = ht.run(&ip, input, Deploy::Protected(&patches));
    println!("outcome           : {:?}", run.report.outcome);
    println!("bytes leaked      : {}", run.report.leaked.len());
    println!("attack succeeded  : {}", app.attack_succeeded(&run.report));
    println!(
        "defense activity  : {} hits, {} guard pages, {} zero-filled bytes, {} quarantined",
        run.stats.table_hits,
        run.stats.guard_pages,
        run.stats.zero_fill_bytes,
        run.stats.quarantined_blocks
    );
    if app.attack_succeeded(&run.report) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_demo(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| find_app(n)) else {
        eprintln!("unknown app; try `heaptherapy list`");
        return ExitCode::from(2);
    };
    let Some(ht) = pipeline(args) else {
        return ExitCode::from(2);
    };
    if args.flag("iterative").is_some() {
        // §IX: keep cycling until every attack input is defeated (needed
        // for vulnerabilities exploitable through multiple contexts).
        return match ht.iterative_cycle(&app, 8) {
            Ok((patches, rounds)) => {
                println!(
                    "{}: converged in {rounds} round(s), {} patch(es)",
                    app.name,
                    patches.len()
                );
                print!("{}", to_config_text(&patches));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("iterative cycle failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match ht.full_cycle(&app) {
        Ok(cycle) => {
            println!("{}", cycle.table_row());
            print!("{}", cycle.config_text);
            if cycle.all_attacks_blocked && cycle.benign_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_report(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| find_app(n)) else {
        eprintln!("unknown app; try `heaptherapy list`");
        return ExitCode::from(2);
    };
    let Some(ht) = pipeline(args) else {
        return ExitCode::from(2);
    };
    match ht.attack_telemetry(&app) {
        Ok(tel) => {
            if args.flag("json").is_some() {
                use heaptherapy_plus::jsonio::ToJson;
                println!("{}", tel.to_json().to_pretty());
            } else {
                print!("{tel}");
            }
            if tel.reports.is_empty() {
                eprintln!("no defense activated — no attack report filed");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_decode(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| find_app(n)) else {
        eprintln!("unknown app; try `heaptherapy list`");
        return ExitCode::from(2);
    };
    let Some(ccid) = args.flag("ccid").and_then(|v| {
        let v = v.strip_prefix("0x").unwrap_or(v);
        u64::from_str_radix(v, 16).ok().or_else(|| v.parse().ok())
    }) else {
        eprintln!("--ccid <hex or decimal> is required");
        return ExitCode::from(2);
    };
    let fun = args.flag("fun").unwrap_or("malloc");
    let Some(ht) = pipeline(args) else {
        return ExitCode::from(2);
    };
    let ip = ht.instrument(&app.program);
    let graph = app.program.graph();
    let Some(target) = graph.func_by_name(fun) else {
        eprintln!("{} never calls {fun}", app.name);
        return ExitCode::FAILURE;
    };
    match decode(graph, &ip.plan, Ccid(ccid), target) {
        Some(path) => {
            let chain: Vec<&str> = std::iter::once("main")
                .chain(
                    path.iter()
                        .map(|&e| graph.func(graph.edge(e).callee).name.as_str()),
                )
                .collect();
            println!("{}", chain.join(" → "));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "not decodable (scheme {} {}, or foreign CCID)",
                ip.plan.scheme(),
                if ip.plan.is_precise() {
                    "precise"
                } else {
                    "imprecise"
                }
            );
            ExitCode::FAILURE
        }
    }
}

fn cmd_lint(args: &Args) -> ExitCode {
    let Some(name) = args.positional.get(1) else {
        eprintln!("usage: heaptherapy lint <app|spec-bench> [--strategy S] [--scheme S]");
        return ExitCode::from(2);
    };
    let Some(ht) = pipeline(args) else {
        return ExitCode::from(2);
    };
    if let Some(app) = find_app(name) {
        let ip = ht.instrument(&app.program);
        let report = ht.lint(&app);
        print!("{}", report.render(&ip));
        println!("{}", report.agreement_row());
        return ExitCode::from(report.exit_code() as u8);
    }
    // Not a vulnapp — lint a SPEC workload model as a clean target.
    if let Some(bench) = heaptherapy_plus::simprog::spec::spec_bench(name) {
        let w = heaptherapy_plus::simprog::spec::build_spec_workload(bench);
        let ip = ht.instrument(&w.program);
        let triage = ht.static_triage(&ip);
        let verdict = ht.verify_plan(&ip);
        print!(
            "{}{}",
            heaptherapy_plus::analysis::render_report(w.program.graph(), &triage),
            heaptherapy_plus::analysis::render_verdict(&verdict)
        );
        return if triage.is_clean() && verdict.is_ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    eprintln!("unknown app; try `heaptherapy list`");
    ExitCode::from(2)
}

fn cmd_instrument(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| find_app(n)) else {
        eprintln!("unknown app; try `heaptherapy list`");
        return ExitCode::from(2);
    };
    println!(
        "{:<14} {:>6} {:>10} {:>10}",
        "strategy", "sites", "of total", "size +%"
    );
    let base = app.program.base_size_bytes();
    for strategy in Strategy::ALL {
        let plan = heaptherapy_plus::encoding::InstrumentationPlan::build(
            app.program.graph(),
            strategy,
            Scheme::Pcc,
        );
        println!(
            "{:<14} {:>6} {:>10} {:>9.1}%",
            strategy.name(),
            plan.site_count(),
            app.program.graph().edge_count(),
            plan.size_increase_percent(base)
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("analyze") => cmd_analyze(&args),
        Some("protect") => cmd_protect(&args),
        Some("demo") => cmd_demo(&args),
        Some("report") => cmd_report(&args),
        Some("decode") => cmd_decode(&args),
        Some("lint") => cmd_lint(&args),
        Some("instrument") => cmd_instrument(&args),
        _ => {
            eprintln!(
                "usage: heaptherapy <list|analyze|protect|demo|report|decode|lint|instrument> [app] \
                 [--scheme pcc|positional|additive] [--strategy fcs|tcs|slim|incremental] \
                 [--out FILE] [--patches FILE] [--ccid HEX] [--fun NAME] [--attack N]"
            );
            ExitCode::from(2)
        }
    }
}

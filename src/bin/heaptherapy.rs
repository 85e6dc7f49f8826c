//! `heaptherapy` — the command-line face of the pipeline, operating on the
//! bundled vulnerable-program models.
//!
//! ```text
//! heaptherapy list
//! heaptherapy analyze <app> [--out patches.conf]
//! heaptherapy protect <app> --patches patches.conf [--attack N]
//! heaptherapy demo <app> [--iterative]
//! heaptherapy report <app> [--json]
//! heaptherapy decode <app> --fun malloc --ccid 0x1f3a
//! heaptherapy lint <app>
//! heaptherapy instrument <app>
//! ```
//!
//! Every command but `list` and `instrument` also reads
//! `--strategy fcs|tcs|slim|incremental` and
//! `--scheme pcc|additive`: the paper's probabilistic PCC, or the one
//! precise scheme (the default), PCCE-style additive, whose CCIDs decode to
//! call chains when the target-reaching call graph is acyclic. An unknown
//! flag, a flag the command does not read, a missing value or an extra
//! argument exits 2.

use heaptherapy_plus::analysis::{render_report, render_verdict};
use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{decode_chain, incident_report, Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::jsonio::ToJson;
use heaptherapy_plus::patch::{from_config_text, to_config_text, AllocFn};
use heaptherapy_plus::simprog::spec::{build_spec_workload, spec_bench, SpecBench};
use heaptherapy_plus::vulnapps::{self, VulnApp};
use std::fmt::Display;
use std::io::{self, Write};
use std::process::ExitCode;

/// What a command returns: its exit code, or the error writing its output.
type Res = io::Result<ExitCode>;

/// Every command and the flags it reads; any other flag is a usage error.
const COMMANDS: [(&str, &[&str]); 8] = [
    ("list", &[]),
    ("analyze", &["--scheme", "--strategy", "--out"]),
    (
        "protect",
        &["--scheme", "--strategy", "--patches", "--attack"],
    ),
    ("demo", &["--scheme", "--strategy", "--iterative"]),
    ("report", &["--scheme", "--strategy", "--json"]),
    ("decode", &["--scheme", "--strategy", "--fun", "--ccid"]),
    ("lint", &["--scheme", "--strategy"]),
    ("instrument", &[]),
];
const FLAGS: &str = "[--scheme pcc|additive] [--strategy fcs|tcs|slim|incremental] \
                     [--out FILE] [--patches FILE] [--attack N] [--fun NAME] [--ccid HEX] \
                     [--json] [--iterative]";

/// The command line, parsed once.
struct Opts {
    cmd: String,
    /// Empty for `list`, the one command that takes no app.
    app: String,
    scheme: Scheme,
    strategy: Strategy,
    out: Option<String>,
    patches: Option<String>,
    /// Resolved against the app's attack inputs by `protect`.
    attack: Option<String>,
    fun: AllocFn,
    ccid: Option<u64>,
    json: bool,
    iterative: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        cmd: String::new(),
        app: String::new(),
        scheme: Scheme::Additive,
        strategy: Strategy::Incremental,
        out: None,
        patches: None,
        attack: None,
        fun: AllocFn::Malloc,
        ccid: None,
        json: false,
        iterative: false,
    };
    let mut given = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            given.push(a.clone());
        }
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--scheme" => opts.scheme = choice(&a, &value()?, &Scheme::ALL)?,
            "--strategy" => opts.strategy = choice(&a, &value()?, &Strategy::ALL)?,
            "--out" => opts.out = Some(value()?),
            "--patches" => opts.patches = Some(value()?),
            "--attack" => opts.attack = Some(value()?),
            "--fun" => opts.fun = choice(&a, &value()?, &AllocFn::ALL)?,
            "--ccid" => {
                let v = value()?;
                let hex = v.strip_prefix("0x").unwrap_or(&v);
                let ccid = u64::from_str_radix(hex, 16);
                opts.ccid = Some(ccid.map_err(|_| format!("--ccid {v:?} is not hex"))?);
            }
            "--json" => opts.json = true,
            "--iterative" => opts.iterative = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ if opts.cmd.is_empty() => opts.cmd = a,
            _ if opts.app.is_empty() => opts.app = a,
            _ => return Err(format!("unexpected argument {a:?}")),
        }
    }
    let cmd = opts.cmd.as_str();
    if cmd.is_empty() {
        return Err("no command".into());
    }
    let Some((_, reads)) = COMMANDS.iter().find(|(c, _)| *c == cmd) else {
        return Err(format!("unknown command {cmd:?}"));
    };
    if let Some(flag) = given.iter().find(|f| !reads.contains(&f.as_str())) {
        let takes = if reads.is_empty() {
            "no flags".to_string()
        } else {
            reads.join(", ")
        };
        return Err(format!("{cmd} does not read {flag}; it takes {takes}"));
    }
    if cmd != "list" && opts.app.is_empty() {
        return Err(format!("{cmd} needs an app"));
    }
    Ok(opts)
}

/// The one of `all` displayed as `value`, else a usage error naming them.
fn choice<T: Copy + Display>(flag: &str, value: &str, all: &[T]) -> Result<T, String> {
    let names: Vec<String> = all.iter().map(T::to_string).collect();
    match names.iter().position(|n| n == value) {
        Some(i) => Ok(all[i]),
        None => Err(format!(
            "unknown {flag} {value:?}; one of: {}",
            names.join(", ")
        )),
    }
}

fn find_app(name: &str) -> Option<VulnApp> {
    if name == "multictx" || name == "multictx-overflow" {
        return Some(vulnapps::multi_context_overflow());
    }
    vulnapps::table2_suite()
        .into_iter()
        .find(|a| a.name == name || a.name.starts_with(name))
}

/// Exits 0 when `ok`, else 1.
fn status(ok: bool) -> Res {
    Ok(ExitCode::from(if ok { 0 } else { 1 }))
}

/// Says `why` on stderr and exits `code`.
fn fail(code: u8, why: impl Display) -> Res {
    eprintln!("{why}");
    Ok(ExitCode::from(code))
}

fn list(out: &mut impl Write) -> Res {
    writeln!(out, "{:<30} {:<16} {:<10}", "name", "reference", "class")?;
    let mut apps = vulnapps::table2_suite();
    apps.push(vulnapps::multi_context_overflow());
    for a in apps {
        let class = a.expected.to_string();
        writeln!(out, "{:<30} {:<16} {:<10}", a.name, a.reference, class)?;
    }
    status(true)
}

fn analyze(ht: &HeapTherapy, app: &VulnApp, opts: &Opts, out: &mut impl Write) -> Res {
    let ip = ht.instrument(&app.program);
    let analysis = ht.analyze_attack(&ip, app.patching_input(), &app.reference);
    write!(out, "{}", incident_report(&ip, &analysis, &app.name))?;
    let text = to_config_text(&analysis.patches);
    let Some(path) = &opts.out else {
        write!(out, "{text}")?;
        return status(true);
    };
    if let Err(e) = std::fs::write(path, &text) {
        return fail(1, format!("cannot write {path}: {e}"));
    }
    writeln!(out, "wrote {} patch(es) to {path}", analysis.patches.len())?;
    status(true)
}

fn protect(ht: &HeapTherapy, app: &VulnApp, opts: &Opts, out: &mut impl Write) -> Res {
    let Some(path) = &opts.patches else {
        return fail(2, "--patches <file> is required");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail(1, format!("cannot read {path}: {e}")),
    };
    let patches = match from_config_text(&text) {
        Ok(p) => p,
        Err(e) => return fail(1, format!("bad patch file: {e}")),
    };
    let attack = opts.attack.as_deref().unwrap_or("0");
    let Some(input) = attack
        .parse()
        .ok()
        .and_then(|i: usize| app.attack_inputs.get(i))
    else {
        let n = app.attack_inputs.len();
        let name = &app.name;
        return fail(
            2,
            format!(
                "unknown --attack {attack:?}; {name} has {n} attack input(s): 0..={}",
                n - 1
            ),
        );
    };
    let ip = ht.instrument(&app.program);
    let run = ht.run(&ip, input, Deploy::Protected(&patches));
    let s = &run.stats;
    let succeeded = app.attack_succeeded(&run.report);
    writeln!(out, "outcome           : {:?}", run.report.outcome)?;
    writeln!(out, "bytes leaked      : {}", run.report.leaked.len())?;
    writeln!(out, "attack succeeded  : {succeeded}")?;
    writeln!(
        out,
        "defense activity  : {} hits, {} guard pages, {} zero-filled bytes, {} quarantined",
        s.table_hits, s.guard_pages, s.zero_fill_bytes, s.quarantined_blocks
    )?;
    status(!succeeded)
}

fn demo(ht: &HeapTherapy, app: &VulnApp, opts: &Opts, out: &mut impl Write) -> Res {
    // One round (Table II), or up to 8 with `--iterative` (§IX: one more
    // per newly exploited calling context).
    let max_rounds = if opts.iterative { 8 } else { 1 };
    let cycle = match ht.full_cycle(app, max_rounds) {
        Ok(cycle) => cycle,
        Err(e) => return fail(1, format!("pipeline failed: {e}")),
    };
    let (rounds, patches) = (cycle.rounds, cycle.patches.len());
    writeln!(out, "{}", cycle.table_row())?;
    writeln!(out, "{}: {rounds} round(s), {patches} patch(es)", app.name)?;
    write!(out, "{}", cycle.config_text)?;
    status(cycle.all_attacks_blocked && cycle.benign_ok)
}

fn report(ht: &HeapTherapy, app: &VulnApp, opts: &Opts, out: &mut impl Write) -> Res {
    let c = match ht.full_cycle(app, 1) {
        Ok(cycle) => cycle,
        Err(e) => return fail(1, format!("pipeline failed: {e}")),
    };
    if opts.json {
        writeln!(out, "{}", c.to_json().to_pretty())?;
    } else {
        writeln!(out, "app     : {} ({})", c.app, c.reference)?;
        writeln!(
            out,
            "events  : {} delivered, {} dropped",
            c.delivered, c.dropped
        )?;
        for row in &c.per_patch {
            writeln!(
                out,
                "patch   : {{{}, {:#x}, {}}}  hits={} bytes={}",
                row.fun, row.ccid, row.vuln, row.hits, row.bytes
            )?;
        }
        for r in &c.reports {
            write!(out, "{r}")?;
        }
        write!(out, "{}", c.timeline)?;
    }
    if c.reports.is_empty() {
        return fail(1, "no defense activated — no attack report filed");
    }
    status(true)
}

fn decode(ht: &HeapTherapy, app: &VulnApp, opts: &Opts, out: &mut impl Write) -> Res {
    let Some(ccid) = opts.ccid else {
        return fail(2, "--ccid <hex> is required");
    };
    let ip = ht.instrument(&app.program);
    let Some(chain) = decode_chain(&ip, opts.fun, ccid) else {
        let (name, fun, scheme) = (&app.name, opts.fun, ip.plan.scheme());
        let precision = if ip.plan.is_precise() {
            "precise"
        } else {
            "imprecise"
        };
        let why = format!("scheme {scheme} {precision}, a foreign CCID, or no {fun} in {name}");
        return fail(1, format!("not decodable ({why})"));
    };
    writeln!(out, "{}", chain.join(" → "))?;
    status(true)
}

fn lint(ht: &HeapTherapy, app: &VulnApp, out: &mut impl Write) -> Res {
    let ip = ht.instrument(&app.program);
    let report = ht.lint(app);
    write!(out, "{}", report.render(&ip))?;
    writeln!(out, "{}", report.agreement_row())?;
    Ok(ExitCode::from(report.exit_code() as u8))
}

/// Lints a SPEC workload model as a clean target.
fn lint_spec(ht: &HeapTherapy, bench: SpecBench, out: &mut impl Write) -> Res {
    let w = build_spec_workload(bench);
    let ip = ht.instrument(&w.program);
    let triage = ht.static_triage(&ip);
    let verdict = ht.verify_plan(&ip);
    write!(out, "{}", render_report(w.program.graph(), &triage))?;
    write!(out, "{}", render_verdict(&verdict))?;
    let clean = triage.is_clean() && verdict.is_ok();
    Ok(ExitCode::from(if clean { 0 } else { 2 }))
}

fn instrument(app: &VulnApp, out: &mut impl Write) -> Res {
    let (graph, base) = (app.program.graph(), app.program.base_size_bytes());
    writeln!(
        out,
        "{:<14} {:>6} {:>10} {:>10}",
        "strategy", "sites", "of total", "size +%"
    )?;
    for strategy in Strategy::ALL {
        let plan = InstrumentationPlan::build(graph, strategy, Scheme::Pcc);
        let (sites, edges) = (plan.site_count(), graph.edge_count());
        let grown = plan.size_increase_percent(base);
        let name = strategy.name();
        writeln!(out, "{name:<14} {sites:>6} {edges:>10} {grown:>9.1}%")?;
    }
    status(true)
}

/// Runs the parsed command, writing its output to `out`.
fn run(opts: &Opts, out: &mut impl Write) -> Res {
    let ht = HeapTherapy::new(PipelineConfig {
        strategy: opts.strategy,
        scheme: opts.scheme,
        telemetry: opts.cmd == "report",
        ..PipelineConfig::default()
    });
    if opts.cmd == "list" {
        return list(out);
    }
    let Some(app) = find_app(&opts.app) else {
        // Not a vulnapp: `lint` takes a SPEC workload model as a clean target.
        return match spec_bench(&opts.app).filter(|_| opts.cmd == "lint") {
            Some(bench) => lint_spec(&ht, bench, out),
            None => fail(2, "unknown app; try `heaptherapy list`"),
        };
    };
    match opts.cmd.as_str() {
        "analyze" => analyze(&ht, &app, opts, out),
        "protect" => protect(&ht, &app, opts, out),
        "demo" => demo(&ht, &app, opts, out),
        "report" => report(&ht, &app, opts, out),
        "decode" => decode(&ht, &app, opts, out),
        "lint" => lint(&ht, &app, out),
        // `instrument`, the last of `COMMANDS`.
        _ => instrument(&app, out),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            let commands: Vec<&str> = COMMANDS.iter().map(|(c, _)| *c).collect();
            let commands = commands.join("|");
            eprintln!("{e}\nusage: heaptherapy <{commands}> [app] {FLAGS}");
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    match run(&opts, &mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // A reader that stopped reading (`| head`) is not an error.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

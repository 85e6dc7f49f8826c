//! The repository's benchmark: four seeded workloads, one per way the
//! system is used, each reporting the same end-to-end metrics; with
//! `--trace 1`, a traced run that reports per-layer metrics instead.
//!
//! ```text
//! perfbench --workload <alloc-unpatched|alloc-patched|triage|spec-defended>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//! ```
//!
//! The last line of standard output is one JSON record: the run stamp,
//! `correct`, `attempted`, `failed`, the checks that failed, and every
//! metric with its value (as a decimal string, since `ht_jsonio` holds
//! integers only) and unit. `perfbench/run.py` builds this binary and turns
//! the record into the benchmark's result line.

mod gen;
mod realmem;
mod sim;
mod stats;
mod trace;

use ht_jsonio::{obj, Json};
use stats::{median, Chunk, Summary};
use std::time::{Duration, Instant};
use trace::{Ledger, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops per thread of the fixed prefix whose exact counts must repeat.
const PREFIX_OPS: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AllocUnpatched,
    AllocPatched,
    Triage,
    SpecDefended,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::AllocUnpatched,
        Workload::AllocPatched,
        Workload::Triage,
        Workload::SpecDefended,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::AllocUnpatched => "alloc-unpatched",
            Workload::AllocPatched => "alloc-patched",
            Workload::Triage => "triage",
            Workload::SpecDefended => "spec-defended",
        }
    }

    /// Closed-loop client threads; alloc-patched runs one per CPU of the
    /// two-CPU reference box.
    fn threads(self) -> usize {
        if self == Workload::AllocPatched {
            2
        } else {
            1
        }
    }

    /// The reference work's time per op on the quiet reference box (an
    /// Intel Xeon 2-vCPU VM at 2.0 GHz), which every chunk's times are
    /// scaled to (see [`stats::summarize`]): alloc-*: the op stream on
    /// `System`; triage: native runs of the app's attack and benign
    /// inputs; spec-defended: a native run of the model.
    fn ref_ns_per_op(self) -> f64 {
        match self {
            Workload::AllocUnpatched | Workload::AllocPatched => 200.0,
            Workload::Triage => 25_000.0,
            Workload::SpecDefended => 2_200_000.0,
        }
    }

    /// `secs` of work scaled to reference speed, given that `ref_ops` ops of
    /// reference work run next to it took `ref_time`.
    fn at_ref_speed(self, secs: f64, ref_ops: u64, ref_time: Duration) -> f64 {
        secs * self.ref_ns_per_op() * ref_ops as f64 / (ref_time.as_secs_f64() * 1e9).max(1.0)
    }

    fn alloc_config(self) -> Option<realmem::Config> {
        match self {
            Workload::AllocUnpatched | Workload::AllocPatched => Some(realmem::Config {
                threads: self.threads(),
                patching: self == Workload::AllocPatched,
            }),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut commit) = (None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {s} outside (0, 120]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--out" => out = Some(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        commit,
    })
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run measured and checked.
#[derive(Debug, Default)]
struct Report {
    setup: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The untraced phase, then with `--trace 1` the traced one.
    phases: Vec<Summary>,
    rss_mib: f64,
    spans: Vec<Vec<trace::Span>>,
    /// Exact counts of the workload's fixed prefix.
    layers: Vec<Metric>,
}

/// The untraced and the traced chunks of a run, each summarized.
fn summaries(w: Workload, chunks: &[Vec<Chunk>], round: usize) -> Vec<Summary> {
    let ref_ns = w.ref_ns_per_op();
    vec![
        stats::summarize(chunks, false, ref_ns, round),
        stats::summarize(chunks, true, ref_ns, round),
    ]
}

fn run_alloc(cfg: realmem::Config, args: &Args) -> Report {
    let mut r = Report::default();
    let run = (Duration::from_secs_f64(args.seconds), args.trace);
    let mut s = realmem::Session::default();
    for i in 1..=SETUPS {
        s = realmem::session(cfg, args.seed, (i == SETUPS).then_some(run));
        let ref_time = Duration::from_secs_f64(s.setup_ref_secs);
        let setup = args
            .workload
            .at_ref_speed(s.setup_s, realmem::SETUP_REF_OPS, ref_time);
        r.setup.push(setup);
        r.failed += s.failed;
        r.problems.append(&mut s.problems);
    }
    r.attempted = s.chunks.iter().flatten().map(|c| c.ops).sum();
    r.phases = summaries(args.workload, &s.chunks, 1);
    r.rss_mib = s.peak_rss_mib;
    r.spans = std::mem::take(&mut s.spans);
    if args.trace {
        let (dropped, delivered) = (s.telemetry.1, s.telemetry.0);
        let (classes, st) = realmem::exact_counts(cfg, args.seed, PREFIX_OPS);
        let (classes2, st2) = realmem::exact_counts(cfg, args.seed, PREFIX_OPS);
        let exact = |st: &ht_hardened_alloc::HardenedStats| {
            [
                st.table_hits,
                st.guard_pages,
                st.zero_fills,
                st.quarantined,
                st.interposed_allocs,
                st.interposed_frees,
                st.fail_open,
            ]
        };
        if classes != classes2 || exact(&st) != exact(&st2) {
            r.problems.push(format!(
                "same seed, different exact counts: {st:?} vs {st2:?}"
            ));
        }
        if [st.table_hits, st.guard_pages, st.zero_fills, st.quarantined]
            != [
                classes.table_hits(),
                classes.guard_pages(),
                classes.zero_fills(),
                classes.quarantined(),
            ]
        {
            r.problems.push(format!(
                "prefix counts {st:?} differ from the generator's {classes:?}"
            ));
        }
        r.problems
            .extend(gen::check_alloc_stream(args.seed, 200_000));
        let drop_ratio = dropped as f64 / (delivered + dropped).max(1) as f64;
        r.layers = vec![
            ("hardened-alloc.table_hits", st.table_hits as f64, "count"),
            ("hardened-alloc.guard_pages", st.guard_pages as f64, "count"),
            ("hardened-alloc.zero_fills", st.zero_fills as f64, "count"),
            ("hardened-alloc.quarantined", st.quarantined as f64, "count"),
            ("hardened-alloc.evictions", st.evictions as f64, "count"),
            (
                "hardened-alloc.fail_open",
                s.stats.fail_open as f64,
                "count",
            ),
            (
                "hardened-alloc.registry_live_max",
                s.observed.registry_live_max as f64,
                "count",
            ),
            (
                "hardened-alloc.quarantine_held_mib",
                s.observed.quarantine_held_max as f64 / (1 << 20) as f64,
                "MiB",
            ),
            ("telemetry.delivered", delivered as f64, "count"),
            ("telemetry.dropped", dropped as f64, "count"),
            ("telemetry.drop_ratio", drop_ratio, "ratio"),
        ];
    }
    r
}

/// The timed run of a simulated workload: ops `0..` run closed-loop, each
/// timed alone, in whole rounds of `round` ops (one seeded pass over the
/// apps or models; a round is a chunk). With `--trace 1` one round in
/// four is traced. `op` runs one op and returns whether it verified;
/// `reference` runs the op's reference work (native runs of the same
/// inputs) outside the op, traced in traced rounds.
fn sim_phases(
    args: &Args,
    round: u64,
    tr: &mut Tracer,
    r: &mut Report,
    mut op: impl FnMut(&mut Tracer, u64) -> bool,
    mut reference: impl FnMut(&mut Tracer, u64),
) {
    let mut id = 0u64;
    stats::reset_peak_rss();
    let mut chunks = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && chunks.len() % 4 == 1;
        tr.on = traced;
        let mut chunk = Chunk {
            traced,
            ..Chunk::default()
        };
        for _ in 0..round {
            let t0 = Instant::now();
            let ok = tr.op(id, |tr| op(tr, id));
            chunk.lat_ns.push(t0.elapsed().as_nanos() as f64);
            let t0 = Instant::now();
            reference(tr, id);
            chunk.ref_secs += t0.elapsed().as_secs_f64();
            r.failed += u64::from(!ok);
            id += 1;
        }
        chunk.ops = round;
        chunk.secs = chunk.lat_ns.iter().sum::<f64>() / 1e9;
        chunks.push(chunk);
    }
    r.rss_mib = stats::peak_rss_mib();
    tr.on = false;
    r.attempted = id;
    r.phases = summaries(args.workload, &[chunks], round as usize);
}

fn counts_layers(c: &sim::Counts) -> Vec<Metric> {
    let d = &c.defense;
    vec![
        ("shadow.warnings", c.warnings as f64, "count"),
        ("defense.table_lookups", d.table_lookups as f64, "count"),
        ("defense.table_hits", d.table_hits as f64, "count"),
        ("defense.guard_pages", d.guard_pages as f64, "count"),
        ("defense.zero_fill_bytes", d.zero_fill_bytes as f64, "count"),
        (
            "defense.quarantined_blocks",
            d.quarantined_blocks as f64,
            "count",
        ),
        (
            "defense.blocked_accesses",
            d.blocked_accesses as f64,
            "count",
        ),
    ]
}

fn run_triage(args: &Args) -> Report {
    let mut r = Report::default();
    let ht = sim::pipeline();
    let mut off = Tracer::new(false);
    let mut apps = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        apps = ht_vulnapps::table2_suite();
        r.failed += apps
            .iter()
            .filter(|a| !sim::cycle(&ht, a, &mut off, &mut sim::Counts::default()))
            .count() as u64;
        let secs = t0.elapsed().as_secs_f64();
        let ips: Vec<_> = apps.iter().map(|a| ht.instrument(&a.program)).collect();
        let t0 = Instant::now();
        for (app, ip) in apps.iter().zip(&ips) {
            sim::cycle_refs(&ht, app, ip, &mut off);
        }
        r.setup.push(
            args.workload
                .at_ref_speed(secs, apps.len() as u64, t0.elapsed()),
        );
    }
    let n = apps.len();
    let ips: Vec<_> = apps.iter().map(|a| ht.instrument(&a.program)).collect();
    let mut tr = Tracer::new(false);
    let mut counts = sim::Counts::default();
    sim_phases(
        args,
        n as u64,
        &mut tr,
        &mut r,
        |tr, id| sim::cycle(&ht, &apps[sim::app_at(args.seed, id, n)], tr, &mut counts),
        |tr, id| {
            let i = sim::app_at(args.seed, id, n);
            sim::cycle_refs(&ht, &apps[i], &ips[i], tr)
        },
    );
    r.spans.push(tr.spans);
    if args.trace {
        let prefix = |seed: u64| {
            let mut c = sim::Counts::default();
            let mut off = Tracer::new(false);
            let order: Vec<usize> = (0..n as u64).map(|id| sim::app_at(seed, id, n)).collect();
            for &i in &order {
                sim::cycle(&ht, &apps[i], &mut off, &mut c);
            }
            (order, c)
        };
        let a = prefix(args.seed);
        r.problems.extend(check_rounds(
            "app",
            prefix(args.seed),
            a.clone(),
            prefix(args.seed ^ 0x9E37_79B9),
        ));
        r.layers = counts_layers(&a.1);
    }
    r
}

/// The determinism check of a round-based workload, given the first round
/// (order and exact counts) twice for the run's seed and once for another
/// seed: the same seed repeats exactly; another seed reorders the same
/// items, so the counts stay the same.
fn check_rounds(
    what: &str,
    a: (Vec<usize>, sim::Counts),
    b: (Vec<usize>, sim::Counts),
    other: (Vec<usize>, sim::Counts),
) -> Vec<String> {
    let mut bad = Vec::new();
    if a != b {
        bad.push(format!("same seed, different {what} order or counts"));
    }
    if a.0 == other.0 || a.1 != other.1 {
        bad.push(format!(
            "another seed must reorder the same {what}s with the same counts"
        ));
    }
    bad
}

fn run_spec(args: &Args) -> Report {
    let mut r = Report::default();
    let ht = sim::pipeline();
    let mut off = Tracer::new(false);
    let mut timed_setup = |r: &mut Report, ws: &mut Vec<ht_simprog::spec::SpecWorkload>| {
        let t0 = Instant::now();
        *ws = sim::spec_workloads();
        let (models, bad) = spec_setup(&ht, ws, &mut off);
        let secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for m in &models {
            ht.run_native(&m.ip, &m.input);
        }
        r.setup.push(
            args.workload
                .at_ref_speed(secs, models.len() as u64, t0.elapsed()),
        );
        r.failed += bad;
    };
    let mut ws = Vec::new();
    for _ in 0..SETUPS {
        timed_setup(&mut r, &mut ws);
    }
    // The timed set-ups' models borrow `ws` inside the closure; prepare the
    // last workloads once more for the run.
    let (models, _) = spec_setup(&ht, &ws, &mut off);
    let n = models.len();
    let mut tr = Tracer::new(false);
    let mut counts = sim::Counts::default();
    sim_phases(
        args,
        n as u64,
        &mut tr,
        &mut r,
        |tr, id| {
            sim::protected(
                &ht,
                &models[sim::model_at(args.seed, id, n)],
                tr,
                &mut counts,
            )
        },
        |tr, id| {
            let m = &models[sim::model_at(args.seed, id, n)];
            tr.span("ref.native", |_| ht.run_native(&m.ip, &m.input));
        },
    );
    r.spans.push(tr.spans);
    if args.trace {
        let prefix = |seed: u64| {
            let mut c = sim::Counts::default();
            let draws: Vec<usize> = (0..n as u64).map(|id| sim::model_at(seed, id, n)).collect();
            for &i in &draws {
                sim::protected(&ht, &models[i], &mut Tracer::new(false), &mut c);
            }
            (draws, c)
        };
        r.problems.extend(check_rounds(
            "model",
            prefix(args.seed),
            prefix(args.seed),
            prefix(args.seed ^ 0x9E37_79B9),
        ));
        r.layers = counts_layers(&prefix(args.seed).1);
    }
    r
}

/// Prepares every model and warms each up with one protected run.
/// Returns the models and the warm-up runs that failed.
fn spec_setup<'w>(
    ht: &heaptherapy_core::HeapTherapy,
    ws: &'w [ht_simprog::spec::SpecWorkload],
    off: &mut Tracer,
) -> (Vec<sim::Model<'w>>, u64) {
    let models: Vec<sim::Model<'w>> = ws.iter().map(|w| sim::prepare(ht, w)).collect();
    let bad = models
        .iter()
        .filter(|m| !sim::protected(ht, m, off, &mut sim::Counts::default()))
        .count() as u64;
    (models, bad)
}

/// Work every traced run does besides its own workload, so that every layer
/// is measured on every workload: both ladders, the native replay of the
/// real-memory stream, and one triage pass.
struct Common {
    rungs: Vec<realmem::Rung>,
    native_ns: f64,
    mem: sim::MemFigures,
    triage: sim::Counts,
    apps: usize,
}

fn common(seed: u64, tr: &mut Tracer) -> Common {
    let rungs = realmem::ladder(seed, tr);
    let native_ns = median(
        (0..3)
            .map(|_| realmem::native_stream_ns(seed, 100_000))
            .collect(),
    );
    let ht = sim::pipeline();
    let ws = sim::spec_workloads();
    let models: Vec<sim::Model<'_>> = ws.iter().map(|w| sim::prepare(&ht, w)).collect();
    let on = tr.on;
    tr.on = true;
    let mem = sim::ladder(&ht, &models, tr, 2);
    let apps = ht_vulnapps::table2_suite();
    let mut triage = sim::Counts::default();
    for app in &apps {
        sim::cycle(&ht, app, tr, &mut triage);
        sim::cycle_refs(&ht, app, &ht.instrument(&app.program), tr);
    }
    tr.on = on;
    Common {
        rungs,
        native_ns,
        mem,
        triage,
        apps: apps.len(),
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(r: &Report, c: &Common, ledger: &Ledger, cost: trace::TimerCost) -> Vec<Metric> {
    let ns = |name: &str| ledger.mean_ns(name);
    let us = |name: &str| ledger.mean_ns(name) / 1e3;
    let mut m: Vec<Metric> = vec![("hardened-alloc.native_ns", c.native_ns, "ns")];
    m.extend(c.rungs.iter().map(|g| (g.name, g.ns_per_pair, "ns")));
    for (name, span) in [
        (
            "hardened-alloc.alloc_ns.unpatched",
            "hardened-alloc.alloc.unpatched",
        ),
        (
            "hardened-alloc.dealloc_ns.unpatched",
            "hardened-alloc.dealloc.unpatched",
        ),
        ("hardened-alloc.ccid_ns", "hardened-alloc.ccid"),
        (
            "hardened-alloc.alloc_ns.guarded",
            "hardened-alloc.alloc.guarded",
        ),
        (
            "hardened-alloc.dealloc_ns.guarded",
            "hardened-alloc.dealloc.guarded",
        ),
        (
            "hardened-alloc.alloc_ns.zeroed",
            "hardened-alloc.alloc.zeroed",
        ),
        (
            "hardened-alloc.alloc_ns.deferred",
            "hardened-alloc.alloc.deferred",
        ),
        (
            "hardened-alloc.dealloc_ns.deferred",
            "hardened-alloc.dealloc.deferred",
        ),
    ] {
        m.push((name, ns(span), "ns"));
    }
    let alloc_counts = [
        "hardened-alloc.table_hits",
        "hardened-alloc.guard_pages",
        "hardened-alloc.zero_fills",
        "hardened-alloc.quarantined",
        "hardened-alloc.evictions",
        "hardened-alloc.fail_open",
        "hardened-alloc.registry_live_max",
        "hardened-alloc.quarantine_held_mib",
        "telemetry.delivered",
        "telemetry.dropped",
        "telemetry.drop_ratio",
    ];
    let sim_counts = counts_layers(&c.triage);
    let own = |name: &str| r.layers.iter().find(|l| l.0 == name).copied();
    for name in alloc_counts {
        let unit = if name.ends_with("_mib") {
            "MiB"
        } else if name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        m.push(own(name).unwrap_or((name, 0.0, unit)));
    }
    m.push(("telemetry.snapshot_us", us("telemetry.snapshot"), "us"));
    m.push(("encoding.instrument_us", us("encoding.instrument"), "us"));
    m.push(("simprog.native_us", us("simprog.native"), "us"));
    let replay = ledger.get("shadow.replay");
    m.push(("shadow.replay_us", us("shadow.replay"), "us"));
    m.push((
        "shadow.self_us",
        us("shadow.replay") - us("simprog.native"),
        "us",
    ));
    // Interpreter steps per second of shadow replay; the mean steps per
    // replay come from the common pass over all 30 apps, which every
    // workload's replays sample uniformly.
    let steps_per_replay = c.triage.replay_steps as f64 / c.apps as f64;
    m.push((
        "shadow.events_per_s",
        steps_per_replay * replay.calls as f64 / replay.total_ns.max(1.0) * 1e9,
        "1/s",
    ));
    m.push(("shadow.patchgen_us", us("shadow.patchgen"), "us"));
    m.push(("patch.config_us", us("patch.config"), "us"));
    m.push(("defense.verify_us", us("defense.verify"), "us"));
    m.push((
        "defense.self_us",
        us("defense.verify") - us("ref.native"),
        "us",
    ));
    m.push(("defense.rung.native_us", us("defense.rung.native"), "us"));
    m.push((
        "defense.rung.interpose_us",
        us("defense.rung.interpose"),
        "us",
    ));
    m.push(("defense.rung.p0_us", us("defense.rung.p0"), "us"));
    m.push(("defense.rung.p5_us", us("defense.rung.p5"), "us"));
    for l in sim_counts {
        m.push(own(l.0).unwrap_or(l));
    }
    m.push((
        "memsim.peak_rss_mib.native",
        c.mem.native_peak_rss_mib,
        "MiB",
    ));
    m.push((
        "memsim.peak_rss_mib.defended",
        c.mem.defended_peak_rss_mib,
        "MiB",
    ));
    m.push(("memsim.maps", c.mem.maps, "count"));
    m.push(("memsim.protects", c.mem.protects, "count"));
    m.push(("core.cycle_us", us("core.cycle"), "us"));
    // Tracing overhead and the layer sum compare all traced chunks with all
    // the untraced chunks interleaved with them. `trace.overhead` is what
    // tracing costs the run; `trace.op_overhead` what it costs one traced
    // op, which on the real-memory workloads also loses the overlap of its
    // cache misses with those of the next ops.
    let (untraced, traced) = (&r.phases[0], &r.phases[1]);
    let op_ns = ledger.op_ns / ledger.ops.max(1) as f64;
    m.push(("trace.timer_ns", cost.inner, "ns"));
    m.push(("trace.timer_outer_ns", cost.outer, "ns"));
    m.push(("trace.ops_per_s.untraced", untraced.ops_per_s, "ops/s"));
    m.push(("trace.ops_per_s.traced", traced.ops_per_s, "ops/s"));
    m.push((
        "trace.overhead",
        traced.raw_mean_ns / untraced.raw_mean_ns - 1.0,
        "ratio",
    ));
    m.push((
        "trace.op_overhead",
        ledger.op_raw_ns / ledger.ops.max(1) as f64 / untraced.raw_mean_ns - 1.0,
        "ratio",
    ));
    m.push((
        "trace.layer_sum_ratio",
        op_ns / untraced.raw_mean_ns,
        "ratio",
    ));
    let failed = r.failed + r.problems.len() as u64;
    m.push((
        "error_rate",
        failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    ));
    m
}

fn stamp(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("threads", Json::U64(args.workload.threads() as u64)),
        ("nproc", Json::U64(nproc)),
        ("profile", Json::Str("release".into())),
        ("commit", Json::Str(args.commit.clone())),
        ("trace", Json::Bool(args.trace)),
    ])
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|&(name, v, unit)| {
                (
                    name.to_string(),
                    obj([
                        ("value", Json::Str(format!("{v}"))),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Keeps glibc's allocator from handing freed memory back to the kernel
/// (heap trimming, per-allocation `mmap` for large blocks). On the shared
/// reference VM a page fault's cost swings with the host's state, and the
/// benchmark's own interleaving of ops and reference work otherwise made
/// the simulated workloads take ~1000 faults per round instead of ~10.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap_mapped() {
    extern "C" {
        fn mallopt(param: libc::c_int, value: libc::c_int) -> libc::c_int;
    }
    const M_TRIM_THRESHOLD: libc::c_int = -1;
    const M_MMAP_THRESHOLD: libc::c_int = -3;
    // SAFETY: mallopt only sets glibc allocator tunables; it runs before
    // this process starts any other thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, libc::c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap_mapped() {}

fn main() {
    keep_heap_mapped();
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut r = match args.workload.alloc_config() {
        Some(cfg) => run_alloc(cfg, &args),
        None if args.workload == Workload::Triage => run_triage(&args),
        None => run_spec(&args),
    };
    let e2e = r.phases[0];
    if !args.trace && e2e.beyond_p99 < 10 {
        r.problems.push(format!(
            "only {} of {} op samples lie beyond p99",
            e2e.beyond_p99, e2e.samples
        ));
    }
    let mut extra = Vec::new();
    let metrics: Vec<Metric> = if args.trace {
        let cost = trace::timer_cost();
        let mut tr = Tracer::new(false);
        let c = common(args.seed ^ 0xC0_33, &mut tr);
        r.spans.push(tr.spans);
        let mut ledger = Ledger::default();
        for s in &r.spans {
            ledger.add(s, cost);
        }
        extra.push(("layers", ledger.to_json()));
        layer_metrics(&r, &c, &ledger, cost)
    } else {
        vec![
            ("setup_s", median(r.setup.clone()), "s"),
            ("ops_per_s", e2e.ops_per_s, "ops/s"),
            ("op_p50_us", e2e.p50_ns / 1e3, "us"),
            ("op_p99_us", e2e.p99_ns / 1e3, "us"),
            ("rss_peak_mib", r.rss_mib, "MiB"),
        ]
    };
    let correct = r.failed == 0 && r.problems.is_empty();
    for p in &r.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    if let Some(dir) = &args.out {
        let path = format!("{dir}/trace-{}-{}.json", args.workload.name(), args.seed);
        let cap = 100_000;
        let doc = obj([
            ("stamp", stamp(&args)),
            ("metrics", metrics_json(&metrics)),
            (
                "spans",
                Json::Arr(
                    r.spans
                        .iter()
                        .map(|s| trace::spans_json(&s[..s.len().min(cap)]))
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.to_compact()))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    let mut record = vec![
        ("stamp", stamp(&args)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failed + r.problems.len() as u64)),
        (
            "problems",
            Json::Arr(r.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
        ("op_samples", Json::U64(e2e.samples as u64)),
        ("op_samples_beyond_p99", Json::U64(e2e.beyond_p99 as u64)),
        ("metrics", metrics_json(&metrics)),
    ];
    record.extend(extra);
    for (name, v, unit) in &metrics {
        eprintln!("{name:<40} {v:>16.4} {unit}");
    }
    println!("{}", obj(record).to_compact());
}

//! Pipeline orchestration.

use ht_callgraph::Strategy;
use ht_defense::{DefendedBackend, DefenseConfig, DefenseStats};
use ht_encoding::{InstrumentationPlan, Scheme};
use ht_memsim::{SpaceStats, QUARANTINE_QUOTA};
use ht_patch::{from_config_text, to_config_text, Patch, PatchTable, VulnFlags};
use ht_shadow::{ShadowBackend, ShadowConfig, Warning};
use ht_simprog::{HeapBackend, Interpreter, Limits, PlainBackend, Program, RunReport};
use ht_telemetry::{AttackReport, PatchCounterRow, TelemetrySnapshot, Timeline};
use ht_vulnapps::VulnApp;
use std::collections::BTreeMap;
use std::fmt;

/// Pipeline-wide configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Instrumentation-site selection strategy (paper default: the most
    /// optimized, Incremental).
    pub strategy: Strategy,
    /// Encoding scheme (paper uses PCC).
    pub scheme: Scheme,
    /// Offline analyzer configuration.
    pub shadow: ShadowConfig,
    /// Online deferred-free quota.
    pub defense_quota: u64,
    /// Interpreter limits for every run.
    pub limits: Limits,
    /// Runtime attack telemetry for protected runs (disabled by default —
    /// the online hot path pays nothing when off).
    pub telemetry: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::Incremental,
            scheme: Scheme::Pcc,
            shadow: ShadowConfig::default(),
            defense_quota: QUARANTINE_QUOTA,
            limits: Limits::default(),
            telemetry: false,
        }
    }
}

/// A program together with its instrumentation plan — the output of the
/// paper's one-time Program Instrumentation Tool.
#[derive(Debug)]
pub struct InstrumentedProgram<'p> {
    /// The (unmodified) program.
    pub program: &'p Program,
    /// The encoding plan its binary would carry.
    pub plan: InstrumentationPlan,
}

/// Output of one offline attack replay.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Everything the analyzer flagged.
    pub warnings: Vec<Warning>,
    /// The generated patches.
    pub patches: Vec<Patch>,
    /// The replay's run report.
    pub run: RunReport,
}

/// The allocator a [`HeapTherapy::run`] puts under the program: one of the
/// paper's Fig. 8 series.
#[derive(Debug, Clone, Copy)]
pub enum Deploy<'a> {
    /// No interposition, no defenses.
    Native,
    /// Allocation interposition only (Fig. 8 "interposition").
    Interposed,
    /// The defended allocator with these patches deployed.
    Protected(&'a [Patch]),
}

/// Output of one [`HeapTherapy::run`].
#[derive(Debug)]
pub struct Run {
    /// The run report.
    pub report: RunReport,
    /// Defense-side counters (all zero for a native run).
    pub stats: DefenseStats,
    /// The backend's memory-system statistics at the end of the run (peak
    /// RSS proxy, mapped bytes, map and protect calls).
    pub mem: SpaceStats,
    /// Drained telemetry, when [`PipelineConfig::telemetry`] enabled it
    /// (never for a native or interposed run).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl Run {
    /// Fig. 8's hypothesized patches, with this run as the profile: the
    /// `n` median-frequency allocation contexts of [`Self::report`],
    /// patched as overflow-vulnerable (the most expensive defense).
    pub fn hypothesized_patches(&self, n: usize) -> Vec<Patch> {
        self.report
            .median_frequency_ccids(n)
            .into_iter()
            .map(|(fun, ccid)| Patch::new(fun, ccid, VulnFlags::OVERFLOW))
            .collect()
    }
}

/// Verdict of the defense-generation cycle on one vulnerable application:
/// one row of Table II, §IX's rounds, and §VII's attack reports.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Application name.
    pub app: String,
    /// CVE / dataset reference.
    pub reference: String,
    /// Ground-truth vulnerability class.
    pub expected: VulnFlags,
    /// Union of the vulnerability bits across the deployed patches.
    pub detected: VulnFlags,
    /// The deployed patches, as read back from the configuration file, in
    /// round order.
    pub patches: Vec<Patch>,
    /// The configuration-file content that deployed them.
    pub config_text: String,
    /// Defense-generation rounds taken (§IX: one per new calling context).
    pub rounds: usize,
    /// Whether the first attack input succeeded on the undefended program.
    pub undefended_attack_succeeded: bool,
    /// Whether every attack input was defeated under the deployed patches.
    pub all_attacks_blocked: bool,
    /// Whether every benign input completed cleanly under the patches.
    pub benign_ok: bool,
    /// With [`PipelineConfig::telemetry`], the final round's attack
    /// reports: one per distinct `(FUN, CCID, T)` across all inputs, in
    /// first-activation order, call chains decoded when the encoding scheme
    /// permits (allocation site first). Empty otherwise.
    pub reports: Vec<AttackReport>,
    /// The final round's per-patch hit/byte counters summed across inputs
    /// (telemetry only).
    pub per_patch: Vec<PatchCounterRow>,
    /// Events the final round's rings accepted (telemetry only).
    pub delivered: u64,
    /// Events the final round's rings lost to overflow (telemetry only).
    pub dropped: u64,
    /// Wall-clock of each phase, summed across rounds.
    pub timeline: Timeline,
}

impl CycleReport {
    /// Whether the analyzer found (at least) the ground-truth class.
    pub fn detection_correct(&self) -> bool {
        self.detected.contains(self.expected)
    }

    /// One row of the Table II reproduction.
    pub fn table_row(&self) -> String {
        format!(
            "{:<28} {:<16} expected={:<9} detected={:<9} patches={} blocked={} benign_ok={}",
            self.app,
            self.reference,
            self.expected.to_string(),
            self.detected.to_string(),
            self.patches.len(),
            self.all_attacks_blocked,
            self.benign_ok
        )
    }
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table_row())
    }
}

/// The telemetry view of a cycle.
impl ht_jsonio::ToJson for CycleReport {
    fn to_json(&self) -> ht_jsonio::Json {
        use ht_jsonio::{obj, Json, ToJson};
        obj([
            ("app", Json::Str(self.app.clone())),
            ("reference", Json::Str(self.reference.clone())),
            (
                "reports",
                Json::Arr(self.reports.iter().map(ToJson::to_json).collect()),
            ),
            (
                "per_patch",
                Json::Arr(self.per_patch.iter().map(ToJson::to_json).collect()),
            ),
            ("delivered", Json::U64(self.delivered)),
            ("dropped", Json::U64(self.dropped)),
            ("phases", self.timeline.to_json()),
        ])
    }
}

/// Error from [`HeapTherapy::full_cycle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The offline analyzer produced no patches for the attack input.
    NoPatchesGenerated(String),
    /// The patch configuration failed to round-trip.
    ConfigRoundTrip(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoPatchesGenerated(app) => {
                write!(f, "no patches generated for {app}")
            }
            PipelineError::ConfigRoundTrip(e) => write!(f, "config round-trip failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The HeapTherapy+ system.
#[derive(Debug, Clone, Default)]
pub struct HeapTherapy {
    cfg: PipelineConfig,
}

impl HeapTherapy {
    /// A pipeline with the given configuration.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// One-time program instrumentation.
    pub fn instrument<'p>(&self, program: &'p Program) -> InstrumentedProgram<'p> {
        InstrumentedProgram {
            program,
            plan: InstrumentationPlan::build(program.graph(), self.cfg.strategy, self.cfg.scheme),
        }
    }

    /// Runs `input` under the allocator `deploy` names and reads back its
    /// counters, memory statistics and telemetry.
    pub fn run(&self, ip: &InstrumentedProgram<'_>, input: &[u64], deploy: Deploy<'_>) -> Run {
        let cfg = match deploy {
            Deploy::Native => {
                let (report, plain) = self.exec(ip, input, PlainBackend::new());
                return Run {
                    report,
                    stats: DefenseStats::default(),
                    mem: space_stats(&plain),
                    telemetry: None,
                };
            }
            Deploy::Interposed => DefenseConfig::interpose_only(),
            Deploy::Protected(patches) => DefenseConfig {
                table: Some(PatchTable::boxed(patches)),
                quarantine_quota: self.cfg.defense_quota,
                telemetry: self.cfg.telemetry,
            },
        };
        let (report, defended) = self.exec(ip, input, DefendedBackend::new(cfg));
        Run {
            report,
            stats: defended.stats(),
            mem: space_stats(&defended),
            telemetry: defended.telemetry_snapshot(),
        }
    }

    /// Runs `input` over `backend` within the configured limits; returns the
    /// report and the backend. Generic, so every backend call stays static.
    fn exec<B: HeapBackend>(
        &self,
        ip: &InstrumentedProgram<'_>,
        input: &[u64],
        backend: B,
    ) -> (RunReport, B) {
        let mut interp =
            Interpreter::new(ip.program, &ip.plan, backend).with_limits(self.cfg.limits);
        let report = interp.run(input);
        (report, interp.into_backend())
    }

    /// [`Self::run`] with [`Deploy::Native`], its report alone. Kept only
    /// for `perfbench/`; ROADMAP item 9 deletes it.
    pub fn run_native(&self, ip: &InstrumentedProgram<'_>, input: &[u64]) -> RunReport {
        self.run(ip, input, Deploy::Native).report
    }

    /// [`Self::run`] with [`Deploy::Interposed`]. Kept only for
    /// `perfbench/`; ROADMAP item 9 deletes it.
    pub fn run_interposed(&self, ip: &InstrumentedProgram<'_>, input: &[u64]) -> Run {
        self.run(ip, input, Deploy::Interposed)
    }

    /// [`Self::run`] with [`Deploy::Protected`]. Kept only for
    /// `perfbench/`; ROADMAP item 9 deletes it.
    pub fn run_protected(
        &self,
        ip: &InstrumentedProgram<'_>,
        input: &[u64],
        patches: &[Patch],
    ) -> Run {
        self.run(ip, input, Deploy::Protected(patches))
    }

    /// Offline phase: replays `input` under the shadow analyzer and
    /// generates patches attributed to `origin`.
    pub fn analyze_attack(
        &self,
        ip: &InstrumentedProgram<'_>,
        input: &[u64],
        origin: &str,
    ) -> AnalysisReport {
        self.analyze_attack_partitioned(ip, input, origin, 1)
    }

    /// §IX: replays the attack in `n` executions, each deferring only the
    /// buffers whose allocation-time CCID falls in its subspace, and merges
    /// their patches with [`ht_patch::merge`] (overflow and UR warnings
    /// repeat in every replay): the memory-bounded variant of
    /// [`Self::analyze_attack`] for programs whose free churn would drain
    /// the quarantine quota. The union equals the single replay's patches,
    /// however many keys it holds.
    pub fn analyze_attack_partitioned(
        &self,
        ip: &InstrumentedProgram<'_>,
        input: &[u64],
        origin: &str,
        n: u64,
    ) -> AnalysisReport {
        let mut warnings = Vec::new();
        let mut patches = Vec::new();
        let mut last_run = None;
        for index in 0..n.max(1) {
            let mut cfg = self.cfg.shadow;
            cfg.partition = Some(ht_shadow::CcidPartition {
                index,
                of: n.max(1),
            });
            let (run, shadow) = self.exec(ip, input, ShadowBackend::with_config(cfg));
            last_run = Some(run);
            warnings.extend(shadow.warnings().iter().cloned());
            patches.extend(shadow.generate_patches(origin));
        }
        AnalysisReport {
            warnings,
            patches: ht_patch::merge(patches, origin),
            run: last_run.expect("n >= 1 replay ran"),
        }
    }

    /// [`Run::hypothesized_patches`] of a fresh native run of `input`. Kept
    /// for `perfbench/` and for callers with no profile at hand; a caller
    /// that already ran `input` natively asks its [`Run`] instead.
    pub fn hypothesized_patches(
        &self,
        ip: &InstrumentedProgram<'_>,
        input: &[u64],
        n: usize,
    ) -> Vec<Patch> {
        self.run(ip, input, Deploy::Native).hypothesized_patches(n)
    }

    /// The defense-generation cycle for one vulnerable application, for
    /// up to `max_rounds` rounds (at least one). Round 1 replays [`VulnApp::patching_input`]
    /// offline; every round deploys the patches gathered so far code-lessly
    /// (written to the configuration file and read back) and replays every
    /// attack and benign input protected. While an attack still breaches
    /// and rounds remain, the first such input starts another round (§IX:
    /// "whenever the attack exploits a buffer allocated in a new calling
    /// context, our system simply treats it as a new vulnerability and
    /// starts another defense generation cycle"). Running out of rounds is
    /// not an error: the report says `all_attacks_blocked == false`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoPatchesGenerated`] if a round's analysis finds
    /// nothing the deployed patches do not already cover;
    /// [`PipelineError::ConfigRoundTrip`] if the configuration file failed
    /// to parse back.
    pub fn full_cycle(
        &self,
        app: &VulnApp,
        max_rounds: usize,
    ) -> Result<CycleReport, PipelineError> {
        let mut tl = Timeline::new();
        let ip = tl.time("instrument", || self.instrument(&app.program));
        // Ground truth: the exploit works when undefended.
        let native = tl.time("native", || {
            self.run(&ip, app.patching_input(), Deploy::Native)
        });
        let mut attack = app.patching_input();
        let mut deployed: Vec<Patch> = Vec::new();
        let mut rounds = 0;
        loop {
            rounds += 1;
            // Offline: the attack input → the patches not yet deployed.
            let analysis = tl.time("analyze", || {
                self.analyze_attack(&ip, attack, &app.reference)
            });
            let covered = |p: &Patch| {
                let bits = deployed.iter().filter(|d| d.key() == p.key());
                bits.fold(VulnFlags::NONE, |acc, d| acc | d.vuln)
                    .contains(p.vuln)
            };
            let fresh: Vec<Patch> = analysis
                .patches
                .into_iter()
                .filter(|p| !covered(p))
                .collect();
            if fresh.is_empty() {
                return Err(PipelineError::NoPatchesGenerated(format!(
                    "{} in round {rounds}",
                    app.name
                )));
            }
            deployed.extend(fresh);
            // Code-less deployment: write the configuration file, read it back.
            let config_text = to_config_text(&deployed);
            deployed = tl
                .time("patch-gen", || from_config_text(&config_text))
                .map_err(|e| PipelineError::ConfigRoundTrip(e.to_string()))?;

            // Online: every attack input must be defeated, and every benign
            // input must run to completion unharmed. Each replay is a fresh
            // process image, so reports are deduplicated across runs.
            let mut breached = None;
            let mut benign_ok = true;
            let mut reports: Vec<AttackReport> = Vec::new();
            let mut per_patch: BTreeMap<usize, PatchCounterRow> = BTreeMap::new();
            let (mut delivered, mut dropped) = (0u64, 0u64);
            tl.time("protected", || {
                for (i, input) in app
                    .attack_inputs
                    .iter()
                    .chain(&app.benign_inputs)
                    .enumerate()
                {
                    let run = self.run(&ip, input, Deploy::Protected(&deployed));
                    let attack_succeeded = app.attack_succeeded(&run.report);
                    if i < app.attack_inputs.len() {
                        breached = breached.or(attack_succeeded.then_some(input));
                    } else {
                        benign_ok &= run.report.outcome.is_completed() && !attack_succeeded;
                    }
                    let Some(snap) = run.telemetry else { continue };
                    delivered += snap.delivered;
                    dropped += snap.dropped;
                    for mut r in snap.reports {
                        let key = (r.fun, r.ccid, r.vuln);
                        if reports.iter().all(|x| (x.fun, x.ccid, x.vuln) != key) {
                            // Attack reports list the allocation site first.
                            r.call_chain = crate::report::decode_chain(&ip, r.fun, r.ccid)
                                .map(|chain| chain.into_iter().rev().collect())
                                .unwrap_or_default();
                            reports.push(r);
                        }
                    }
                    for row in snap.per_patch {
                        per_patch
                            .entry(row.slot)
                            .and_modify(|e| {
                                e.hits += row.hits;
                                e.bytes += row.bytes;
                            })
                            .or_insert(row);
                    }
                }
            });
            match breached {
                Some(input) if rounds < max_rounds => attack = input,
                _ => {
                    return Ok(CycleReport {
                        app: app.name.clone(),
                        reference: app.reference.clone(),
                        expected: app.expected,
                        detected: deployed.iter().fold(VulnFlags::NONE, |acc, p| acc | p.vuln),
                        patches: deployed,
                        config_text,
                        rounds,
                        undefended_attack_succeeded: app.attack_succeeded(&native.report),
                        all_attacks_blocked: breached.is_none(),
                        benign_ok,
                        reports,
                        per_patch: per_patch.into_values().collect(),
                        delivered,
                        dropped,
                        timeline: tl,
                    })
                }
            }
        }
    }
}

/// The memory-system statistics of a backend that tracks them.
fn space_stats(backend: &impl HeapBackend) -> SpaceStats {
    backend
        .mem_stats()
        .expect("the plain and defended backends track memory")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_shadow::WarningKind;

    fn ht() -> HeapTherapy {
        HeapTherapy::new(PipelineConfig::default())
    }

    #[test]
    fn full_cycle_bc_overflow() {
        let report = ht().full_cycle(&ht_vulnapps::bc(), 1).unwrap();
        assert!(report.undefended_attack_succeeded);
        assert_eq!(report.detected, VulnFlags::OVERFLOW);
        assert!(report.detection_correct());
        assert!(report.all_attacks_blocked);
        assert!(report.benign_ok);
        assert!(report.config_text.contains("malloc"));
    }

    #[test]
    fn full_cycle_heartbleed_multi_vuln() {
        let report = ht().full_cycle(&ht_vulnapps::heartbleed(), 1).unwrap();
        assert!(report.detected.contains(VulnFlags::UNINIT_READ));
        assert!(report.detected.contains(VulnFlags::OVERFLOW));
        assert!(
            report.all_attacks_blocked,
            "all fresh attack inputs defeated"
        );
        assert!(report.benign_ok);
    }

    #[test]
    fn full_cycle_uaf_apps() {
        for app in [ht_vulnapps::optipng(), ht_vulnapps::wavpack()] {
            let report = ht().full_cycle(&app, 1).unwrap();
            assert_eq!(report.detected, VulnFlags::USE_AFTER_FREE, "{}", report.app);
            assert!(report.all_attacks_blocked, "{}", report.app);
            assert!(report.benign_ok, "{}", report.app);
        }
    }

    #[test]
    fn full_cycle_realloc_and_calloc_origins() {
        let tiff = ht().full_cycle(&ht_vulnapps::tiff(), 1).unwrap();
        assert!(tiff.config_text.contains("realloc"), "{}", tiff.config_text);
        assert!(tiff.all_attacks_blocked);
        let ming = ht().full_cycle(&ht_vulnapps::libming(), 1).unwrap();
        assert!(ming.config_text.contains("calloc"), "{}", ming.config_text);
        assert!(ming.all_attacks_blocked);
    }

    #[test]
    fn analysis_report_carries_warnings() {
        let app = ht_vulnapps::ghostxps();
        let ht = ht();
        let ip = ht.instrument(&app.program);
        let analysis = ht.analyze_attack(&ip, app.patching_input(), "CVE-2017-9740");
        assert!(analysis
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::UninitRead));
        assert_eq!(analysis.patches.len(), 1);
        assert_eq!(analysis.patches[0].origin, "CVE-2017-9740");
    }

    #[test]
    fn benign_input_generates_no_patches() {
        let app = ht_vulnapps::bc();
        let ht = ht();
        let ip = ht.instrument(&app.program);
        let analysis = ht.analyze_attack(&ip, &app.benign_inputs[0], "none");
        assert!(analysis.patches.is_empty(), "zero false positives");
    }

    #[test]
    fn hypothesized_patches_pick_median_contexts() {
        let w = ht_simprog::spec::build_spec_workload(
            ht_simprog::spec::spec_bench("456.hmmer").unwrap(),
        );
        let ht = ht();
        let ip = ht.instrument(&w.program);
        let input = w.input_for_allocs(500);
        let native = ht.run(&ip, &input, Deploy::Native);
        for n in [1usize, 5] {
            let patches = native.hypothesized_patches(n);
            assert_eq!(patches, ht.hypothesized_patches(&ip, &input, n));
            assert_eq!(patches.len(), n);
            for p in &patches {
                assert_eq!(p.vuln, VulnFlags::OVERFLOW);
            }
            // The protected run must still complete (defenses are
            // transparent to program logic).
            let run = ht.run(&ip, &input, Deploy::Protected(&patches));
            assert!(run.report.outcome.is_completed());
            assert!(run.stats.table_hits > 0, "patched contexts were exercised");
        }
    }

    #[test]
    fn strategies_and_schemes_all_work_end_to_end() {
        for strategy in Strategy::ALL {
            for scheme in Scheme::ALL {
                let cfg = PipelineConfig {
                    strategy,
                    scheme,
                    ..PipelineConfig::default()
                };
                let report = HeapTherapy::new(cfg)
                    .full_cycle(&ht_vulnapps::bc(), 1)
                    .unwrap();
                assert!(
                    report.all_attacks_blocked && report.benign_ok,
                    "{strategy}/{scheme}"
                );
            }
        }
    }

    #[test]
    fn interposed_run_counts_calls() {
        let app = ht_vulnapps::bc();
        let ht = ht();
        let ip = ht.instrument(&app.program);
        let run = ht.run(&ip, &app.benign_inputs[0], Deploy::Interposed);
        assert!(run.report.outcome.is_completed());
        assert!(run.stats.interposed_allocs >= 2);
        assert_eq!(run.stats.table_lookups, 0);
    }

    #[test]
    fn partitioned_analysis_matches_single_replay() {
        // §IX: splitting the CCID space across N replays must find the same
        // patches as one replay with an unbounded quota.
        for app in [ht_vulnapps::optipng(), ht_vulnapps::heartbleed()] {
            let ht = ht();
            let ip = ht.instrument(&app.program);
            let single = ht.analyze_attack(&ip, app.patching_input(), "x");
            for n in [2u64, 4] {
                let parts = ht.analyze_attack_partitioned(&ip, app.patching_input(), "x", n);
                assert_eq!(parts.patches, single.patches, "{} n={n}", app.name);
            }
        }
    }

    /// `main` calls 600 functions `f_i`; each mallocs 8 B and writes 16 B,
    /// so one attack overflows 600 contexts: more distinct `(FUN, CCID)`
    /// keys than the online patch table holds.
    fn six_hundred_overflowed_contexts() -> VulnApp {
        let mut pb = ht_simprog::ProgramBuilder::new();
        let main = pb.entry();
        let buf = pb.slot();
        let fs: Vec<_> = (0..600).map(|i| pb.func(format!("f_{i}"))).collect();
        pb.define(main, |b| fs.iter().for_each(|&f| b.call(f)));
        for &f in &fs {
            pb.define(f, |b| {
                b.alloc(buf, ht_patch::AllocFn::Malloc, 8);
                b.write(buf, 0, 16, 0x41);
            });
        }
        VulnApp {
            name: "600-contexts".into(),
            reference: "many".into(),
            expected: VulnFlags::OVERFLOW,
            program: pb.build(),
            benign_inputs: Vec::new(),
            attack_inputs: vec![vec![0]],
            success_markers: Vec::new(),
        }
    }

    #[test]
    fn merged_patches_outgrow_the_online_table() {
        let app = six_hundred_overflowed_contexts();
        let ht = ht();
        let ip = ht.instrument(&app.program);
        let single = ht.analyze_attack(&ip, app.patching_input(), "many");
        assert_eq!(single.patches.len(), 600);
        for n in [2u64, 4] {
            let parts = ht.analyze_attack_partitioned(&ip, app.patching_input(), "many", n);
            assert_eq!(parts.patches, single.patches, "n={n}");
        }
        assert_eq!(ht.lint(&app).dynamic_patches.len(), 600);
    }

    #[test]
    fn full_cycle_single_context_takes_one_round() {
        let report = ht().full_cycle(&ht_vulnapps::bc(), 5).unwrap();
        assert_eq!(report.rounds, 1, "one context, one cycle");
        // A wide overflow can violate both the overflowed array and the
        // neighbour's red zone, so one round may emit one or two patches.
        assert!((1..=2).contains(&report.patches.len()), "{report:?}");
    }

    #[test]
    fn full_cycle_discovers_the_second_context() {
        // §IX: the first round patches the context of the first attack
        // input; the second attack drives the same bug through a different
        // handler and forces a second round.
        let app = ht_vulnapps::multi_context_overflow();
        let ht = ht();

        // One round is NOT enough for this app, and running out of rounds
        // is a verdict, not an error.
        let one = ht.full_cycle(&app, 1).unwrap();
        assert_eq!((one.rounds, one.patches.len()), (1, 1));
        assert!(
            !one.all_attacks_blocked,
            "the second context is still exposed"
        );
        assert!(one.benign_ok);

        // The cycle converges in two rounds with two context patches.
        let report = ht.full_cycle(&app, 5).unwrap();
        assert_eq!(report.rounds, 2, "one extra round per new calling context");
        assert_eq!(report.patches.len(), 2);
        assert_eq!(report.patches[0], one.patches[0], "round order");
        assert!(report.all_attacks_blocked && report.benign_ok);
        assert_eq!(
            from_config_text(&report.config_text).unwrap(),
            report.patches
        );
    }

    #[test]
    fn full_cycle_finds_nothing_to_patch_when_already_safe() {
        // Benign-only "attacks": the first round's replay finds nothing.
        let mut app = ht_vulnapps::bc();
        app.attack_inputs = app.benign_inputs.clone();
        assert!(matches!(
            ht().full_cycle(&app, 5),
            Err(PipelineError::NoPatchesGenerated(_))
        ));
    }

    /// `main` mallocs 8 B, writes 16 B into it and sends its first 8 B to
    /// the attacker: the overflow gets patched, yet the "attack" (the
    /// marker reaching the attacker) succeeds under any defense.
    fn unstoppable_leak() -> VulnApp {
        let mut pb = ht_simprog::ProgramBuilder::new();
        let main = pb.entry();
        let buf = pb.slot();
        pb.define(main, |b| {
            b.alloc(buf, ht_patch::AllocFn::Malloc, 8);
            b.write(buf, 0, 16, 0x41);
            b.read(buf, 0, 8, ht_simprog::Sink::Leak);
        });
        VulnApp {
            name: "unstoppable".into(),
            reference: "none".into(),
            expected: VulnFlags::OVERFLOW,
            program: pb.build(),
            benign_inputs: Vec::new(),
            attack_inputs: vec![vec![0]],
            success_markers: vec![vec![0x41; 8]],
        }
    }

    #[test]
    fn a_round_that_finds_nothing_new_is_an_error() {
        let app = unstoppable_leak();
        let one = ht().full_cycle(&app, 1).unwrap();
        assert_eq!((one.rounds, one.patches.len()), (1, 1));
        assert!(!one.all_attacks_blocked);
        match ht().full_cycle(&app, 2) {
            Err(PipelineError::NoPatchesGenerated(msg)) => {
                assert!(msg.contains("round 2"), "{msg}")
            }
            other => panic!("expected NoPatchesGenerated, got {other:?}"),
        }
    }

    fn armed(strategy: Strategy, scheme: Scheme) -> HeapTherapy {
        HeapTherapy::new(PipelineConfig {
            strategy,
            scheme,
            telemetry: true,
            ..PipelineConfig::default()
        })
    }

    #[test]
    fn armed_cycle_files_one_report_per_fun_ccid_t() {
        for app in [
            ht_vulnapps::bc(),
            ht_vulnapps::heartbleed(),
            ht_vulnapps::optipng(),
        ] {
            let tel = armed(Strategy::Incremental, Scheme::Pcc)
                .full_cycle(&app, 1)
                .unwrap();
            assert!(!tel.reports.is_empty(), "{}: defense fired", app.name);
            let mut keys: Vec<_> = tel
                .reports
                .iter()
                .map(|r| (r.fun, r.ccid, r.vuln))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(
                keys.len(),
                tel.reports.len(),
                "{}: exactly one report per (FUN, CCID, T)",
                app.name
            );
            // Every report's vuln bit is a single T.
            for r in &tel.reports {
                assert_eq!(r.vuln.bits().count_ones(), 1, "{}: {r:?}", app.name);
            }
            assert!(tel.per_patch.iter().all(|p| p.hits > 0));
            assert!(tel.delivered > 0);
        }
    }

    #[test]
    fn unarmed_cycle_carries_no_telemetry() {
        let report = ht().full_cycle(&ht_vulnapps::bc(), 1).unwrap();
        assert!(report.reports.is_empty() && report.per_patch.is_empty());
        assert_eq!((report.delivered, report.dropped), (0, 0));
    }

    #[test]
    fn armed_cycle_decodes_chains_under_precise_scheme() {
        let tel = armed(Strategy::Slim, Scheme::Additive)
            .full_cycle(&ht_vulnapps::bc(), 1)
            .unwrap();
        let of = tel
            .reports
            .iter()
            .find(|r| r.vuln == VulnFlags::OVERFLOW)
            .expect("overflow report");
        assert!(!of.call_chain.is_empty(), "precise scheme decodes");
        assert_eq!(
            of.call_chain.last().map(String::as_str),
            Some("main"),
            "allocation site first, entry last: {:?}",
            of.call_chain
        );
        assert!(
            of.call_chain.iter().any(|f| f == "more_arrays"),
            "culprit frame named: {:?}",
            of.call_chain
        );
        // The report matches the offline patch identity.
        let text = of.to_string();
        assert!(text.contains("guard page"), "{text}");
    }

    #[test]
    fn armed_multi_context_cycle_reports_both_contexts() {
        let report = armed(Strategy::Incremental, Scheme::Pcc)
            .full_cycle(&ht_vulnapps::multi_context_overflow(), 8)
            .unwrap();
        assert_eq!((report.rounds, report.patches.len()), (2, 2));
        assert!(report.all_attacks_blocked && report.benign_ok);
        for p in &report.patches {
            let row = report.per_patch.iter().find(|r| (r.fun, r.ccid) == p.key());
            assert!(
                row.is_some_and(|r| r.hits > 0),
                "{p}: {:?}",
                report.per_patch
            );
            let filed = report.reports.iter().filter(|r| (r.fun, r.ccid) == p.key());
            assert_eq!(filed.count(), 1, "{p}: {:?}", report.reports);
        }
        // A phase repeated across rounds adds into its one span.
        let names: Vec<&str> = report
            .timeline
            .spans()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["instrument", "native", "analyze", "patch-gen", "protected"]
        );
    }

    #[test]
    fn telemetry_armed_run_matches_plain_run() {
        // Arming telemetry must not change what the defense does.
        let app = ht_vulnapps::heartbleed();
        let plain = ht().full_cycle(&app, 1).unwrap();
        let armed = HeapTherapy::new(PipelineConfig {
            telemetry: true,
            ..PipelineConfig::default()
        })
        .full_cycle(&app, 1)
        .unwrap();
        assert_eq!(plain.detected, armed.detected);
        assert_eq!(plain.patches, armed.patches);
        assert_eq!(plain.config_text, armed.config_text);
        assert_eq!(plain.all_attacks_blocked, armed.all_attacks_blocked);
        assert_eq!(plain.benign_ok, armed.benign_ok);
    }

    #[test]
    fn cycle_report_row_renders() {
        let report = ht().full_cycle(&ht_vulnapps::optipng(), 1).unwrap();
        let row = report.to_string();
        assert!(row.contains("optipng"), "{row}");
        assert!(row.contains("CVE-2015-7801"), "{row}");
    }
}

//! The simulated flows: the offline attack-to-patch cycle over the Table II
//! apps, and the online defense over the SPEC models at the Fig. 8 scale.

use crate::gen::Rng;
use crate::trace::Tracer;
use heaptherapy_core::{HeapTherapy, InstrumentedProgram, PipelineConfig};
use ht_defense::{DefendedBackend, DefenseConfig, DefenseStats};
use ht_patch::{from_config_text, to_config_text, Patch, PatchTable, VulnFlags};
use ht_shadow::ShadowBackend;
use ht_simprog::spec::{build_spec_workload, spec_suite, SpecWorkload};
use ht_simprog::{HeapBackend, Interpreter, PlainBackend};
use ht_vulnapps::VulnApp;

/// The SPEC models replay this fraction of their Table IV allocation
/// volume, with at least [`MIN_ITERATIONS`] main-loop iterations, as
/// `bench::fig8` floors it.
pub const SPEC_FRACTION: f64 = 3e-5;
pub const MIN_ITERATIONS: u64 = 200;

/// Counts that depend only on the seeded op stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub warnings: u64,
    pub patches: u64,
    pub replay_steps: u64,
    pub defense: DefenseStats,
}

impl Counts {
    fn add_defense(&mut self, s: &DefenseStats) {
        let d = &mut self.defense;
        d.interposed_allocs += s.interposed_allocs;
        d.interposed_frees += s.interposed_frees;
        d.table_lookups += s.table_lookups;
        d.table_hits += s.table_hits;
        d.guard_pages += s.guard_pages;
        d.zero_fill_bytes += s.zero_fill_bytes;
        d.quarantined_blocks += s.quarantined_blocks;
        d.blocked_accesses += s.blocked_accesses;
    }
}

pub fn pipeline() -> HeapTherapy {
    HeapTherapy::new(PipelineConfig::default())
}

/// The app the triage workload cycles through at op `id`: passes over the
/// 30 Table II apps, each pass in its own seeded order.
pub fn app_at(seed: u64, id: u64, n: usize) -> usize {
    seeded_round(seed, 0x7A1A_6E00, id, n)
}

/// One attack-to-verified-patch cycle: instrument, run the patching input
/// natively (ground truth), replay it under the shadow analyzer, generate
/// patches, round-trip the configuration file, and run every attack and
/// benign input protected. Returns whether the cycle verified.
pub fn cycle(ht: &HeapTherapy, app: &VulnApp, tr: &mut Tracer, counts: &mut Counts) -> bool {
    tr.span("core.cycle", |tr| {
        let ip = tr.span("encoding.instrument", |_| ht.instrument(&app.program));
        let input = app.patching_input();
        let native = tr.span("simprog.native", |_| ht.run_native(&ip, input));
        let undefended_attack_succeeded = app.attack_succeeded(&native);
        let (replay, shadow) = tr.span("shadow.replay", |_| {
            let backend = ShadowBackend::with_config(ht.config().shadow);
            let mut interp =
                Interpreter::new(ip.program, &ip.plan, backend).with_limits(ht.config().limits);
            let run = interp.run(input);
            (run, interp.into_backend())
        });
        counts.replay_steps += replay.steps;
        counts.warnings += shadow.warnings().len() as u64;
        let patches = tr.span("shadow.patchgen", |_| {
            shadow.generate_patches(&app.reference)
        });
        let deployed = tr.span("patch.config", |_| {
            from_config_text(&to_config_text(&patches))
        });
        let Ok(deployed) = deployed else {
            return false;
        };
        counts.patches += deployed.len() as u64;
        let detected = deployed.iter().fold(VulnFlags::NONE, |acc, p| acc | p.vuln);
        let mut verify = |input: &[u64]| {
            let run = tr.span("defense.verify", |_| {
                ht.run_protected(&ip, input, &deployed)
            });
            counts.add_defense(&run.stats);
            run.report
        };
        let all_attacks_blocked = app
            .attack_inputs
            .iter()
            .all(|i| !app.attack_succeeded(&verify(i)));
        let benign_ok = app.benign_inputs.iter().all(|i| {
            let r = verify(i);
            r.outcome.is_completed() && !app.attack_succeeded(&r)
        });
        !deployed.is_empty()
            && undefended_attack_succeeded
            && detected.contains(app.expected)
            && all_attacks_blocked
            && benign_ok
    })
}

/// Native runs of every input the cycle verifies, outside any op: the
/// cycle's reference work, and the base `defense.self_us` subtracts.
pub fn cycle_refs(ht: &HeapTherapy, app: &VulnApp, ip: &InstrumentedProgram<'_>, tr: &mut Tracer) {
    for input in app.attack_inputs.iter().chain(&app.benign_inputs) {
        tr.span("ref.native", |_| ht.run_native(ip, input));
    }
}

/// One SPEC model prepared for protected runs.
pub struct Model<'w> {
    pub ip: InstrumentedProgram<'w>,
    pub input: Vec<u64>,
    /// The five median-frequency contexts, patched as overflow-vulnerable.
    pub p5: Vec<Patch>,
    /// Patch-table hits the profile predicts for one protected run.
    pub expected_hits: u64,
}

pub fn spec_workloads() -> Vec<SpecWorkload> {
    spec_suite().into_iter().map(build_spec_workload).collect()
}

/// Instruments a model, computes its hypothesized patches and the hits
/// its native profile predicts for them.
pub fn prepare<'w>(ht: &HeapTherapy, w: &'w SpecWorkload) -> Model<'w> {
    let ip = ht.instrument(&w.program);
    let mut input = w.input_for_fraction(SPEC_FRACTION);
    input[0] = input[0].max(MIN_ITERATIONS);
    let p5 = ht.hypothesized_patches(&ip, &input, 5);
    let profile = ht.run_native(&ip, &input);
    let expected_hits = p5
        .iter()
        .map(|p| {
            profile
                .ccid_freq
                .get(&(p.alloc_fn, p.ccid))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    Model {
        ip,
        input,
        p5,
        expected_hits,
    }
}

/// The model the SPEC workload runs at op `id`: rounds over the 12
/// models, each round in its own seeded order.
pub fn model_at(seed: u64, id: u64, n: usize) -> usize {
    seeded_round(seed, 0x5BEC_0000, id, n)
}

/// Item `id % n` of round `id / n`, each round a seeded permutation of
/// `0..n`.
fn seeded_round(seed: u64, stream: u64, id: u64, n: usize) -> usize {
    let round = id / n as u64;
    Rng::new(seed, stream + round).shuffled(n)[(id % n as u64) as usize]
}

/// One protected run of `m` with its five patches. Returns whether it
/// completed with the profile's table-hit count.
pub fn protected(ht: &HeapTherapy, m: &Model<'_>, tr: &mut Tracer, counts: &mut Counts) -> bool {
    let run = tr.span("defense.verify", |_| {
        ht.run_protected(&m.ip, &m.input, &m.p5)
    });
    counts.add_defense(&run.stats);
    run.report.outcome.is_completed() && run.stats.table_hits == m.expected_hits
}

/// Memory-system figures of the simulator ladder, averaged over the models.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemFigures {
    pub native_peak_rss_mib: f64,
    pub defended_peak_rss_mib: f64,
    pub maps: f64,
    pub protects: f64,
}

/// The simulator ladder on every model: native, interpose only, zero
/// patches, five patches. Also reads the memory system of a native and a
/// five-patch run.
pub fn ladder(ht: &HeapTherapy, models: &[Model<'_>], tr: &mut Tracer, reps: usize) -> MemFigures {
    let mut mem = MemFigures::default();
    for m in models {
        for _ in 0..reps {
            tr.span("defense.rung.native", |_| ht.run_native(&m.ip, &m.input));
            tr.span("defense.rung.interpose", |_| {
                ht.run_interposed(&m.ip, &m.input)
            });
            tr.span("defense.rung.p0", |_| {
                ht.run_protected(&m.ip, &m.input, &[])
            });
            tr.span("defense.rung.p5", |_| {
                ht.run_protected(&m.ip, &m.input, &m.p5)
            });
        }
        let native = mem_stats(m, PlainBackend::new());
        let mut cfg = DefenseConfig::with_table(PatchTable::from_patches(m.p5.clone()));
        cfg.quarantine_quota = ht.config().defense_quota;
        let defended = mem_stats(m, DefendedBackend::new(cfg));
        mem.native_peak_rss_mib += native.peak_rss_bytes as f64 / (1 << 20) as f64;
        mem.defended_peak_rss_mib += defended.peak_rss_bytes as f64 / (1 << 20) as f64;
        mem.maps += defended.maps as f64;
        mem.protects += defended.protects as f64;
    }
    let n = models.len().max(1) as f64;
    mem.native_peak_rss_mib /= n;
    mem.defended_peak_rss_mib /= n;
    mem.maps /= n;
    mem.protects /= n;
    mem
}

fn mem_stats<B: HeapBackend>(m: &Model<'_>, backend: B) -> ht_memsim::SpaceStats {
    let mut interp = Interpreter::new(m.ip.program, &m.ip.plan, backend);
    interp.run(&m.input);
    interp
        .backend()
        .mem_stats()
        .expect("backend tracks memory")
        .0
}

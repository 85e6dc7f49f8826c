//! Acceptance tests for the static triage pass and the plan verifier.
//!
//! The contract: on every modeled vulnerable application, the static triage
//! must have **zero false negatives** relative to the dynamic pipeline —
//! every patch the shadow analyzer generates from a concrete attack input
//! must be covered by a static candidate with the same `(FUN, CCID)` key
//! and a superset of its vulnerability classes.

use heaptherapy_plus::analysis::{verify_plan, VerifierLimits};
use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{HeapTherapy, PipelineConfig};
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::simprog::spec;
use heaptherapy_plus::vulnapps;

fn ht() -> HeapTherapy {
    HeapTherapy::new(PipelineConfig::default())
}

#[test]
fn zero_false_negatives_on_the_table2_suite() {
    // All 7 CVE apps + 23 SAMATE cases: every dynamic patch (from every
    // attack input) has a covering static candidate.
    let suite = vulnapps::table2_suite();
    assert_eq!(suite.len(), 30);
    for app in suite {
        let report = ht().lint(&app);
        assert!(
            !report.triage.bounded,
            "{}: triage should fully converge",
            app.name
        );
        assert!(
            report.static_over_approximates(),
            "{}: dynamic patches without static candidates: {:?}",
            app.name,
            report.uncovered
        );
        assert!(
            !report.dynamic_patches.is_empty(),
            "{}: the attack input must produce dynamic patches",
            app.name
        );
        assert!(
            !report.triage.is_clean(),
            "{}: a vulnerable app must have static candidates",
            app.name
        );
        assert_eq!(report.exit_code(), 2, "{}", app.name);
    }
}

#[test]
fn triage_detects_the_ground_truth_class() {
    // Beyond key coverage: for each app, the union of static candidate
    // classes must include the ground-truth vulnerability class.
    for app in vulnapps::table2_suite() {
        let h = ht();
        let ip = h.instrument(&app.program);
        let triage = h.static_triage(&ip);
        let union = triage
            .candidates
            .iter()
            .fold(heaptherapy_plus::patch::VulnFlags::NONE, |acc, c| {
                acc | c.vuln
            });
        assert!(
            union.contains(app.expected),
            "{}: expected {} within static union {}",
            app.name,
            app.expected,
            union
        );
    }
}

#[test]
fn multi_context_overflow_yields_one_candidate_per_context() {
    let app = vulnapps::multi_context_overflow();
    let report = ht().lint(&app);
    assert!(report.triage.candidates.len() >= 2, "{:?}", report.triage);
    assert!(report.static_over_approximates(), "{:?}", report.uncovered);
}

#[test]
fn plan_verifier_passes_on_the_fig2_graph() {
    let graph = ht_bench::fig2::example_graph();
    for strategy in Strategy::ALL {
        for scheme in Scheme::ALL {
            let plan = InstrumentationPlan::build(&graph, strategy, scheme);
            let v = verify_plan(&graph, &plan, &VerifierLimits::default());
            assert!(v.is_ok(), "fig2 {strategy}/{scheme}: {v:?}");
            assert!(!v.bounded, "fig2 enumerates fully");
        }
    }
}

#[test]
fn plan_verifier_passes_on_all_spec_models() {
    let suite = spec::spec_suite();
    assert_eq!(suite.len(), 12);
    for bench in suite {
        let w = spec::build_spec_workload(bench);
        for strategy in Strategy::ALL {
            let plan = InstrumentationPlan::build(w.program.graph(), strategy, Scheme::Pcc);
            let v = verify_plan(w.program.graph(), &plan, &VerifierLimits::default());
            assert!(
                v.inclusion_ok && v.sites_ok && v.coverage_ok,
                "{} {strategy}: {v:?}",
                bench.name
            );
        }
    }
}

/// The one precise scheme is precise on every model graph the repo has: each
/// SPEC model, each Table II app and the multi-context case, under every
/// strategy, verifies collision-free with every enumerated context decoding
/// back to itself. A model whose target-reaching subgraph recursed would
/// fall back to PCC constants and fail here.
#[test]
fn the_additive_plan_is_precise_on_every_model_graph() {
    let spec = spec::spec_suite().into_iter().map(|bench| {
        (
            bench.name.to_string(),
            spec::build_spec_workload(bench).program,
        )
    });
    let apps = vulnapps::table2_suite()
        .into_iter()
        .chain([vulnapps::multi_context_overflow()])
        .map(|app| (app.name.clone(), app.program));
    let models: Vec<_> = spec.chain(apps).collect();
    assert_eq!(models.len(), 12 + 30 + 1);
    for (name, program) in &models {
        for strategy in Strategy::ALL {
            let plan = InstrumentationPlan::build(program.graph(), strategy, Scheme::Additive);
            assert!(plan.is_precise(), "{name} {strategy}");
            let v = verify_plan(program.graph(), &plan, &VerifierLimits::default());
            assert!(v.is_ok(), "{name} {strategy}: {v:?}");
            assert_eq!(v.collisions.collisions, 0, "{name} {strategy}");
            assert_eq!(v.collisions.decode_failures, 0, "{name} {strategy}");
        }
    }
}

#[test]
fn spec_models_triage_clean() {
    // The SPEC workload models are legal programs: constant in-bounds
    // extents, inputs only drive loop trip counts. Static triage must not
    // raise false alarms on any of them.
    for bench in spec::spec_suite() {
        let w = spec::build_spec_workload(bench);
        let h = ht();
        let ip = h.instrument(&w.program);
        let triage = h.static_triage(&ip);
        assert!(
            triage.is_clean(),
            "{}: false positives {:?}",
            bench.name,
            triage.candidates
        );
    }
}

#[test]
fn lint_agreement_holds_across_strategies_and_schemes() {
    // The cross-check is plan-relative: candidates and patches must agree on
    // CCIDs under every strategy/scheme combination, not just the default.
    for strategy in Strategy::ALL {
        for scheme in Scheme::ALL {
            let h = HeapTherapy::new(PipelineConfig {
                strategy,
                scheme,
                ..PipelineConfig::default()
            });
            for app in [
                vulnapps::bc(),
                vulnapps::heartbleed(),
                vulnapps::optipng(),
                vulnapps::multi_context_overflow(),
            ] {
                let report = h.lint(&app);
                assert!(
                    report.static_over_approximates(),
                    "{} {strategy}/{scheme}: {:?}",
                    app.name,
                    report.uncovered
                );
                assert!(report.verdict.is_ok(), "{} {strategy}/{scheme}", app.name);
            }
        }
    }
}

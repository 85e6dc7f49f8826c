//! Patch durability: the paper's code-less patches only work if CCIDs are
//! *stable* — across program restarts, plan rebuilds, and config-file
//! round trips. These tests pin that contract.

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::simprog::spec::{build_spec_workload, spec_bench, spec_suite};
use ht_jsonio::{FromJson, Json, ToJson};

/// Rebuilding the same program and plan from scratch yields identical
/// CCIDs — a patch generated yesterday still matches today's run.
#[test]
fn ccids_survive_program_and_plan_rebuilds() {
    for bench in spec_suite().into_iter().take(4) {
        for scheme in Scheme::ALL {
            for strategy in [Strategy::Tcs, Strategy::Incremental] {
                let w1 = build_spec_workload(bench);
                let w2 = build_spec_workload(bench);
                let p1 = InstrumentationPlan::build(w1.program.graph(), strategy, scheme);
                let p2 = InstrumentationPlan::build(w2.program.graph(), strategy, scheme);
                assert_eq!(p1, p2, "{} {strategy}/{scheme}", bench.name);

                let input = w1.input_for_allocs(100);
                let r1 = heaptherapy_plus::simprog::interp::run_plain(&w1.program, &p1, &input);
                let r2 = heaptherapy_plus::simprog::interp::run_plain(&w2.program, &p2, &input);
                assert_eq!(
                    r1.ccid_freq, r2.ccid_freq,
                    "{} {strategy}/{scheme}: CCIDs drifted across rebuilds",
                    bench.name
                );
            }
        }
    }
}

/// Plans serialize and deserialize without loss (the instrumented binary's
/// encoding is effectively persisted state).
#[test]
fn plans_json_round_trip() {
    let w = build_spec_workload(spec_bench("403.gcc").unwrap());
    for scheme in Scheme::ALL {
        for strategy in Strategy::ALL {
            let plan = InstrumentationPlan::build(w.program.graph(), strategy, scheme);
            let json = plan.to_json().to_compact();
            let back = InstrumentationPlan::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(plan, back, "{strategy}/{scheme}");
        }
    }
}

/// Patches generated under one pipeline instance defend a *fresh* pipeline
/// instance over a *rebuilt* program — the full cross-restart story.
#[test]
fn patches_survive_a_simulated_restart() {
    let cfg = PipelineConfig::default();
    let config_text = {
        let app = ht_vulnapps::heartbleed();
        let ht = HeapTherapy::new(cfg.clone());
        let ip = ht.instrument(&app.program);
        let analysis = ht.analyze_attack(&ip, app.patching_input(), &app.reference);
        ht_patch::to_config_text(&analysis.patches)
    };
    // "Restart": everything rebuilt from scratch, patches come from text.
    let app = ht_vulnapps::heartbleed();
    let ht = HeapTherapy::new(cfg);
    let ip = ht.instrument(&app.program);
    let patches = ht_patch::from_config_text(&config_text).unwrap();
    for input in &app.attack_inputs {
        let run = ht.run(&ip, input, Deploy::Protected(&patches));
        assert!(
            !app.attack_succeeded(&run.report),
            "patch expired on restart"
        );
    }
}

/// JSON round trip for the graph itself (tooling may persist call graphs).
#[test]
fn call_graphs_json_round_trip() {
    let w = build_spec_workload(spec_bench("456.hmmer").unwrap());
    let json = w.program.graph().to_json().to_compact();
    let back =
        heaptherapy_plus::callgraph::CallGraph::from_json(&Json::parse(&json).unwrap()).unwrap();
    assert_eq!(w.program.graph(), &back);
}

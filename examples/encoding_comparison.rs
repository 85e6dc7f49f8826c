//! Targeted calling-context encoding at a glance: the paper's Figure 2
//! example plus a SPEC-scale model, across all four strategies.
//!
//! ```sh
//! cargo run --example encoding_comparison
//! ```

use heaptherapy_plus::callgraph::{dot::to_dot, Strategy};
use heaptherapy_plus::encoding::{collision_report, InstrumentationPlan, Scheme};
use heaptherapy_plus::simprog::interp::run_plain;
use heaptherapy_plus::simprog::spec::{build_spec_workload, spec_bench};

fn main() {
    // --- The paper's Figure 2 example graph -------------------------------
    let g = ht_bench_example();
    println!("Figure 2 example graph, instrumented sites per strategy:");
    let mut sites = Vec::new();
    for strategy in Strategy::ALL {
        let set = strategy.select(&g);
        sites.push(set.len());
        println!(
            "  {:<12} {:>2} / {} call sites",
            strategy.name(),
            set.len(),
            g.edge_count()
        );
    }
    assert_non_increasing("Figure 2", &sites);
    let inc = Strategy::Incremental.select(&g);
    println!("\nGraphviz of the Incremental instrumentation (dashed = pruned):");
    println!("{}", to_dot(&g, Some(&inc)));

    // --- A SPEC-scale model ------------------------------------------------
    let w = build_spec_workload(spec_bench("403.gcc").unwrap());
    let input = w.input_for_allocs(5_000);
    println!(
        "403.gcc model: {} functions, {} call sites",
        w.program.graph().func_count(),
        w.program.graph().edge_count()
    );
    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>11}",
        "strategy", "static sites", "executed ops", "contexts", "collisions"
    );
    let mut rows = Vec::new();
    for strategy in Strategy::ALL {
        for scheme in Scheme::ALL {
            let plan = InstrumentationPlan::build(w.program.graph(), strategy, scheme);
            let ops = run_plain(&w.program, &plan, &input).encoder_ops;
            let rep = collision_report(w.program.graph(), &plan, 32, 4096);
            println!(
                "{:<12} {:>12} {:>14} {:>12} {:>11}  ({})",
                strategy.name(),
                plan.site_count(),
                ops,
                rep.contexts,
                rep.collisions,
                scheme.name()
            );
            rows.push((plan.site_count(), rep.contexts, rep.collisions));
        }
    }
    let sites: Vec<usize> = rows.iter().map(|r| r.0).collect();
    assert_non_increasing("403.gcc", &sites);
    let contexts = rows[0].1;
    assert!(
        rows.iter().all(|r| r.1 == contexts && r.2 == 0),
        "403.gcc: every strategy must tell the same {contexts} contexts apart \
         with no collision: {rows:?}"
    );
    println!("\nOK: fewer instrumented sites, same distinguishing power.");
}

/// Checks that `sites`, in [`Strategy::ALL`] order (FCS, TCS, Slim,
/// Incremental), never grows.
fn assert_non_increasing(graph: &str, sites: &[usize]) {
    assert!(
        sites.windows(2).all(|w| w[0] >= w[1]),
        "{graph}: instrumented sites grow along FCS → TCS → Slim → Incremental: {sites:?}"
    );
}

/// Rebuilds the Fig. 2 example (A→B, A→C, B→F, C→E, C→F, E→T1, F→T1, F→T2,
/// D→H, H→I).
fn ht_bench_example() -> heaptherapy_plus::callgraph::CallGraph {
    use heaptherapy_plus::callgraph::CallGraphBuilder;
    let mut b = CallGraphBuilder::new();
    let a = b.func("A");
    let bb = b.func("B");
    let c = b.func("C");
    let d = b.func("D");
    let e = b.func("E");
    let f = b.func("F");
    let h = b.func("H");
    let i = b.func("I");
    let t1 = b.target("T1");
    let t2 = b.target("T2");
    b.call(a, bb);
    b.call(a, c);
    b.call(bb, f);
    b.call(c, e);
    b.call(c, f);
    b.call(e, t1);
    b.call(f, t1);
    b.call(f, t2);
    b.call(d, h);
    b.call(h, i);
    b.build()
}

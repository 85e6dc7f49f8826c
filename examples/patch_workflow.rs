//! The operations view: patch files on disk, and decoding a patch's CCID
//! back into a human-readable call chain.
//!
//! Uses the precise additive encoding (PCCE-style) so the integer in the
//! configuration file can be decoded into `main → … → malloc` for the
//! incident report.
//!
//! ```sh
//! cargo run --example patch_workflow
//! ```

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::encoding::{decode, Ccid, Scheme};
use heaptherapy_plus::patch::{from_config_text, to_config_text};
use heaptherapy_plus::vulnapps;

fn main() {
    // A decodable encoding: the pipeline's precise additive scheme.
    let ht = HeapTherapy::new(PipelineConfig {
        strategy: Strategy::Slim,
        scheme: Scheme::Additive,
        ..PipelineConfig::default()
    });

    let app = vulnapps::tiff();
    let ip = ht.instrument(&app.program);
    let analysis = ht.analyze_attack(&ip, app.patching_input(), &app.reference);

    // Write the configuration file the way the offline generator would.
    let path = std::env::temp_dir().join("heaptherapy_patches.conf");
    let text = to_config_text(&analysis.patches);
    std::fs::write(&path, &text).expect("write config");
    println!(
        "wrote {} patch(es) to {}",
        analysis.patches.len(),
        path.display()
    );
    print!("{text}");

    // ... later, at service startup, the online defense loads it back.
    let loaded = from_config_text(&std::fs::read_to_string(&path).expect("read config"))
        .expect("parse config");
    assert_eq!(loaded, analysis.patches);

    // Decode each patch's CCID into the full calling context.
    let graph = app.program.graph();
    for p in &loaded {
        let target = graph
            .func_by_name(p.alloc_fn.name())
            .expect("allocation API in graph");
        let path = decode(graph, &ip.plan, Ccid(p.ccid), target)
            .expect("additive CCIDs decode on acyclic graphs");
        let chain: Vec<&str> = std::iter::once("main")
            .chain(
                path.iter()
                    .map(|&e| graph.func(graph.edge(e).callee).name.as_str()),
            )
            .collect();
        println!("{p}  ⇒  {}", chain.join(" → "));
    }

    // The deployed patches still defeat the attack.
    let protected = ht.run(&ip, app.patching_input(), Deploy::Protected(&loaded));
    assert!(!app.attack_succeeded(&protected.report));
    println!("\nOK: config file round-trips and the decoded context names the culprit.");
}

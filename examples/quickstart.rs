//! Quickstart: patch a heap overflow end-to-end in a dozen lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use heaptherapy_plus::core::{HeapTherapy, PipelineConfig};
use heaptherapy_plus::vulnapps;

fn main() {
    // A modeled vulnerable program (BugBench's bc-1.06 heap overflow) with
    // one attack input in hand — the paper's starting point.
    let app = vulnapps::bc();

    // The whole pipeline: instrument, replay the attack offline, generate
    // {FUN, CCID, T} patches, deploy them code-lessly, verify online.
    let ht = HeapTherapy::new(PipelineConfig::default());
    let cycle = ht.full_cycle(&app, 1).expect("pipeline runs");

    println!(
        "application           : {} ({})",
        cycle.app, cycle.reference
    );
    println!(
        "attack works unpatched: {}",
        cycle.undefended_attack_succeeded
    );
    println!("diagnosed as          : {}", cycle.detected);
    println!("patches generated     : {}", cycle.patches.len());
    println!("--- patch configuration file ---");
    print!("{}", cycle.config_text);
    println!("---------------------------------");
    println!("all attacks blocked   : {}", cycle.all_attacks_blocked);
    println!("benign runs unharmed  : {}", cycle.benign_ok);

    assert!(cycle.all_attacks_blocked && cycle.benign_ok);
    println!("\nOK: the overflow is defused without touching the program.");
}

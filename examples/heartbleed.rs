//! Heartbleed, step by step: the paper's flagship case study.
//!
//! A single attack replay diagnoses *two* vulnerabilities (uninitialized
//! read + overread), and the deployed patch leaves nothing but zeros to
//! steal.
//!
//! ```sh
//! cargo run --example heartbleed
//! ```

use heaptherapy_plus::core::{Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::vulnapps::{self, SECRET_BYTE};

fn count_secret(leak: &[u8]) -> usize {
    leak.iter().filter(|&&b| b == SECRET_BYTE).count()
}

fn main() {
    let app = vulnapps::heartbleed();
    let ht = HeapTherapy::new(PipelineConfig::default());
    let ip = ht.instrument(&app.program);
    let attack = app.patching_input(); // claimed heartbeat length: 64 KB

    // 1. Undefended: the malicious heartbeat bleeds the previous TLS
    //    session's key material out of the heap.
    let native = ht.run(&ip, attack, Deploy::Native).report;
    println!(
        "[undefended] response bytes: {}, secret bytes leaked: {}",
        native.leaked.len(),
        count_secret(&native.leaked)
    );
    assert!(count_secret(&native.leaked) > 30_000);

    // 2. Offline analysis: one replay under shadow memory.
    let analysis = ht.analyze_attack(&ip, attack, "CVE-2014-0160");
    println!("\n[offline] analyzer warnings:");
    for w in &analysis.warnings {
        println!("  - {w}");
    }
    println!("[offline] generated patches:");
    for p in &analysis.patches {
        println!("  - {p}");
    }

    // 3. Online: patches deployed through the configuration file. The same
    //    attack now gets zeros and a guard-page stop instead of secrets.
    let protected = ht.run(&ip, attack, Deploy::Protected(&analysis.patches));
    println!("\n[patched] outcome: {:?}", protected.report.outcome);
    println!(
        "[patched] response bytes: {}, secret bytes leaked: {}",
        protected.report.leaked.len(),
        count_secret(&protected.report.leaked)
    );
    println!(
        "[patched] zero-filled bytes: {}, guard pages: {}",
        protected.stats.zero_fill_bytes, protected.stats.guard_pages
    );
    assert_eq!(count_secret(&protected.report.leaked), 0);

    // 4. Regular heartbeats still work.
    let benign = ht.run(
        &ip,
        &app.benign_inputs[0],
        Deploy::Protected(&analysis.patches),
    );
    println!(
        "\n[benign] outcome: {:?}, response bytes: {}",
        benign.report.outcome,
        benign.report.leaked.len()
    );
    assert!(benign.report.outcome.is_completed());

    println!("\nOK: no data leaked except zeros — the paper's verdict, reproduced.");
}

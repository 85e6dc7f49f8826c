//! Integration test reproducing Table II end-to-end across crates:
//! vulnapps → simprog → encoding → shadow → patch → defense.
//!
//! For every program in the suite (7 CVE models + 23 SAMATE cases) the
//! claims of the paper must hold: the attack works undefended, the offline
//! analyzer diagnoses the right class from ONE attack input, the patch file
//! deploys code-lessly, fresh attack instances are defeated, and benign
//! traffic is unharmed.

use heaptherapy_plus::core::{Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::patch::VulnFlags;
use heaptherapy_plus::vulnapps;

#[test]
fn table2_full_suite() {
    let ht = HeapTherapy::new(PipelineConfig::default());
    let suite = vulnapps::table2_suite();
    assert_eq!(suite.len(), 30);
    let mut failures = Vec::new();
    for app in &suite {
        let r = match ht.full_cycle(app) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{}: pipeline error {e}", app.name));
                continue;
            }
        };
        if !r.undefended_attack_succeeded {
            failures.push(format!("{}: attack inert undefended", r.app));
        }
        if !r.detection_correct() {
            failures.push(format!(
                "{}: expected {} got {}",
                r.app, r.expected, r.detected
            ));
        }
        if !r.all_attacks_blocked {
            failures.push(format!("{}: an attack got through", r.app));
        }
        if !r.benign_ok {
            failures.push(format!("{}: benign behaviour broken", r.app));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn heartbleed_diagnoses_both_vulnerabilities_from_one_replay() {
    let ht = HeapTherapy::new(PipelineConfig::default());
    let r = ht.full_cycle(&vulnapps::heartbleed()).unwrap();
    assert!(r.detected.contains(VulnFlags::UNINIT_READ));
    assert!(r.detected.contains(VulnFlags::OVERFLOW));
    assert_eq!(r.patches_generated, 1, "one buffer, one patch, two bits");
}

#[test]
fn patches_do_not_cross_contaminate_applications() {
    // Patches generated for one app are keyed by CCIDs of *its* program;
    // deploying them on another program must be a no-op (all misses).
    let ht = HeapTherapy::new(PipelineConfig::default());
    let bc = vulnapps::bc();
    let ming = vulnapps::libming();
    let ip_bc = ht.instrument(&bc.program);
    let ip_ming = ht.instrument(&ming.program);
    let bc_patches = ht.analyze_attack(&ip_bc, bc.patching_input(), "bc").patches;
    // libming's attack still succeeds under bc's patches (different keys —
    // bc patches malloc, libming's culprit is calloc).
    let run = ht.run(
        &ip_ming,
        ming.patching_input(),
        Deploy::Protected(&bc_patches),
    );
    assert!(
        ming.attack_succeeded(&run.report),
        "foreign patches must not accidentally defend"
    );
}

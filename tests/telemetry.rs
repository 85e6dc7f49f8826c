//! Cross-crate telemetry properties, exercised through the facade:
//!
//! * **Parity** — arming telemetry never changes what the pipeline computes.
//!   For any Table II app under any strategy/scheme, a telemetry-on
//!   `full_cycle` produces the identical `CycleReport` to a telemetry-off
//!   run (same patches, same config text, same verdicts).
//! * **Once-only** — an armed `full_cycle` is deterministic and files
//!   exactly one report per distinct `(FUN, CCID, T)` across repeated runs.
//! * **Overflow exactness** — a saturated event ring never miscounts:
//!   delivered + dropped equals the number of pushes, and the drained
//!   prefix is the sequence-ordered head of the stream.

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{HeapTherapy, PipelineConfig};
use heaptherapy_plus::encoding::Scheme;
use heaptherapy_plus::patch::AllocFn;
use heaptherapy_plus::telemetry::{Event, EventKind, EventRing, RING_CAPACITY};
use heaptherapy_plus::vulnapps;
use proptest::prelude::*;

fn pipeline(strategy: Strategy, scheme: Scheme, telemetry: bool) -> HeapTherapy {
    HeapTherapy::new(PipelineConfig {
        strategy,
        scheme,
        telemetry,
        ..PipelineConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Telemetry is an observer: for a random app / strategy / scheme the
    /// armed and unarmed pipelines agree on every output field.
    #[test]
    fn armed_pipeline_matches_unarmed_pipeline(
        app_idx in 0usize..30,
        strat_idx in 0usize..4,
        precise in any::<bool>(),
    ) {
        let suite = vulnapps::table2_suite();
        let app = &suite[app_idx % suite.len()];
        let strategy = [
            Strategy::Fcs,
            Strategy::Tcs,
            Strategy::Slim,
            Strategy::Incremental,
        ][strat_idx];
        let scheme = if precise { Scheme::Additive } else { Scheme::Pcc };

        let plain = pipeline(strategy, scheme, false)
            .full_cycle(app, 1)
            .expect("unarmed cycle runs");
        let armed = pipeline(strategy, scheme, true)
            .full_cycle(app, 1)
            .expect("armed cycle runs");

        prop_assert_eq!(&plain.detected, &armed.detected);
        prop_assert_eq!(&plain.patches, &armed.patches);
        prop_assert_eq!(&plain.config_text, &armed.config_text);
        prop_assert_eq!(
            plain.undefended_attack_succeeded,
            armed.undefended_attack_succeeded
        );
        prop_assert_eq!(plain.all_attacks_blocked, armed.all_attacks_blocked);
        prop_assert_eq!(plain.benign_ok, armed.benign_ok);
    }
}

/// Two armed cycles of the same app agree report-for-report, and each
/// files one report per distinct `(FUN, CCID, T)`.
#[test]
fn armed_cycle_is_deterministic_and_once_only() {
    let ht = pipeline(Strategy::Incremental, Scheme::Additive, true);
    for app in [vulnapps::bc(), vulnapps::heartbleed(), vulnapps::optipng()] {
        let a = ht.full_cycle(&app, 1).expect("telemetry cycle runs");
        let b = ht.full_cycle(&app, 1).expect("telemetry cycle runs");
        let key = |t: &heaptherapy_plus::core::CycleReport| -> Vec<_> {
            t.reports
                .iter()
                .map(|r| (r.fun, r.ccid, r.vuln, r.call_chain.clone()))
                .collect()
        };
        let (ka, kb) = (key(&a), key(&b));
        assert!(!ka.is_empty(), "{}: no reports", app.name);
        assert_eq!(ka, kb, "{}: runs disagree", app.name);
        let mut uniq = ka.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ka.len(), "{}: duplicate report key", app.name);
    }
}

/// Pushing far past capacity loses only the overflow, exactly counted, and
/// what survives is the in-order head of the stream.
#[test]
fn event_ring_overflow_is_exactly_counted() {
    let ring = Box::new(EventRing::new());
    let total = 3 * RING_CAPACITY as u64;
    for i in 0..total {
        ring.push(Event::unattributed(
            EventKind::GuardTrip,
            AllocFn::Malloc,
            i,
        ));
    }
    let drained = ring.drain_vec();
    assert_eq!(drained.len(), RING_CAPACITY);
    assert_eq!(ring.delivered(), RING_CAPACITY as u64);
    assert_eq!(ring.dropped(), total - RING_CAPACITY as u64);
    // The retained prefix is the head of the stream, in push order.
    for (i, e) in drained.iter().enumerate() {
        assert_eq!(e.size, i as u64);
    }
    // The drained ring accepts new events again, still exactly counted.
    ring.push(Event::unattributed(
        EventKind::GuardTrip,
        AllocFn::Malloc,
        total,
    ));
    assert_eq!(ring.drain_vec().len(), 1);
    assert_eq!(ring.delivered(), RING_CAPACITY as u64 + 1);
}

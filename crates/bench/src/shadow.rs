//! Offline-replay throughput of the shadow-memory analyzer kernels.
//!
//! Not a paper artifact — the paper reports the offline phase only as
//! "heavyweight but off the critical path" — but replay throughput bounds
//! how fast attack inputs can be triaged and patches regenerated, so it is
//! the offline analogue of the Fig. 8 online overhead measurement.
//!
//! Two measurements, both against the Table II corpus (every attack *and*
//! benign input of all 30 vulnerable-program models, replayed through the
//! full offline pipeline):
//!
//! * **corpus replay** — shadow events/sec (allocations + frees + bytes
//!   written + bytes read) with the word-level kernels
//!   ([`KernelMode::Word`]) vs. the byte-at-a-time reference kernels
//!   (`--reference-kernels`, [`KernelMode::Reference`]). Both modes produce
//!   byte-identical warnings and patches — only the clock differs.
//! * **per-kernel microbenches** — ns/op of the individual `ShadowBits` /
//!   `HeapMap` operations the replay is built from, word vs. reference.

use crate::Spread;
use heaptherapy_core::{HeapTherapy, PipelineConfig};
use ht_jsonio::Json;
use ht_memsim::PAGE_SIZE;
use ht_shadow::{HeapMap, KernelMode, ShadowBits, ShadowConfig};

/// Size of the range the per-kernel microbenches operate on (16 pages).
pub const KERNEL_SPAN: u64 = 16 * PAGE_SIZE;

/// One replay pass over the whole Table II corpus in one kernel mode.
/// Returns `(shadow_events, warning_count)` — the event count is the
/// throughput denominator, the warning count a cheap cross-mode fingerprint.
pub fn replay_corpus(reference_kernels: bool) -> (u64, u64) {
    let ht = HeapTherapy::new(PipelineConfig {
        shadow: ShadowConfig {
            reference_kernels,
            ..ShadowConfig::default()
        },
        ..PipelineConfig::default()
    });
    let mut events = 0u64;
    let mut warnings = 0u64;
    for app in ht_vulnapps::table2_suite() {
        let ip = ht.instrument(&app.program);
        for input in app.attack_inputs.iter().chain(app.benign_inputs.iter()) {
            let analysis = ht.analyze_attack(&ip, input, &app.name);
            let r = &analysis.run;
            events += r.allocs.total() + r.frees + r.bytes_written + r.bytes_read;
            warnings += analysis.warnings.len() as u64;
        }
    }
    (events, warnings)
}

/// Corpus-replay throughput of one kernel mode.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySeries {
    /// Shadow events per corpus pass.
    pub events: u64,
    /// Wall seconds per corpus pass over the samples.
    pub secs: Spread,
}

impl ReplaySeries {
    /// Events per second: the median sample's, and the range from the
    /// slowest to the fastest sample (0 where a sample took no time).
    pub fn events_per_sec(&self) -> Spread {
        let rate = |secs: f64| {
            if secs <= 0.0 {
                0.0
            } else {
                self.events as f64 / secs
            }
        };
        Spread {
            median: rate(self.secs.median),
            min: rate(self.secs.max),
            max: rate(self.secs.min),
        }
    }
}

/// One per-kernel microbench row: ns/op over the samples, word vs.
/// reference.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel under test.
    pub name: &'static str,
    /// Reference (byte-at-a-time) ns per operation.
    pub reference_ns: Spread,
    /// Word-kernel ns per operation.
    pub word_ns: Spread,
}

impl KernelRow {
    /// Median reference time over median word time.
    pub fn speedup(&self) -> f64 {
        if self.word_ns.median <= 0.0 {
            return 0.0;
        }
        self.reference_ns.median / self.word_ns.median
    }
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct ShadowBenchReport {
    /// Word-kernel corpus replay.
    pub word: ReplaySeries,
    /// Reference-kernel corpus replay.
    pub reference: ReplaySeries,
    /// Per-kernel microbench rows.
    pub kernels: Vec<KernelRow>,
}

impl ShadowBenchReport {
    /// Corpus-replay event-throughput speedup of word over reference
    /// kernels (the ≥ 5× acceptance number).
    pub fn replay_speedup(&self) -> f64 {
        if self.word.secs.median <= 0.0 {
            return 0.0;
        }
        self.reference.secs.median / self.word.secs.median
    }
}

/// Mode under measurement → a fresh [`ShadowBits`].
fn bits(mode: KernelMode) -> ShadowBits {
    ShadowBits::with_mode(mode)
}

/// A [`ShadowBits`] with [`KERNEL_SPAN`] bytes accessible+valid except the
/// very last byte (so scans traverse the whole span and *find* something).
fn scan_target(mode: KernelMode) -> ShadowBits {
    let mut s = bits(mode);
    s.set_accessible(0, KERNEL_SPAN, true);
    s.set_valid(0, KERNEL_SPAN, true);
    s.set_accessible(KERNEL_SPAN - 1, 1, false);
    s.set_vmask(KERNEL_SPAN - 1, 0x7F);
    s
}

/// Measures `op` in ns/op, `samples` times over `iters` iterations each.
fn ns_per_op<F: FnMut()>(samples: usize, iters: u64, mut op: F) -> Spread {
    crate::time_spread(samples, || {
        for _ in 0..iters {
            op();
        }
    })
    .scale(1e9 / iters as f64)
}

/// Runs every per-kernel microbench in one mode; row order is fixed.
fn kernel_ns(mode: KernelMode, samples: usize) -> Vec<(&'static str, Spread)> {
    let mut out = Vec::new();

    // Range set: mark a 16-page span valid, then invalid again.
    let mut s = bits(mode);
    s.set_accessible(0, KERNEL_SPAN, true);
    out.push((
        "set_valid_range",
        ns_per_op(samples, 8, || {
            s.set_valid(0, KERNEL_SPAN, true);
            s.set_valid(0, KERNEL_SPAN, false);
        }),
    ));

    // Range set on the A-plane (allocate/quarantine traffic).
    let mut s = bits(mode);
    out.push((
        "set_accessible_range",
        ns_per_op(samples, 8, || {
            s.set_accessible(0, KERNEL_SPAN, true);
            s.set_accessible(0, KERNEL_SPAN, false);
        }),
    ));

    // Scans over an almost-uniform span (the hot check paths).
    let s = scan_target(mode);
    out.push((
        "first_invalid_scan",
        ns_per_op(samples, 8, || {
            assert_eq!(s.first_invalid(0, KERNEL_SPAN), Some(KERNEL_SPAN - 1));
        }),
    ));
    out.push((
        "first_inaccessible_scan",
        ns_per_op(samples, 8, || {
            assert_eq!(s.first_inaccessible(0, KERNEL_SPAN), Some(KERNEL_SPAN - 1));
        }),
    ));

    // Realloc carry-over: cross-page, non-overlapping copy of half the span.
    let mut s = scan_target(mode);
    out.push((
        "copy_valid",
        ns_per_op(samples, 8, || {
            s.copy_valid(17, KERNEL_SPAN / 2 + 17, KERNEL_SPAN / 2 - 64);
        }),
    ));

    // Point queries streaming through one page (the last-page cache).
    let s = scan_target(mode);
    out.push((
        "vmask_stream",
        ns_per_op(samples, 4, || {
            let mut acc = 0u64;
            for a in 0..PAGE_SIZE {
                acc += s.vmask(a) as u64;
            }
            assert!(acc > 0);
        }),
    ));

    // HeapMap same-buffer lookup streaks (the one-entry interval cache).
    let mut m = HeapMap::with_cache(mode == KernelMode::Word);
    for i in 0..64u64 {
        m.insert(
            0x10000 + i * 0x1000,
            256,
            0x10000 + i * 0x1000 - 16,
            ht_patch::AllocFn::Malloc,
            ht_encoding::Ccid(i),
        );
    }
    out.push((
        "heap_lookup_streak",
        ns_per_op(samples, 4, || {
            let mut hits = 0u64;
            for a in 0x18000u64..0x18000 + 256 {
                hits += u64::from(m.lookup(a).is_some());
            }
            assert_eq!(hits, 256);
        }),
    ));

    out
}

/// Runs the whole benchmark: `samples` median samples per measurement,
/// `repeat` corpus passes inside each timed replay sample.
pub fn run(samples: usize, repeat: usize) -> ShadowBenchReport {
    let samples = samples.max(1);
    let repeat = repeat.max(1);

    // The two modes must agree on everything observable before their clocks
    // are worth comparing.
    let (events, warn_word) = replay_corpus(false);
    let (events_ref, warn_ref) = replay_corpus(true);
    assert_eq!(events, events_ref, "modes disagree on replayed events");
    assert_eq!(warn_word, warn_ref, "modes disagree on warnings");

    let word_secs = crate::time_spread(samples, || {
        for _ in 0..repeat {
            replay_corpus(false);
        }
    })
    .scale(1.0 / repeat as f64);
    let reference_secs = crate::time_spread(samples, || {
        for _ in 0..repeat {
            replay_corpus(true);
        }
    })
    .scale(1.0 / repeat as f64);

    let word_rows = kernel_ns(KernelMode::Word, samples);
    let ref_rows = kernel_ns(KernelMode::Reference, samples);
    let kernels = word_rows
        .into_iter()
        .zip(ref_rows)
        .map(|((name, word_ns), (rname, reference_ns))| {
            debug_assert_eq!(name, rname);
            KernelRow {
                name,
                reference_ns,
                word_ns,
            }
        })
        .collect();

    ShadowBenchReport {
        word: ReplaySeries {
            events,
            secs: word_secs,
        },
        reference: ReplaySeries {
            events,
            secs: reference_secs,
        },
        kernels,
    }
}

/// The committed-baseline JSON shape (`BENCH_shadow.json`): each measured
/// value is the median of the samples, with `_min` / `_max` its range. The
/// wire format is integer-only, so ratios (of medians) are stored ×100.
pub fn to_json(r: &ShadowBenchReport, samples: usize, repeat: usize) -> Json {
    let mut fields = vec![
        ("samples".into(), Json::U64(samples as u64)),
        ("repeat".into(), Json::U64(repeat as u64)),
        ("corpus_events".into(), Json::U64(r.word.events)),
    ];
    fields.extend(r.word.events_per_sec().json_fields("word_events_per_sec"));
    fields.extend(
        r.reference
            .events_per_sec()
            .json_fields("reference_events_per_sec"),
    );
    fields.push((
        "replay_speedup_x100".into(),
        Json::U64((r.replay_speedup() * 100.0) as u64),
    ));
    let kernel = |k: &KernelRow| {
        let mut f = vec![("name".to_string(), Json::Str(k.name.into()))];
        f.extend(k.reference_ns.json_fields("reference_ns"));
        f.extend(k.word_ns.json_fields("word_ns"));
        f.push((
            "speedup_x100".into(),
            Json::U64((k.speedup() * 100.0) as u64),
        ));
        Json::Obj(f)
    };
    fields.push((
        "kernels".into(),
        Json::Arr(r.kernels.iter().map(kernel).collect()),
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_replay_modes_agree_and_produce_events() {
        let (events, warnings) = replay_corpus(false);
        assert!(events > 10_000, "corpus is non-trivial: {events}");
        assert!(warnings > 0, "the attack inputs trip warnings");
        assert_eq!((events, warnings), replay_corpus(true), "mode parity");
    }

    #[test]
    fn kernel_rows_cover_both_modes_in_order() {
        let w = kernel_ns(KernelMode::Word, 1);
        let r = kernel_ns(KernelMode::Reference, 1);
        assert_eq!(w.len(), r.len());
        for ((wn, wns), (rn, rns)) in w.iter().zip(&r) {
            assert_eq!(wn, rn);
            assert!(wns.min > 0.0 && rns.min > 0.0, "{wn}: {wns:?} / {rns:?}");
            assert!(
                wns.min <= wns.median && wns.median <= wns.max,
                "{wn}: {wns:?}"
            );
        }
    }

    #[test]
    fn json_round_trips() {
        let report = ShadowBenchReport {
            word: ReplaySeries {
                events: 1000,
                secs: Spread::of(vec![0.010, 0.008, 0.020]),
            },
            reference: ReplaySeries {
                events: 1000,
                secs: Spread::of(vec![0.100]),
            },
            kernels: vec![KernelRow {
                name: "set_valid_range",
                reference_ns: Spread::of(vec![950.5]),
                word_ns: Spread::of(vec![10.2, 9.0, 12.0]),
            }],
        };
        assert!((report.replay_speedup() - 10.0).abs() < 1e-9);
        let j = to_json(&report, 3, 1);
        let parsed = Json::parse(&j.to_pretty()).expect("self-emitted JSON parses");
        assert_eq!(parsed, j);
        let text = j.to_pretty();
        for (key, v) in [
            ("word_events_per_sec", 100_000),
            ("word_events_per_sec_min", 50_000),
            ("word_events_per_sec_max", 125_000),
            ("word_ns_min", 9),
            ("word_ns_max", 12),
        ] {
            assert!(text.contains(&format!("\"{key}\": {v}")), "{key}: {text}");
        }
    }
}

//! Cross-crate integration: properties that only emerge when the whole
//! stack is wired together.

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::core::{Deploy, HeapTherapy, PipelineConfig};
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig};
use heaptherapy_plus::encoding::{decode, Ccid, Scheme};
use heaptherapy_plus::memsim::BumpAllocator;
use heaptherapy_plus::patch::{from_config_json, to_config_json, PatchTable};
use heaptherapy_plus::simprog::Interpreter;
use heaptherapy_plus::vulnapps;

/// The paper's "no dependency on specific allocators": run a protected
/// vulnapp over a *bump* allocator instead of the free-list one; the
/// overflow defense must still hold.
#[test]
fn defense_is_allocator_agnostic_end_to_end() {
    let app = vulnapps::bc();
    let ht = HeapTherapy::new(PipelineConfig::default());
    let ip = ht.instrument(&app.program);
    let patches = ht.analyze_attack(&ip, app.patching_input(), "bc").patches;
    let cfg = DefenseConfig::with_table(PatchTable::from_patches(patches));
    let backend = DefendedBackend::with_allocator(BumpAllocator::new(), cfg);
    let report = Interpreter::new(&app.program, &ip.plan, backend).run(app.patching_input());
    assert!(
        !app.attack_succeeded(&report),
        "guard page works over a completely different inner allocator"
    );
}

/// Patch CCIDs survive a JSON round trip and still decode to the culprit
/// calling context under the positional scheme.
#[test]
fn json_config_round_trip_and_decode() {
    let app = vulnapps::ghostxps();
    let ht = HeapTherapy::new(PipelineConfig {
        strategy: Strategy::Tcs,
        scheme: Scheme::Positional,
        ..PipelineConfig::default()
    });
    let ip = ht.instrument(&app.program);
    let patches = ht
        .analyze_attack(&ip, app.patching_input(), &app.reference)
        .patches;
    let loaded = from_config_json(&to_config_json(&patches)).unwrap();
    assert_eq!(loaded, patches);
    let graph = app.program.graph();
    for p in &loaded {
        let target = graph.func_by_name(p.alloc_fn.name()).unwrap();
        let path = decode(graph, &ip.plan, Ccid(p.ccid), target).expect("decodes");
        // The decoded chain must end at the allocation API.
        let last = *path.last().unwrap();
        assert_eq!(graph.edge(last).callee, target);
        // And pass through the vulnerable function of the model.
        let names: Vec<&str> = path
            .iter()
            .map(|&e| graph.func(graph.edge(e).callee).name.as_str())
            .collect();
        assert!(
            names.contains(&"xps_parse_color"),
            "decoded chain {names:?} names the culprit"
        );
    }
}

/// A PCC hash collision must never break correctness: force one by patching
/// a synthetic CCID equal to a benign context's encoding — the benign
/// context merely gets over-protected, and the program still works.
#[test]
fn ccid_collision_only_overprotects() {
    let app = vulnapps::bc();
    let ht = HeapTherapy::new(PipelineConfig::default());
    let ip = ht.instrument(&app.program);
    // Profile the benign run and patch EVERY observed context as overflow —
    // the worst possible "collision storm".
    let profile = ht.run(&ip, &app.benign_inputs[0], Deploy::Native).report;
    let patches: Vec<_> = profile
        .ccid_freq
        .keys()
        .map(|&(fun, ccid)| {
            heaptherapy_plus::patch::Patch::new(
                fun,
                ccid,
                heaptherapy_plus::patch::VulnFlags::OVERFLOW,
            )
        })
        .collect();
    let run = ht.run(&ip, &app.benign_inputs[0], Deploy::Protected(&patches));
    assert!(
        run.report.outcome.is_completed(),
        "over-protection never changes program logic: {:?}",
        run.report.outcome
    );
    assert!(run.stats.guard_pages > 0, "defenses actually applied");
}

/// Every strategy/scheme combination protects every CVE model.
#[test]
fn strategy_scheme_matrix_on_cve_models() {
    for strategy in Strategy::ALL {
        for scheme in Scheme::ALL {
            let ht = HeapTherapy::new(PipelineConfig {
                strategy,
                scheme,
                ..PipelineConfig::default()
            });
            for app in [vulnapps::optipng(), vulnapps::libming()] {
                let r = ht.full_cycle(&app).unwrap();
                assert!(
                    r.all_attacks_blocked && r.benign_ok,
                    "{}/{}/{}",
                    strategy,
                    scheme,
                    app.name
                );
            }
        }
    }
}

/// Virtual dispatch (DeltaPath's case): the *dynamic* callee determines the
/// allocation context, so a patch generated for the vulnerable
/// implementation does not tax its sibling implementations.
#[test]
fn virtual_dispatch_contexts_are_patched_individually() {
    use heaptherapy_plus::patch::AllocFn;
    use heaptherapy_plus::simprog::{Expr, ProgramBuilder, Sink};

    // An image loader with two codec implementations behind one virtual
    // call; only the PNG codec has the overflow.
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let png = pb.func("png_codec::decode");
    let jpg = pb.func("jpg_codec::decode");
    let buf = pb.slot();
    let victim = pb.slot();
    pb.define(png, |b| {
        b.alloc(buf, AllocFn::Malloc, 64u64);
        b.alloc(victim, AllocFn::Malloc, 64u64);
        b.write(victim, 0u64, 8u64, 0x11);
        b.write(buf, 0u64, Expr::Input(1), 0x41); // attacker-length copy
        b.read(victim, 0u64, 8u64, Sink::Leak);
        b.free(victim);
        b.free(buf);
    });
    pb.define(jpg, |b| {
        b.alloc(buf, AllocFn::Malloc, 64u64);
        b.write(buf, 0u64, 64u64, 0x22); // correct codec
        b.free(buf);
    });
    pb.define(main, |b| b.call_virtual(&[png, jpg], Expr::Input(0)));
    let prog = pb.build();

    let ht = HeapTherapy::new(PipelineConfig::default());
    let ip = ht.instrument(&prog);

    // Attack through the PNG path; the patch keys on the PNG-side context.
    let attack = vec![0u64, 160];
    let analysis = ht.analyze_attack(&ip, &attack, "png-overflow");
    assert!(!analysis.patches.is_empty());
    assert!(
        analysis
            .patches
            .iter()
            .all(|p| p.alloc_fn == AllocFn::Malloc),
        "{:?}",
        analysis.patches
    );

    // Attack defeated through the virtual call...
    let run = ht.run(&ip, &attack, Deploy::Protected(&analysis.patches));
    assert!(!run.report.leaked.windows(8).any(|w| w == [0x41; 8]));
    // ...and the JPG path runs completely untaxed (no table hits).
    let jpg_run = ht.run(&ip, &[1, 64], Deploy::Protected(&analysis.patches));
    assert!(jpg_run.report.outcome.is_completed());
    assert_eq!(
        jpg_run.stats.table_hits, 0,
        "sibling implementation pays nothing"
    );
}

/// §IX: a tiny quarantine quota weakens the UAF deferral window — with a
/// quota of zero the defense degrades to prompt reuse and the attack
/// succeeds again. (This documents WHY the quota matters.)
#[test]
fn zero_quarantine_quota_disables_uaf_defense() {
    let app = vulnapps::optipng();
    let ht_weak = HeapTherapy::new(PipelineConfig {
        defense_quota: 0,
        ..PipelineConfig::default()
    });
    let ip = ht_weak.instrument(&app.program);
    let patches = ht_weak
        .analyze_attack(&ip, app.patching_input(), "x")
        .patches;
    let run = ht_weak.run(&ip, app.patching_input(), Deploy::Protected(&patches));
    assert!(
        app.attack_succeeded(&run.report),
        "zero quota ⇒ immediate eviction ⇒ reuse ⇒ hijack"
    );
    // Sanity: the default quota blocks it.
    let ht_strong = HeapTherapy::new(PipelineConfig::default());
    let run = ht_strong.run(&ip, app.patching_input(), Deploy::Protected(&patches));
    assert!(!app.attack_succeeded(&run.report));
}

//! Differential property testing: the defenses must be *behaviour
//! preserving* for correct programs.
//!
//! For randomly generated programs whose heap usage is entirely legal
//! (in-bounds accesses, reads only of written bytes, no dangling use), every
//! execution mode must observe identical program-visible behaviour:
//!
//! * plain (undefended),
//! * interposition only,
//! * full defense with an empty patch table,
//! * full defense with **every** allocation context patched `OF|UAF|UR`
//!   (the worst-case collision storm — maximum over-protection),
//! * the offline shadow analyzer (which additionally must report nothing).
//!
//! This is the paper's correctness core: "any of our enhancements do not
//! change the program logic".

use heaptherapy_plus::callgraph::Strategy as SiteStrategy;
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig};
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::patch::{AllocFn, Patch, PatchTable, VulnFlags};
use heaptherapy_plus::shadow::ShadowBackend;
use heaptherapy_plus::simprog::{
    Expr, HeapBackend, Interpreter, Program, ProgramBuilder, Sink, SlotId,
};
use proptest::prelude::*;

/// One generated heap operation. Slot bookkeeping in the generator
/// guarantees legality (see `materialize`).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate `size` via the API selected by `api % 4` into slot
    /// `slot % SLOTS`.
    Alloc { slot: u8, api: u8, size: u16 },
    /// Free the slot (skipped if empty).
    Free { slot: u8 },
    /// Grow/shrink the slot to `size` (skipped if empty).
    Realloc { slot: u8, size: u16 },
    /// Write `frac`/255 of the buffer with `byte`.
    Write { slot: u8, frac: u8, byte: u8 },
    /// Read within the written prefix, to sink `sink % 5`.
    Read { slot: u8, frac: u8, sink: u8 },
    /// memcpy from one live slot's written prefix into another live slot.
    Copy { src: u8, dst: u8, frac: u8 },
}

const SLOTS: usize = 6;

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (any::<u8>(), any::<u8>(), 1u16..2000).prop_map(|(slot, api, size)| Op::Alloc {
            slot,
            api,
            size
        }),
        any::<u8>().prop_map(|slot| Op::Free { slot }),
        (any::<u8>(), 1u16..2000).prop_map(|(slot, size)| Op::Realloc { slot, size }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(slot, frac, byte)| Op::Write {
            slot,
            frac,
            byte
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(slot, frac, sink)| Op::Read {
            slot,
            frac,
            sink
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(src, dst, frac)| Op::Copy {
            src,
            dst,
            frac
        }),
    ];
    proptest::collection::vec(op, 1..60)
}

/// Turns the op list into a legal modeled program. Ops are grouped into
/// helper functions so allocations happen under several distinct calling
/// contexts.
fn materialize(ops: &[Op]) -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let slots: Vec<SlotId> = pb.slots(SLOTS as u32);

    // Generator-side model: size and written prefix per slot (None = empty).
    let mut state: [Option<(u64, u64)>; SLOTS] = [None; SLOTS];
    let mut funcs = Vec::new();
    let mut current: Vec<(usize, Op)> = Vec::new();
    let mut chunks: Vec<Vec<(usize, Op)>> = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        current.push((i, op));
        if current.len() == 4 {
            chunks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }

    for (ci, chunk) in chunks.iter().enumerate() {
        let f = pb.func(format!("gen_chunk_{ci}"));
        funcs.push(f);
        pb.define(f, |b| {
            for &(_, op) in chunk {
                match op {
                    Op::Alloc { slot, api, size } => {
                        let s = slots[slot as usize % SLOTS];
                        let idx = slot as usize % SLOTS;
                        // Never clobber a live buffer and never leave a
                        // dangling handle: free + null first if occupied,
                        // so a subsequent realloc is realloc(NULL).
                        if state[idx].is_some() {
                            b.free(s);
                            b.clear(s);
                        }
                        let size = size as u64;
                        match api % 4 {
                            0 => b.alloc(s, AllocFn::Malloc, size),
                            1 => {
                                b.alloc(s, AllocFn::Calloc, size);
                            }
                            2 => b.memalign(s, 1u64 << (api % 7 + 4), size),
                            _ => b.realloc(s, size), // realloc(NULL) = malloc
                        }
                        // Calloc counts as fully written (zeroed).
                        let written = if api % 4 == 1 { size } else { 0 };
                        state[idx] = Some((size, written));
                    }
                    Op::Free { slot } => {
                        let idx = slot as usize % SLOTS;
                        if state[idx].is_some() {
                            b.free(slots[idx]);
                            b.clear(slots[idx]);
                            state[idx] = None;
                        }
                    }
                    Op::Realloc { slot, size } => {
                        let idx = slot as usize % SLOTS;
                        if let Some((_, written)) = state[idx] {
                            let size = size as u64;
                            b.realloc(slots[idx], size);
                            state[idx] = Some((size, written.min(size)));
                        }
                    }
                    Op::Write { slot, frac, byte } => {
                        let idx = slot as usize % SLOTS;
                        if let Some((size, written)) = state[idx] {
                            let len = (size * frac as u64 / 255).max(1).min(size);
                            b.write(slots[idx], 0u64, len, byte);
                            state[idx] = Some((size, written.max(len)));
                        }
                    }
                    Op::Copy { src, dst, frac } => {
                        let si = src as usize % SLOTS;
                        let di = dst as usize % SLOTS;
                        if si == di {
                            continue;
                        }
                        if let (Some((_, sw)), Some((dsize, dw))) = (state[si], state[di]) {
                            let len = (sw.min(dsize) * frac as u64 / 255)
                                .max(1)
                                .min(sw.min(dsize));
                            if len > 0 && sw > 0 {
                                b.copy(slots[si], 0u64, slots[di], 0u64, len);
                                state[di] = Some((dsize, dw.max(len)));
                            }
                        }
                    }
                    Op::Read { slot, frac, sink } => {
                        let idx = slot as usize % SLOTS;
                        if let Some((_, written)) = state[idx] {
                            if written > 0 {
                                let len = (written * frac as u64 / 255).max(1).min(written);
                                let sink = match sink % 5 {
                                    0 => Sink::Discard,
                                    1 => Sink::Branch,
                                    2 => Sink::Addr,
                                    3 => Sink::Syscall,
                                    _ => Sink::Leak,
                                };
                                b.read(slots[idx], 0u64, len, sink);
                            }
                        }
                    }
                }
            }
        });
    }
    // Clean teardown: free everything still live so steady-state invariants
    // hold across backends.
    let live: Vec<SlotId> = (0..SLOTS)
        .filter(|&i| state[i].is_some())
        .map(|i| slots[i])
        .collect();
    pb.define(main, |b| {
        for &f in &funcs {
            b.call(f);
        }
        for &s in &live {
            b.free(s);
        }
    });
    let _ = Expr::Const(0);
    pb.build()
}

fn observe<B: HeapBackend>(
    prog: &Program,
    plan: &InstrumentationPlan,
    backend: B,
) -> (heaptherapy_plus::simprog::RunReport, B) {
    let mut interp = Interpreter::new(prog, plan, backend);
    let report = interp.run(&[]);
    (report, interp.into_backend())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every execution mode sees identical program-visible behaviour on
    /// legal programs — including under maximum over-protection.
    #[test]
    fn defenses_preserve_behaviour(ops in arb_ops()) {
        let prog = materialize(&ops);
        let plan = InstrumentationPlan::build(prog.graph(), SiteStrategy::Incremental, Scheme::Pcc);

        let (base, _) = observe(&prog, &plan, heaptherapy_plus::simprog::PlainBackend::new());
        prop_assert!(base.outcome.is_completed(), "{:?}", base.outcome);

        // Interposition only.
        let (r, _) = observe(
            &prog,
            &plan,
            DefendedBackend::new(DefenseConfig::interpose_only()),
        );
        prop_assert_eq!(&r.outcome, &base.outcome);
        prop_assert_eq!(&r.leaked, &base.leaked);
        prop_assert_eq!(r.allocs, base.allocs);
        prop_assert_eq!(r.frees, base.frees);

        // Full defense, no patches.
        let (r, _) = observe(&prog, &plan, DefendedBackend::new(DefenseConfig::default()));
        prop_assert_eq!(&r.outcome, &base.outcome);
        prop_assert_eq!(&r.leaked, &base.leaked);
        prop_assert_eq!(r.allocs, base.allocs);

        // Full defense with EVERY context patched OF|UAF|UR (collision
        // storm): still transparent.
        let patches: Vec<Patch> = base
            .ccid_freq
            .keys()
            .map(|&(fun, ccid)| Patch::new(fun, ccid, VulnFlags::ALL))
            .collect();
        let mut cfg = DefenseConfig::with_table(PatchTable::from_patches(patches));
        cfg.quarantine_quota = u64::MAX / 2;
        let (r, backend) = observe(&prog, &plan, DefendedBackend::new(cfg));
        prop_assert_eq!(&r.outcome, &base.outcome);
        prop_assert_eq!(&r.leaked, &base.leaked);
        prop_assert_eq!(r.allocs, base.allocs);
        // With every context patched, every allocation must have hit.
        prop_assert_eq!(backend.stats().table_hits, base.allocs.total());
    }

    /// The offline analyzer neither perturbs legal programs nor reports
    /// anything about them (zero false positives — the paper's guarantee).
    #[test]
    fn analyzer_is_silent_on_legal_programs(ops in arb_ops()) {
        let prog = materialize(&ops);
        let plan = InstrumentationPlan::build(prog.graph(), SiteStrategy::Slim, Scheme::Additive);
        let (base, _) = observe(&prog, &plan, heaptherapy_plus::simprog::PlainBackend::new());
        let (r, shadow) = observe(&prog, &plan, ShadowBackend::new());
        prop_assert_eq!(&r.outcome, &base.outcome);
        prop_assert_eq!(&r.leaked, &base.leaked);
        prop_assert!(
            shadow.generate_patches("fp").is_empty(),
            "false positives: {:?}",
            shadow.warnings()
        );
    }

    /// An injected use-after-free (free + later dangling read at a random
    /// offset) is always classified as UAF and attributed to the freed
    /// buffer's context.
    #[test]
    fn analyzer_catches_injected_uaf(size in 1u16..1500, off in 0u16..1500, api in 0u8..3) {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let buggy = pb.func("uaf_site");
        let user = pb.func("dangling_user");
        let victim = pb.slot();
        let fun = [AllocFn::Malloc, AllocFn::Calloc, AllocFn::Memalign][api as usize];
        let size = size as u64;
        let off = off as u64 % size;
        pb.define(buggy, move |b| {
            match fun {
                AllocFn::Memalign => b.memalign(victim, 32u64, size),
                f => b.alloc(victim, f, size),
            }
            b.write(victim, 0u64, size, 1);
            b.free(victim);
        });
        pb.define(user, move |b| {
            b.read(victim, off, 1u64, Sink::Addr);
        });
        pb.define(main, |b| {
            b.call(buggy);
            b.call(user);
        });
        let prog = pb.build();
        let plan = InstrumentationPlan::build(prog.graph(), SiteStrategy::Slim, Scheme::Additive);
        let (_, shadow) = observe(&prog, &plan, ShadowBackend::new());
        let patches = shadow.generate_patches("uaf");
        prop_assert_eq!(patches.len(), 1);
        prop_assert_eq!(patches[0].alloc_fn, fun);
        prop_assert_eq!(patches[0].vuln, VulnFlags::USE_AFTER_FREE);
    }

    /// An injected uninitialized read (checked sink past the written
    /// prefix) is always classified UR — except through `calloc`, which is
    /// inherently initialized and must stay silent.
    #[test]
    fn analyzer_catches_injected_uninit_read(
        size in 8u16..1500,
        written_frac in 0u8..200,
        calloc in proptest::bool::ANY,
    ) {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let site = pb.func("ur_site");
        let buf = pb.slot();
        let fun = if calloc { AllocFn::Calloc } else { AllocFn::Malloc };
        let size = size as u64;
        let written = size * written_frac as u64 / 255; // strictly < size
        pb.define(site, move |b| {
            b.alloc(buf, fun, size);
            if written > 0 {
                b.write(buf, 0u64, written, 7);
            }
            b.read(buf, 0u64, size, Sink::Syscall);
            b.free(buf);
        });
        pb.define(main, |b| b.call(site));
        let prog = pb.build();
        let plan =
            InstrumentationPlan::build(prog.graph(), SiteStrategy::Incremental, Scheme::Pcc);
        let (_, shadow) = observe(&prog, &plan, ShadowBackend::new());
        let patches = shadow.generate_patches("ur");
        if calloc {
            prop_assert!(patches.is_empty(), "calloc memory is defined: {patches:?}");
        } else {
            prop_assert_eq!(patches.len(), 1);
            prop_assert_eq!(patches[0].vuln, VulnFlags::UNINIT_READ);
        }
    }

    /// Appending one out-of-bounds write to an otherwise legal program is
    /// always caught by the analyzer and attributed to the right API.
    #[test]
    fn analyzer_catches_injected_overflow(ops in arb_ops(), api in 0u8..3) {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let legal = pb.func("legal_part");
        let buggy = pb.func("buggy_part");
        let victim = pb.slot();
        pb.define(legal, |_| {});
        let fun = [AllocFn::Malloc, AllocFn::Calloc, AllocFn::Memalign][api as usize];
        pb.define(buggy, move |b| {
            match fun {
                AllocFn::Memalign => b.memalign(victim, 64u64, 96u64),
                f => b.alloc(victim, f, 96u64),
            }
            b.write(victim, 0u64, 96u64 + 1 + (api as u64), 0x41); // 1..4 bytes over
            b.free(victim);
        });
        pb.define(main, |b| {
            b.call(legal);
            b.call(buggy);
        });
        let prog = pb.build();
        let _ = ops;
        let plan = InstrumentationPlan::build(prog.graph(), SiteStrategy::Incremental, Scheme::Pcc);
        let (_, shadow) = observe(&prog, &plan, ShadowBackend::new());
        let patches = shadow.generate_patches("of");
        prop_assert_eq!(patches.len(), 1);
        prop_assert_eq!(patches[0].alloc_fn, fun);
        prop_assert_eq!(patches[0].vuln, VulnFlags::OVERFLOW);
    }
}

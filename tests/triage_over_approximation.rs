//! Property test for the static triage's over-approximation guarantee.
//!
//! For randomly generated programs — **including illegal ones** (out-of-
//! bounds extents, dangling uses, reads of unwritten bytes, attacker-sized
//! operations routed through `Input(i)`) — every patch the dynamic shadow
//! analyzer generates on a concrete input must be covered by a static
//! triage candidate with the same `(FUN, CCID)` key and a superset of its
//! vulnerability classes. The static pass sees no input at all; it runs
//! under the unconstrained attack domain.

use heaptherapy_plus::analysis::{triage, TriageConfig};
use heaptherapy_plus::callgraph::Strategy as SiteStrategy;
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::patch::AllocFn;
use heaptherapy_plus::shadow::ShadowBackend;
use heaptherapy_plus::simprog::{Expr, Interpreter, Program, ProgramBuilder, Sink, SlotId};
use proptest::prelude::*;

/// One generated heap operation. Unlike the differential generator, no
/// legality bookkeeping: frees leave dangling handles, extents may exceed
/// the allocation, reads may precede writes.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate `size` via `api % 4` into `slot % SLOTS`.
    Alloc { slot: u8, api: u8, size: u16 },
    /// Free the slot — WITHOUT clearing it (dangling handle stays).
    Free { slot: u8 },
    /// Free and clear (the legal variant).
    FreeClear { slot: u8 },
    /// `realloc` to `size` (may be `realloc(NULL)`).
    Realloc { slot: u8, size: u16 },
    /// Write `len` bytes at `off` — any extent, possibly input-sized.
    Write {
        slot: u8,
        off: u16,
        len: u16,
        via_input: bool,
    },
    /// Read `len` bytes at `off` to sink `sink % 5` — any extent.
    Read {
        slot: u8,
        off: u16,
        len: u16,
        sink: u8,
        via_input: bool,
    },
    /// memcpy between two slots with arbitrary offsets/length.
    Copy { src: u8, dst: u8, len: u16 },
}

const SLOTS: usize = 4;
/// Concrete input vector fed to the dynamic replay. The static pass never
/// sees it — `Input(i)` is `[0, u64::MAX]` to the triage.
const INPUT: [u64; 4] = [700, 90, 3, 41];

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (any::<u8>(), any::<u8>(), 1u16..600).prop_map(|(slot, api, size)| Op::Alloc {
            slot,
            api,
            size
        }),
        any::<u8>().prop_map(|slot| Op::Free { slot }),
        any::<u8>().prop_map(|slot| Op::FreeClear { slot }),
        (any::<u8>(), 1u16..600).prop_map(|(slot, size)| Op::Realloc { slot, size }),
        (any::<u8>(), 0u16..700, 0u16..700, any::<bool>()).prop_map(
            |(slot, off, len, via_input)| Op::Write {
                slot,
                off,
                len,
                via_input
            }
        ),
        (
            any::<u8>(),
            0u16..700,
            0u16..700,
            any::<u8>(),
            any::<bool>()
        )
            .prop_map(|(slot, off, len, sink, via_input)| Op::Read {
                slot,
                off,
                len,
                sink,
                via_input
            }),
        (any::<u8>(), any::<u8>(), 0u16..700).prop_map(|(src, dst, len)| Op::Copy {
            src,
            dst,
            len
        }),
    ];
    proptest::collection::vec(op, 1..40)
}

/// Materializes the ops with no legality filtering, grouped into helper
/// functions so allocations occur under distinct calling contexts.
fn materialize(ops: &[Op]) -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let slots: Vec<SlotId> = pb.slots(SLOTS as u32);

    let chunks: Vec<&[Op]> = ops.chunks(4).collect();
    let mut funcs = Vec::new();
    for (ci, chunk) in chunks.iter().enumerate() {
        let f = pb.func(format!("part_{ci}"));
        funcs.push(f);
        pb.define(f, |b| {
            for &op in *chunk {
                match op {
                    Op::Alloc { slot, api, size } => {
                        let s = slots[slot as usize % SLOTS];
                        match api % 4 {
                            0 => b.alloc(s, AllocFn::Malloc, size as u64),
                            1 => b.alloc(s, AllocFn::Calloc, size as u64),
                            2 => b.memalign(s, 1u64 << (api % 5 + 4), size as u64),
                            _ => b.realloc(s, size as u64),
                        }
                    }
                    Op::Free { slot } => b.free(slots[slot as usize % SLOTS]),
                    Op::FreeClear { slot } => {
                        let s = slots[slot as usize % SLOTS];
                        b.free(s);
                        b.clear(s);
                    }
                    Op::Realloc { slot, size } => {
                        b.realloc(slots[slot as usize % SLOTS], size as u64)
                    }
                    Op::Write {
                        slot,
                        off,
                        len,
                        via_input,
                    } => {
                        let len_expr = if via_input {
                            Expr::Input(len as usize % INPUT.len())
                        } else {
                            Expr::from(len as u64)
                        };
                        b.write(slots[slot as usize % SLOTS], off as u64, len_expr, 0x42);
                    }
                    Op::Read {
                        slot,
                        off,
                        len,
                        sink,
                        via_input,
                    } => {
                        let len_expr = if via_input {
                            Expr::Input(len as usize % INPUT.len())
                        } else {
                            Expr::from(len as u64)
                        };
                        let sink = match sink % 5 {
                            0 => Sink::Discard,
                            1 => Sink::Branch,
                            2 => Sink::Addr,
                            3 => Sink::Syscall,
                            _ => Sink::Leak,
                        };
                        b.read(slots[slot as usize % SLOTS], off as u64, len_expr, sink);
                    }
                    Op::Copy { src, dst, len } => {
                        let si = src as usize % SLOTS;
                        let di = dst as usize % SLOTS;
                        if si != di {
                            b.copy(slots[si], 0u64, slots[di], 0u64, len as u64);
                        }
                    }
                }
            }
        });
    }
    pb.define(main, |b| {
        for &f in &funcs {
            b.call(f);
        }
    });
    pb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every dynamic patch has a covering static candidate, under both an
    /// imprecise (PCC) and a precise (Additive) plan.
    #[test]
    fn static_triage_over_approximates_the_shadow_analyzer(ops in arb_ops()) {
        let prog = materialize(&ops);
        for (strategy, scheme) in [
            (SiteStrategy::Incremental, Scheme::Pcc),
            (SiteStrategy::Tcs, Scheme::Additive),
        ] {
            let plan = InstrumentationPlan::build(prog.graph(), strategy, scheme);

            // Dynamic: concrete replay under the shadow analyzer.
            let mut interp = Interpreter::new(&prog, &plan, ShadowBackend::new());
            let _ = interp.run(&INPUT);
            let patches = interp.into_backend().generate_patches("prop");

            // Static: no input, unconstrained attack domain.
            let report = triage(&prog, &plan, &TriageConfig::default());
            prop_assert!(!report.bounded, "generated programs are loop/recursion free");

            for p in &patches {
                prop_assert!(
                    report.covers_patch(p),
                    "{scheme}: dynamic patch {p:?} has no static candidate; \
                     candidates: {:?}",
                    report.candidates
                );
            }
        }
    }
}

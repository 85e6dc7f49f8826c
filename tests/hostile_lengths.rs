//! Hostile lengths and offsets: a statement's `len` and `offset` come
//! straight from the input, so an attacker can ask for a 2⁵⁰-byte read or
//! an offset that wraps below the buffer. Every backend must stop such an
//! access with a segfault at the first unmapped byte, without allocating,
//! scanning or looping over the requested length, and must behave exactly
//! as it does for the length that ends at that fault: same outcome, same
//! leaked bytes, same memory and analyzer state.
//!
//! A wild access, one that starts at an address no backend maps, stops
//! every backend with the same segfault.
//!
//! Allocation sizes and alignments come from the input too: a request
//! beyond [`MAX_ALLOC_BYTES`] stops the run the same way on every backend,
//! before any backend maps, overflows or panics.

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig};
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::memsim::Addr;
use heaptherapy_plus::patch::AllocFn;
use heaptherapy_plus::shadow::ShadowBackend;
use heaptherapy_plus::simprog::{
    Expr, HeapBackend, Interpreter, PlainBackend, Program, ProgramBuilder, RunOutcome, RunReport,
    Sink, StopCause, MAX_ALLOC_BYTES,
};
use std::fmt::Debug;

const HOSTILE_LEN: u64 = 1 << 50;
/// An offset of −16: pointer arithmetic wraps to just below the buffer.
const UNDERFLOW: u64 = 0u64.wrapping_sub(16);

#[derive(Debug, Clone, Copy)]
enum Access {
    Read,
    Write,
    Copy,
    /// A copy from `a` into `b` at the offset: the store is the access.
    CopyInto,
}

/// `main` allocates two 64-byte buffers `a` and `b`, then performs one
/// access on `b` at offset `input[1]` of length `input[0]` (a copy goes
/// from `b` into `a`). An offset of −16 lands in memory before `b`.
fn program(access: Access) -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let (a, b) = (pb.slot(), pb.slot());
    pb.define(main, |f| {
        f.alloc(a, AllocFn::Malloc, 64u64);
        f.alloc(b, AllocFn::Malloc, 64u64);
        match access {
            Access::Read => f.read(b, Expr::Input(1), Expr::Input(0), Sink::Leak),
            Access::Write => f.write(b, Expr::Input(1), Expr::Input(0), 0x41),
            Access::Copy => f.copy(b, Expr::Input(1), a, 0u64, Expr::Input(0)),
            Access::CopyInto => f.copy(a, 0u64, b, Expr::Input(1), Expr::Input(0)),
        }
    });
    pb.build()
}

fn run<B: HeapBackend>(backend: B, access: Access, len: u64, off: u64) -> (RunReport, B) {
    let prog = program(access);
    let plan = InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Pcc);
    let mut interp = Interpreter::new(&prog, &plan, backend);
    let report = interp.run(&[len, off]);
    (report, interp.into_backend())
}

fn fault_addr(report: &RunReport) -> Addr {
    match report.outcome {
        RunOutcome::Stopped(StopCause::Segfault { addr, .. }) => addr,
        ref other => panic!("expected a segfault, got {other:?}"),
    }
}

/// Buffer `b`'s address: a hostile read from it leaks every byte up to
/// the fault.
fn buffer_b<B: HeapBackend>(backend: B) -> Addr {
    let (probe, _) = run(backend, Access::Read, HOSTILE_LEN, 0);
    fault_addr(&probe) - probe.leaked.len() as u64
}

/// Runs every access with a hostile length, at offset 0 and at −16, and
/// checks each against the run whose length ends at its fault.
fn check_backend<B: HeapBackend, T: PartialEq + Debug>(
    fresh: impl Fn() -> B,
    observe: impl Fn(&B) -> T,
) {
    let b = buffer_b(fresh());
    for access in [Access::Read, Access::Write, Access::Copy] {
        for off in [0, UNDERFLOW] {
            let (hostile, hb) = run(fresh(), access, HOSTILE_LEN, off);
            let fault = fault_addr(&hostile);
            let len = fault.wrapping_sub(b.wrapping_add(off)) + 1;
            assert!(len < HOSTILE_LEN, "{access:?} at {off:#x}: len {len}");
            let (exact, eb) = run(fresh(), access, len, off);
            let ctx = format!("{access:?} at offset {off:#x}, fault at {fault:#x}");
            assert_eq!(hostile.outcome, exact.outcome, "{ctx}");
            assert_eq!(hostile.leaked, exact.leaked, "{ctx}");
            assert_eq!(observe(&hb), observe(&eb), "{ctx}");
        }
    }
}

#[test]
fn plain_backend_stops_hostile_accesses_at_the_fault() {
    check_backend(PlainBackend::new, |b| b.mem_stats());
}

#[test]
fn shadow_backend_stops_hostile_accesses_at_the_fault() {
    check_backend(ShadowBackend::new, |b| {
        (b.mem_stats(), b.warnings().to_vec())
    });
}

#[test]
fn defended_backend_stops_hostile_accesses_at_the_fault() {
    check_backend(
        || DefendedBackend::new(DefenseConfig::default()),
        |b| (b.mem_stats(), b.stats()),
    );
}

/// How an 8-byte access at `WILD` ends: buffer `b` is placed differently
/// on each backend, so the offset that reaches `WILD` is taken from it.
fn wild<B: HeapBackend>(fresh: impl Fn() -> B, access: Access) -> RunOutcome {
    let off = WILD.wrapping_sub(buffer_b(fresh()));
    run(fresh(), access, 8, off).0.outcome
}

/// An address below every mapping.
const WILD: Addr = 0x10;

#[test]
fn wild_accesses_stop_every_backend_with_the_same_segfault() {
    for (access, write) in [
        (Access::Read, false),
        (Access::Write, true),
        (Access::Copy, false),
        (Access::CopyInto, true),
    ] {
        let expected = RunOutcome::Stopped(StopCause::Segfault { addr: WILD, write });
        let outcomes = [
            wild(PlainBackend::new, access),
            wild(ShadowBackend::new, access),
            wild(|| DefendedBackend::new(DefenseConfig::default()), access),
        ];
        assert!(
            outcomes.iter().all(|o| *o == expected),
            "{access:?}: {outcomes:?}"
        );
    }
}

/// `main` asks for one buffer of size `input[0]` aligned to `input[1]`.
fn alloc_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let a = pb.slot();
    pb.define(main, |f| f.memalign(a, Expr::Input(1), Expr::Input(0)));
    pb.build()
}

fn run_alloc<B: HeapBackend>(backend: B, size: u64, align: u64) -> RunOutcome {
    let prog = alloc_program();
    let plan = InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Pcc);
    Interpreter::new(&prog, &plan, backend)
        .run(&[size, align])
        .outcome
}

#[test]
fn hostile_allocation_sizes_and_alignments_stop_every_backend() {
    for (size, align) in [
        (1 << 40, 16),
        (u64::MAX - 16, 16),
        (64, (1 << 63) + 1),
        (MAX_ALLOC_BYTES + 1, 16),
    ] {
        let outcomes = [
            run_alloc(PlainBackend::new(), size, align),
            run_alloc(ShadowBackend::new(), size, align),
            run_alloc(DefendedBackend::new(DefenseConfig::default()), size, align),
        ];
        for outcome in &outcomes {
            assert!(
                matches!(outcome, RunOutcome::Stopped(StopCause::HeapMisuse(_))),
                "size {size:#x} align {align:#x}: {outcome:?}"
            );
        }
        assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{outcomes:?}");
    }
}

//! Static heap-vulnerability triage and encoding-plan verification
//! (the "lint" half of HeapTherapy+).
//!
//! The dynamic pipeline needs a concrete attack input before it can patch
//! anything. This crate adds the static complement, two engines:
//!
//! 1. **Vulnerability triage** ([`triage()`]) — an abstract interpreter over
//!    the modeled-program IR. Expressions evaluate to [`Interval`]s under an
//!    adversarial [`InputDomain`] (each `Input(i)` ranges over the caller's
//!    bound, or all of `u64`); slot liveness and buffer initialization flow
//!    through alloc/free/realloc/copy dataflow. Every access that *may*
//!    overflow, follow a dangling pointer, or read unwritten bytes is
//!    reported as a [`Candidate`] resolved to the static `{FUN, CCID, T}` it
//!    would patch — the allocation context is enumerated on the walk and
//!    encoded with the active [`InstrumentationPlan`], exactly as the
//!    runtime encoder would.
//! 2. **Plan verification** ([`verify_plan`]) — enumerates (bounded, under
//!    recursion) the static context set per target and checks the encoding
//!    plan's claims: precision (no two contexts of one target share a CCID
//!    when the plan claims `precise`; collision rate reported otherwise),
//!    the paper's `FCS ⊇ TCS ⊇ Slim ⊇ Incremental` site-set inclusion, and
//!    that every runtime-reachable target has a defined CCID.
//!
//! The triage *over-approximates* the dynamic shadow analyzer: on any
//! concrete attack input, every patch the shadow replay generates must have
//! its `(FUN, CCID)` among the static candidates (unless
//! [`TriageReport::bounded`] — recursion makes contexts unenumerable). The
//! pipeline's lint pre-pass cross-checks exactly this.
//!
//! [`InstrumentationPlan`]: ht_encoding::InstrumentationPlan

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod candidates;
pub mod domain;
pub mod interval;
pub mod report;
pub mod triage;
pub mod verifier;

mod site;
mod state;

pub use candidates::{Candidate, TriageReport};
pub use domain::{eval_expr, InputDomain};
pub use interval::Interval;
pub use report::{chain, render_candidate, render_report, render_verdict};
pub use triage::{triage, TriageConfig};
pub use verifier::{verify_plan, PlanVerdict, VerifierLimits};

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::Strategy;
    use ht_encoding::{InstrumentationPlan, Scheme};
    use ht_patch::{AllocFn, VulnFlags};
    use ht_simprog::{Expr, ProgramBuilder, Sink};

    fn plan_for(prog: &ht_simprog::Program) -> InstrumentationPlan {
        InstrumentationPlan::build(prog.graph(), Strategy::Incremental, Scheme::Pcc)
    }

    #[test]
    fn clean_program_triages_clean() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.write(s, 0u64, 64u64, 1);
            b.read(s, 0u64, 64u64, Sink::Leak);
            b.free(s);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert!(r.is_clean(), "{:?}", r.candidates);
        assert!(!r.bounded);
        assert_eq!(r.sites_seen, 1);
    }

    #[test]
    fn input_sized_write_is_an_overflow_candidate() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.write(s, 0u64, Expr::Input(0), 1);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert_eq!(r.candidates.len(), 1);
        assert!(r.candidates[0].vuln.contains(VulnFlags::OVERFLOW));
        assert_eq!(r.candidates[0].fun, AllocFn::Malloc);
    }

    #[test]
    fn bounded_input_can_prove_the_write_safe() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.write(s, 0u64, Expr::Input(0), 1);
        });
        let prog = pb.build();
        let cfg = TriageConfig {
            domain: InputDomain::attack().bound(0, Interval::new(0, 64)),
            ..TriageConfig::default()
        };
        let r = triage(&prog, &plan_for(&prog), &cfg);
        assert!(r.is_clean(), "{:?}", r.candidates);
    }

    #[test]
    fn dangling_read_is_a_uaf_candidate() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.write(s, 0u64, 64u64, 1);
            b.free(s);
            b.read(s, 0u64, 8u64, Sink::Leak);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert_eq!(r.candidates.len(), 1);
        assert!(r.candidates[0].vuln.contains(VulnFlags::USE_AFTER_FREE));
    }

    #[test]
    fn clear_after_free_silences_the_uaf() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.free(s);
            b.clear(s);
            b.read(s, 0u64, 8u64, Sink::Leak);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert!(r.is_clean(), "{:?}", r.candidates);
    }

    #[test]
    fn unwritten_tail_is_an_uninit_read_candidate_except_calloc() {
        for (fun, expect_clean) in [(AllocFn::Malloc, false), (AllocFn::Calloc, true)] {
            let mut pb = ProgramBuilder::new();
            let main = pb.entry();
            let s = pb.slot();
            pb.define(main, |b| {
                b.alloc(s, fun, 64u64);
                b.write(s, 0u64, 16u64, 1);
                b.read(s, 0u64, 64u64, Sink::Syscall);
            });
            let prog = pb.build();
            let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
            assert_eq!(r.is_clean(), expect_clean, "{fun:?}: {:?}", r.candidates);
            if !expect_clean {
                assert_eq!(r.candidates[0].vuln, VulnFlags::UNINIT_READ);
            }
        }
    }

    #[test]
    fn discard_sink_never_reports_ur() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 64u64);
            b.read(s, 0u64, 64u64, Sink::Discard);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert!(r.is_clean(), "{:?}", r.candidates);
    }

    #[test]
    fn copy_taints_the_destination_with_the_source_origin() {
        // heartbleed shape: uninit bytes flow src → dst, the *leak* reads
        // dst, the UR blames the src allocation (origin tracking).
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let (req, resp) = (pb.slot(), pb.slot());
        pb.define(main, |b| {
            b.alloc(req, AllocFn::Malloc, 64u64);
            b.write(req, 0u64, 16u64, 1); // only 16 bytes valid
            b.alloc(resp, AllocFn::Calloc, 128u64);
            b.copy(req, 0u64, resp, 0u64, 64u64); // 48 invalid bytes move
            b.read(resp, 0u64, 64u64, Sink::Leak);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        // Both the tainted response buffer and the origin request buffer
        // must appear as UR candidates.
        assert_eq!(r.candidates.len(), 2, "{:?}", r.candidates);
        for c in &r.candidates {
            assert!(c.vuln.contains(VulnFlags::UNINIT_READ), "{c:?}");
        }
    }

    #[test]
    fn distinct_contexts_get_distinct_candidates() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let f = pb.func("f");
        let g = pb.func("g");
        let helper = pb.func("helper");
        let s = pb.slot();
        pb.define(main, |b| {
            b.call(f);
            b.call(g);
        });
        pb.define(f, |b| b.call(helper));
        pb.define(g, |b| b.call(helper));
        pb.define(helper, |b| {
            b.alloc(s, AllocFn::Malloc, 8u64);
            b.write(s, 0u64, Expr::Input(0), 1);
            b.free(s);
        });
        let prog = pb.build();
        let plan = InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Positional);
        let r = triage(&prog, &plan, &TriageConfig::default());
        assert_eq!(r.sites_seen, 2, "two calling contexts of the same site");
        assert_eq!(r.candidates.len(), 2);
        assert_ne!(r.candidates[0].ccid, r.candidates[1].ccid);
        assert_ne!(r.candidates[0].path, r.candidates[1].path);
    }

    #[test]
    fn loops_summarize_without_false_positives() {
        // The SPEC shape: repeat { alloc; write all; read all; free }.
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.repeat(Expr::Input(0), |b| {
                b.alloc(s, AllocFn::Malloc, 256u64);
                b.write(s, 0u64, 256u64, 1);
                b.read(s, 0u64, 256u64, Sink::Branch);
                b.free(s);
            });
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert!(r.is_clean(), "{:?}", r.candidates);
        assert!(!r.bounded, "the loop summary converges");
    }

    #[test]
    fn recursion_sets_bounded() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let f = pb.func("f");
        let s = pb.slot();
        pb.define(main, |b| b.call(f));
        pb.define(f, |b| {
            b.alloc(s, AllocFn::Malloc, 8u64);
            b.free(s);
            b.call(f);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        assert!(r.bounded);
    }

    #[test]
    fn virtual_calls_cover_every_candidate_callee() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let a = pb.func("handler_a");
        let b_ = pb.func("handler_b");
        let s = pb.slot();
        for f in [a, b_] {
            pb.define(f, |b| {
                b.alloc(s, AllocFn::Malloc, 32u64);
                b.write(s, 0u64, Expr::Input(1), 1);
                b.free(s);
            });
        }
        pb.define(main, |b| b.call_virtual(&[a, b_], Expr::Input(0)));
        let prog = pb.build();
        let plan = InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Positional);
        let r = triage(&prog, &plan, &TriageConfig::default());
        assert_eq!(r.candidates.len(), 2, "one per dispatch target");
    }

    #[test]
    fn realloc_resolves_to_the_realloc_context() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let s = pb.slot();
        pb.define(main, |b| {
            b.alloc(s, AllocFn::Malloc, 16u64);
            b.write(s, 0u64, 16u64, 1);
            b.realloc(s, Expr::Input(0));
            b.write(s, 0u64, Expr::Input(0), 2);
            b.read(s, 0u64, 16u64, Sink::Leak);
        });
        let prog = pb.build();
        let r = triage(&prog, &plan_for(&prog), &TriageConfig::default());
        // The grown buffer is written with an attacker length: overflow on
        // the realloc context (Input(0) may exceed the new size? No — the
        // write length equals the size, but size.lo is 0 so the extent may
        // exceed it).
        let of = r
            .candidates
            .iter()
            .find(|c| c.fun == AllocFn::Realloc)
            .expect("realloc candidate");
        assert!(of.vuln.contains(VulnFlags::OVERFLOW));
    }
}

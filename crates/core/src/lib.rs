//! The HeapTherapy+ pipeline: instrument → replay attack offline → generate
//! patches → deploy code-lessly → run protected.
//!
//! This crate is the system of the paper's Fig. 1, wired end-to-end:
//!
//! 1. **Program instrumentation** ([`HeapTherapy::instrument`]) — builds the
//!    targeted calling-context-encoding plan for the program's call graph.
//! 2. **Offline patch generation** ([`HeapTherapy::analyze_attack`]) —
//!    replays an attack input under the shadow-memory analyzer and folds the
//!    warnings into `{FUN, CCID, T}` patches.
//! 3. **Code-less deployment** — patches are written to a configuration
//!    file and read back (never touching the program), exactly as the
//!    online defense generator would at startup.
//! 4. **Online defense** ([`HeapTherapy::run`] with [`Deploy::Protected`])
//!    — the same program runs over the defended allocator; only buffers
//!    whose `(FUN, CCID)` hits the table are enhanced. [`Deploy::Native`]
//!    and [`Deploy::Interposed`] run it under the paper's two baselines,
//!    and every [`Run`] carries the memory statistics Fig. 9 reads.
//!
//! A static pre-pass ([`HeapTherapy::lint`]) complements the dynamic loop:
//! it triages candidate vulnerable allocation contexts without running any
//! attack, verifies the encoding plan's claims, and cross-checks that the
//! static candidates over-approximate the dynamic patches.
//!
//! [`HeapTherapy::full_cycle`] performs the whole loop against a
//! [`ht_vulnapps::VulnApp`] and verifies the paper's Table II claims: the
//! attack works undefended, the analyzer identifies the right vulnerability
//! type, and the deployed patch defeats fresh attack instances while benign
//! inputs run unharmed. An attack that still breaches through a new calling
//! context starts another round (§IX), and with
//! [`PipelineConfig::telemetry`] the report carries the protected runs'
//! one-time attack reports (§VII).
//!
//! # Example
//!
//! ```
//! use heaptherapy_core::{HeapTherapy, PipelineConfig};
//!
//! let ht = HeapTherapy::new(PipelineConfig::default());
//! let cycle = ht.full_cycle(&ht_vulnapps::heartbleed(), 1).expect("pipeline runs");
//! assert!(cycle.undefended_attack_succeeded);
//! assert!(cycle.detected.contains(ht_patch::VulnFlags::UNINIT_READ));
//! assert!(cycle.all_attacks_blocked);
//! assert!(cycle.benign_ok);
//! ```

#![forbid(unsafe_code)]

pub mod lint;
pub mod pipeline;
pub mod report;

pub use lint::{LintReport, PlanVerdict};
pub use pipeline::{
    AnalysisReport, CycleReport, Deploy, HeapTherapy, InstrumentedProgram, PipelineConfig, Run,
};
pub use report::{decode_chain, incident_report, IncidentReport, PatchReport};

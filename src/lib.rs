//! # HeapTherapy+ — code-less heap patching with targeted calling-context encoding
//!
//! A from-scratch Rust reproduction of *HeapTherapy+: Efficient Handling of
//! (Almost) All Heap Vulnerabilities Using Targeted Calling-Context Encoding*
//! (DSN 2019).
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`callgraph`] — call graphs and targeted instrumentation-site selection
//!   (FCS / TCS / Slim / Incremental).
//! * [`encoding`] — calling-context encoding schemes (the paper's PCC and
//!   one precise one, PCCE-style additive, decodable on acyclic call
//!   graphs as PCCE is) and the runtime encoder.
//! * [`memsim`] — simulated paged virtual memory with page permissions and
//!   underlying heap allocators.
//! * [`patch`] — the `{FUN, CCID, T}` patch format, configuration files, and
//!   the frozen online patch table.
//! * [`simprog`] — the modeled-program substrate (statement language,
//!   interpreter, SPEC CPU2006 and service workload models).
//! * [`shadow`] — the offline shadow-memory attack analyzer and patch
//!   generator.
//! * [`defense`] — the online defense generator (allocation interposition,
//!   guard pages, deferred free, zero-init).
//! * [`hardened_alloc`] — a real `GlobalAlloc` carrying the same defenses on
//!   actual process memory.
//! * [`telemetry`] — runtime attack telemetry: the lock-free event ring,
//!   per-patch hit counters, one-time attack reports, and phase timings.
//! * [`vulnapps`] — modeled vulnerable programs reproducing the paper's
//!   Table II suite.
//! * [`analysis`] — static vulnerability triage (interval-domain abstract
//!   interpretation resolving candidates to `{FUN, CCID, T}`) and the
//!   encoding-plan verifier.
//! * [`core`] — the end-to-end pipeline: instrument → replay attack →
//!   generate patches → run protected, plus the static `lint` pre-pass.
//!
//! # Quickstart
//!
//! ```
//! use heaptherapy_plus::core::{HeapTherapy, PipelineConfig};
//! use heaptherapy_plus::vulnapps;
//!
//! // A modeled program with a heap overflow, one attack input in hand.
//! let app = vulnapps::bc();
//! let ht = HeapTherapy::new(PipelineConfig::default());
//! let cycle = ht.full_cycle(&app, 1).expect("pipeline runs");
//! assert!(!cycle.patches.is_empty());
//! assert!(cycle.all_attacks_blocked);
//! ```

pub use heaptherapy_core as core;
pub use ht_analysis as analysis;
pub use ht_callgraph as callgraph;
pub use ht_defense as defense;
pub use ht_encoding as encoding;
pub use ht_hardened_alloc as hardened_alloc;
pub use ht_jsonio as jsonio;
pub use ht_memsim as memsim;
pub use ht_patch as patch;
pub use ht_shadow as shadow;
pub use ht_simprog as simprog;
pub use ht_telemetry as telemetry;
pub use ht_vulnapps as vulnapps;

//! The static pre-pass: triage + plan verification, cross-checked against
//! the dynamic shadow analyzer.
//!
//! The invariant the lint enforces is *over-approximation*: the static
//! triage must flag (at least) every `(FUN, CCID)` the dynamic analyzer
//! patches on any attack input. A dynamic patch with no static candidate is
//! a triage false negative — reported in [`LintReport::uncovered`].

use crate::pipeline::{HeapTherapy, InstrumentedProgram};
pub use ht_analysis::PlanVerdict;
use ht_analysis::{
    render_report, render_verdict, triage, verify_plan, TriageConfig, TriageReport, VerifierLimits,
};
use ht_patch::{Patch, PatchTable};
use ht_vulnapps::VulnApp;

/// Result of linting one application: the static findings, the plan
/// verdict, and the dynamic ground truth they are checked against.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Application name.
    pub app: String,
    /// Static triage findings.
    pub triage: TriageReport,
    /// Encoding-plan verdict.
    pub verdict: PlanVerdict,
    /// Patches the dynamic analyzer generates, merged across every attack
    /// input (empty for clean apps).
    pub dynamic_patches: Vec<Patch>,
    /// Dynamic patches with no covering static candidate (triage false
    /// negatives; must be empty unless the triage was bounded).
    pub uncovered: Vec<Patch>,
}

impl LintReport {
    /// Whether the static triage over-approximated the dynamic analyzer:
    /// every dynamic patch has a static candidate with the same key and a
    /// superset of its vulnerability classes.
    pub fn static_over_approximates(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// Exit status for the CLI: 0 when the triage is clean, 2 otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.triage.is_clean() {
            0
        } else {
            2
        }
    }

    /// One static-vs-dynamic agreement row for the `reproduce lint` table.
    pub fn agreement_row(&self) -> String {
        format!(
            "{:<28} static={:<3} dynamic={:<3} covered={:<5} plan={}",
            self.app,
            self.triage.candidates.len(),
            self.dynamic_patches.len(),
            self.static_over_approximates(),
            if self.verdict.is_ok() { "ok" } else { "FAILED" },
        )
    }

    /// The full multi-line lint output (triage findings + plan verdict +
    /// agreement line), as the CLI prints it.
    pub fn render(&self, ip: &InstrumentedProgram<'_>) -> String {
        let mut out = render_report(ip.program.graph(), &self.triage);
        out.push_str(&render_verdict(&self.verdict));
        out.push_str(&format!(
            "dynamic cross-check: {} patch(es), {} uncovered\n",
            self.dynamic_patches.len(),
            self.uncovered.len()
        ));
        out
    }
}

impl HeapTherapy {
    /// Static vulnerability triage over an instrumented program: abstract
    /// interpretation under an unconstrained attack-input domain, with the
    /// shadow analyzer's red-zone width so "wild" classification agrees.
    pub fn static_triage(&self, ip: &InstrumentedProgram<'_>) -> TriageReport {
        let cfg = TriageConfig {
            redzone: ht_shadow::REDZONE,
            ..TriageConfig::default()
        };
        triage(ip.program, &ip.plan, &cfg)
    }

    /// Verifies the instrumented program's encoding plan (precision,
    /// strategy inclusion, site selection, target coverage).
    pub fn verify_plan(&self, ip: &InstrumentedProgram<'_>) -> PlanVerdict {
        verify_plan(ip.program.graph(), &ip.plan, &VerifierLimits::default())
    }

    /// Lints one application: static triage + plan verification,
    /// cross-checked against the dynamic patches of every attack input.
    pub fn lint(&self, app: &VulnApp) -> LintReport {
        let ip = self.instrument(&app.program);
        let triage = self.static_triage(&ip);
        let verdict = self.verify_plan(&ip);

        // Dynamic ground truth: merge the patches of every attack input.
        let mut all: Vec<Patch> = Vec::new();
        for input in &app.attack_inputs {
            all.extend(self.analyze_attack(&ip, input, &app.reference).patches);
        }
        // PatchTable::iter is sorted by (FUN, CCID) — lint output stays
        // byte-identical across runs without a local sort.
        let table = PatchTable::from_patches(all);
        let dynamic_patches: Vec<Patch> = table
            .iter()
            .map(|(fun, ccid, vuln)| Patch::new(fun, ccid, vuln).with_origin(&app.reference))
            .collect();

        let uncovered: Vec<Patch> = dynamic_patches
            .iter()
            .filter(|p| !triage.covers_patch(p))
            .cloned()
            .collect();

        LintReport {
            app: app.name.clone(),
            triage,
            verdict,
            dynamic_patches,
            uncovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use ht_patch::VulnFlags;

    #[test]
    fn lint_flags_the_vulnapp_and_covers_its_dynamic_patches() {
        let ht = HeapTherapy::new(PipelineConfig::default());
        let report = ht.lint(&ht_vulnapps::bc());
        assert!(!report.triage.is_clean());
        assert!(!report.dynamic_patches.is_empty());
        assert!(report.static_over_approximates(), "{:?}", report.uncovered);
        assert!(report.verdict.is_ok());
        assert_eq!(report.exit_code(), 2);
        assert!(report
            .triage
            .candidates
            .iter()
            .any(|c| c.vuln.contains(VulnFlags::OVERFLOW)));
    }

    #[test]
    fn lint_render_and_row_mention_the_key_facts() {
        let ht = HeapTherapy::new(PipelineConfig::default());
        let app = ht_vulnapps::optipng();
        let ip = ht.instrument(&app.program);
        let report = ht.lint(&app);
        let text = report.render(&ip);
        assert!(text.contains("static triage"), "{text}");
        assert!(text.contains("plan verifier: OK"), "{text}");
        assert!(report.agreement_row().contains("covered=true"));
    }

    #[test]
    fn spec_models_lint_clean() {
        let ht = HeapTherapy::new(PipelineConfig::default());
        let w =
            ht_simprog::spec::build_spec_workload(ht_simprog::spec::spec_bench("429.mcf").unwrap());
        let ip = ht.instrument(&w.program);
        let triage = ht.static_triage(&ip);
        assert!(triage.is_clean(), "{:?}", triage.candidates);
        assert!(ht.verify_plan(&ip).is_ok());
    }
}

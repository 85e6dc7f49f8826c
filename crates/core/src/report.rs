//! Human-readable incident reports: patches with their decoded calling
//! contexts.
//!
//! Under the one precise encoding, [`Scheme::Additive`], the integer CCID
//! stored in a patch decodes back to the full call chain — the PCCE
//! capability the paper highlights: the configuration file entry
//! `malloc 0x1f3a OF` becomes `main → yyparse → more_arrays → malloc` in
//! the incident report. Like PCCE's decoder, it decodes only when the
//! target-reaching call graph is acyclic; a PCC plan, or an additive one
//! over recursion, reports its patches without chains.
//!
//! [`Scheme::Additive`]: ht_encoding::Scheme::Additive

use crate::pipeline::{AnalysisReport, InstrumentedProgram};
use ht_encoding::{decode, Ccid};
use ht_patch::{AllocFn, Patch};
use std::fmt;

/// Decodes a patch CCID into its call chain (entry function first, the
/// allocation API last), when the plan's encoding scheme supports decoding.
pub fn decode_chain(ip: &InstrumentedProgram<'_>, fun: AllocFn, ccid: u64) -> Option<Vec<String>> {
    let graph = ip.program.graph();
    let target = graph.func_by_name(fun.name())?;
    let path = decode(graph, &ip.plan, Ccid(ccid), target)?;
    let mut chain = vec!["main".to_string()];
    chain.extend(
        path.iter()
            .map(|&e| graph.func(graph.edge(e).callee).name.clone()),
    );
    Some(chain)
}

/// One patch with its decoded provenance.
#[derive(Debug, Clone)]
pub struct PatchReport {
    /// The patch as deployed.
    pub patch: Patch,
    /// The decoded calling context (function names from the entry to the
    /// allocation API), when the plan's encoding supports decoding.
    pub call_chain: Option<Vec<String>>,
}

impl fmt::Display for PatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.patch)?;
        match &self.call_chain {
            Some(chain) => write!(f, "  ⇐  {}", chain.join(" → ")),
            None => write!(f, "  ⇐  (context not decodable under this scheme)"),
        }
    }
}

/// The rendered outcome of one offline analysis.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Application / incident label.
    pub title: String,
    /// Analyzer warnings, rendered.
    pub warnings: Vec<String>,
    /// Patches with provenance.
    pub patches: Vec<PatchReport>,
}

impl fmt::Display for IncidentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "incident: {}", self.title)?;
        writeln!(f, "  warnings:")?;
        for w in &self.warnings {
            writeln!(f, "    - {w}")?;
        }
        writeln!(f, "  patches:")?;
        for p in &self.patches {
            writeln!(f, "    - {p}")?;
        }
        Ok(())
    }
}

/// Builds an incident report from an offline analysis, decoding each
/// patch's CCID to its call chain when the plan permits.
pub fn incident_report(
    ip: &InstrumentedProgram<'_>,
    analysis: &AnalysisReport,
    title: impl Into<String>,
) -> IncidentReport {
    let patches = analysis
        .patches
        .iter()
        .map(|patch| PatchReport {
            patch: patch.clone(),
            call_chain: decode_chain(ip, patch.alloc_fn, patch.ccid),
        })
        .collect();
    IncidentReport {
        title: title.into(),
        warnings: analysis.warnings.iter().map(|w| w.to_string()).collect(),
        patches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{HeapTherapy, PipelineConfig};
    use ht_callgraph::Strategy;
    use ht_encoding::Scheme;

    fn analyze(scheme: Scheme) -> (String, bool) {
        let app = ht_vulnapps::bc();
        let ht = HeapTherapy::new(PipelineConfig {
            strategy: Strategy::Slim,
            scheme,
            ..PipelineConfig::default()
        });
        let ip = ht.instrument(&app.program);
        let analysis = ht.analyze_attack(&ip, app.patching_input(), &app.reference);
        let report = incident_report(&ip, &analysis, "bc overflow");
        let decoded = report.patches.iter().all(|p| p.call_chain.is_some());
        (report.to_string(), decoded)
    }

    #[test]
    fn the_precise_scheme_names_the_culprit_chain() {
        let (text, decoded) = analyze(Scheme::Additive);
        assert!(decoded, "{text}");
        assert!(text.contains("more_arrays"), "{text}");
        assert!(text.contains("main →"), "{text}");
        assert!(text.contains("overflow"), "{text}");
    }

    #[test]
    fn pcc_reports_without_chains() {
        let (text, decoded) = analyze(Scheme::Pcc);
        assert!(!decoded);
        assert!(text.contains("not decodable"), "{text}");
        assert!(text.contains("incident: bc overflow"));
    }
}

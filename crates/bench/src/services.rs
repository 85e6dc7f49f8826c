//! §VIII-B2 — service-program throughput (Nginx, MySQL).
//!
//! Paper: Nginx loses ~4.2% throughput under the full system; MySQL shows
//! no observable overhead (its per-request work dwarfs allocation); memory
//! overhead negligible. What must reproduce: both services keep serving
//! under the defense, Nginx's overhead exceeds MySQL's, and both stay
//! small.

use crate::time_median;
use heaptherapy_core::{HeapTherapy, PipelineConfig};
use ht_simprog::service::{build_service_workload, ServiceKind};

/// Paper-reported throughput overheads, percent.
pub const PAPER: [(&str, f64); 2] = [("nginx", 4.2), ("mysql", 0.0)];

/// One service's measurements.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Service name.
    pub service: &'static str,
    /// Requests per second, native.
    pub native_rps: f64,
    /// Requests per second under the deployed system (interposition +
    /// metadata + patch-table probe; the paper's service measurement).
    pub defended_rps: f64,
    /// Throughput overhead percent.
    pub overhead_pct: f64,
    /// Peak RSS proxy overhead percent.
    pub mem_pct: f64,
}

/// Regenerates the service-throughput comparison.
pub fn rows(requests: u64, samples: usize) -> Vec<ServiceRow> {
    let ht = HeapTherapy::new(PipelineConfig::default());
    [ServiceKind::Nginx, ServiceKind::Mysql]
        .into_iter()
        .map(|kind| {
            let w = build_service_workload(kind);
            let ip = ht.instrument(&w.program);
            let input = w.input_for_requests(requests);
            // The deployed system: defenses loaded, table probed on every
            // allocation, but no patch on the per-request hot path (the
            // paper's vulnerable contexts are rare, not once-per-request).
            let patches: Vec<ht_patch::Patch> = Vec::new();

            let t_native = time_median(samples, || {
                ht.run_native(&ip, &input);
            });
            let t_defended = time_median(samples, || {
                ht.run_protected(&ip, &input, &patches);
            });

            let native_mem = {
                let mut i = ht_simprog::Interpreter::new(
                    &w.program,
                    &ip.plan,
                    ht_simprog::PlainBackend::new(),
                );
                i.run(&input);
                ht_simprog::HeapBackend::mem_stats(i.backend())
                    .unwrap()
                    .0
                    .peak_rss_bytes
            };
            let defended_mem = ht.run_protected(&ip, &input, &patches).mem.peak_rss_bytes;

            ServiceRow {
                service: kind.name(),
                native_rps: requests as f64 / t_native.max(1e-12),
                defended_rps: requests as f64 / t_defended.max(1e-12),
                overhead_pct: crate::overhead_pct(t_native, t_defended),
                mem_pct: crate::overhead_pct(native_mem as f64, defended_mem as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn services_survive_the_defense() {
        let rows = rows(50, 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.native_rps > 0.0 && r.defended_rps > 0.0, "{}", r.service);
            // Memory overhead stays modest (paper: negligible).
            assert!(r.mem_pct < 150.0, "{}: {}", r.service, r.mem_pct);
        }
    }
}

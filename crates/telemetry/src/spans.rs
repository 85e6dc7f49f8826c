//! Phase-scoped wall-clock spans for the offline pipeline.
//!
//! The offline side (instrument → analyze → encode → patch-gen) is batch
//! work; one `Timeline` per run records how long each phase took so the
//! `reproduce` tables can print per-phase wall-clock next to their rows.

use ht_jsonio::{obj, Json, ToJson};
use std::time::Instant;

/// One named phase and its duration in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (e.g. `"analyze"`).
    pub name: String,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
}

impl ToJson for PhaseSpan {
    fn to_json(&self) -> Json {
        obj([
            ("phase", Json::Str(self.name.clone())),
            ("micros", Json::U64(self.micros)),
        ])
    }
}

/// An ordered collection of phase spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    spans: Vec<PhaseSpan>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, recording its wall-clock under `name`. Phases nest by
    /// calling convention only — a span covers exactly the closure, and a
    /// phase timed again adds into its one span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.push(name, t0.elapsed().as_micros() as u64);
        out
    }

    /// Adds a pre-measured span: into the span named `name` if there is
    /// one, else as a new span at the end.
    pub fn push(&mut self, name: &str, micros: u64) {
        match self.spans.iter_mut().find(|s| s.name == name) {
            Some(span) => span.micros += micros,
            None => self.spans.push(PhaseSpan {
                name: name.to_string(),
                micros,
            }),
        }
    }

    /// The recorded spans, in execution order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Sum of all span durations.
    pub fn total_micros(&self) -> u64 {
        self.spans.iter().map(|s| s.micros).sum()
    }

    /// The span named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&PhaseSpan> {
        self.spans.iter().find(|s| s.name == name)
    }
}

impl ToJson for Timeline {
    fn to_json(&self) -> Json {
        Json::Arr(self.spans.iter().map(ToJson::to_json).collect())
    }
}

impl std::fmt::Display for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.spans {
            writeln!(f, "{:<12} {:>10.3} ms", s.name, s.micros as f64 / 1000.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_ordered_spans() {
        let mut tl = Timeline::new();
        let x = tl.time("analyze", || 41 + 1);
        assert_eq!(x, 42);
        tl.time("encode", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert_eq!(tl.spans().len(), 2);
        assert_eq!(tl.spans()[0].name, "analyze");
        assert!(tl.get("encode").unwrap().micros >= 2_000);
        assert!(tl.get("missing").is_none());
        assert!(tl.total_micros() >= tl.get("encode").unwrap().micros);
    }

    #[test]
    fn a_repeated_phase_adds_into_its_span() {
        let mut tl = Timeline::new();
        tl.push("analyze", 100);
        tl.push("protected", 20);
        tl.push("analyze", 50);
        let names: Vec<&str> = tl.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["analyze", "protected"]);
        assert_eq!(tl.get("analyze").unwrap().micros, 150);
        assert_eq!(tl.total_micros(), 170);
    }

    #[test]
    fn json_and_display() {
        let mut tl = Timeline::new();
        tl.push("patch-gen", 1500);
        let j = tl.to_json();
        let arr = j.as_arr().unwrap();
        assert_eq!(
            arr[0].get("phase").and_then(Json::as_str),
            Some("patch-gen")
        );
        assert_eq!(arr[0].get("micros").and_then(Json::as_u64), Some(1500));
        assert!(tl.to_string().contains("patch-gen"));
        assert!(tl.to_string().contains("1.500 ms"));
    }
}

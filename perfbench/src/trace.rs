//! Spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and op id. Spans stay in memory
//! and are written out when the run ends. A layer's self time is its span
//! minus the time its child spans cover.

use ht_jsonio::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: a top-level span.
const ROOT: u32 = u32::MAX;

/// The op id of spans that belong to no measured op (ladders, reference
/// runs).
pub const NO_OP: u64 = u64::MAX;

/// The root span of one measured op.
pub const OP: &str = "op";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: u64,
}

/// A per-thread span recorder. When off, [`Tracer::span`] only calls its
/// closure.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub op: u64,
    /// Spans kept at most; once full, spans are no longer recorded.
    limit: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
            open: Vec::new(),
            op: NO_OP,
            limit: usize::MAX,
        }
    }

    /// A tracer that keeps at most `limit` spans, in memory reserved up
    /// front so that recording never copies the buffer mid-run.
    pub fn bounded(limit: usize) -> Self {
        let mut t = Self::new(false);
        t.spans.reserve_exact(limit);
        t.limit = limit;
        t
    }

    /// Opens a span named `name` under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on || self.spans.len() >= self.limit {
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(idx);
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            op: self.op,
        });
        self.spans[idx as usize].start = ticks();
        Some(idx)
    }

    /// Closes the span [`Tracer::begin`] opened.
    #[inline]
    pub fn end(&mut self, idx: Option<u32>) {
        if let Some(i) = idx {
            self.spans[i as usize].end = ticks();
            self.open.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let i = self.begin(name);
        let r = f(self);
        self.end(i);
        r
    }

    /// Runs `f` as measured op `op`: a root [`OP`] span when tracing.
    #[inline]
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = op;
        let r = self.span(OP, f);
        self.op = NO_OP;
        r
    }
}

/// The span clock, in ticks: the CPU's time-stamp counter where there is
/// one (an instruction, no memory access, so a cold read stays cheap),
/// else a monotonic clock in ns.
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC has no preconditions on x86_64.
    return unsafe { core::arch::x86_64::_rdtsc() };
    #[cfg(not(target_arch = "x86_64"))]
    {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// What a span costs the measurement, calibrated on empty spans, in ns:
/// `inner` is what a span adds to its own duration, `outer` what a child
/// span adds to its parent's. `ns_per_tick` converts [`ticks`].
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    pub inner: f64,
    pub outer: f64,
    pub ns_per_tick: f64,
}

/// Calibrates [`TimerCost`]: medians over many empty spans, and over
/// parents holding eight empty children.
pub fn timer_cost() -> TimerCost {
    let med = |mut d: Vec<f64>| {
        d.sort_by(f64::total_cmp);
        d[d.len() / 2]
    };
    let (t0, k0) = (Instant::now(), ticks());
    std::thread::sleep(std::time::Duration::from_millis(20));
    let ns_per_tick = t0.elapsed().as_nanos() as f64 / (ticks() - k0) as f64;
    let mut t = Tracer::new(true);
    let dur = |s: &Span| (s.end - s.start) as f64 * ns_per_tick;
    let inner = med((0..20_000)
        .map(|_| {
            t.span("timer", |_| ());
            dur(t.spans.last().expect("span recorded"))
        })
        .collect());
    let outer = med((0..5_000)
        .map(|_| {
            let i = t.spans.len();
            t.span("timer", |t| {
                for _ in 0..8 {
                    t.span("timer", |_| ());
                }
            });
            (dur(&t.spans[i]) - inner) / 8.0
        })
        .collect());
    TimerCost {
        inner,
        outer,
        ns_per_tick,
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

/// Everything the traced run recorded, merged across threads.
#[derive(Debug, Default)]
pub struct Ledger {
    pub by_name: BTreeMap<&'static str, Agg>,
    /// Measured ops seen and the summed corrected duration of their root
    /// spans: the op time the layers account for.
    pub ops: u64,
    pub op_ns: f64,
    /// The same ops' raw durations, timer reads included.
    pub op_raw_ns: f64,
}

impl Ledger {
    /// Adds one thread's spans, each corrected for what its own and its
    /// descendants' timer reads cost, so per-call figures are not mostly
    /// clock reads.
    pub fn add(&mut self, spans: &[Span], cost: TimerCost) {
        // Children follow their parent, so one backward pass sees every
        // child before its parent.
        let mut desc = vec![0u64; spans.len()];
        let mut corrected = vec![0f64; spans.len()];
        let mut child_ns = vec![0f64; spans.len()];
        for (i, s) in spans.iter().enumerate().rev() {
            corrected[i] = ((s.end - s.start) as f64 * cost.ns_per_tick
                - cost.inner
                - desc[i] as f64 * cost.outer)
                .max(0.0);
            if s.parent != ROOT {
                desc[s.parent as usize] += desc[i] + 1;
                child_ns[s.parent as usize] += corrected[i];
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let a = self.by_name.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += corrected[i];
            a.self_ns += (corrected[i] - child_ns[i]).max(0.0);
            if s.name == OP && s.op != NO_OP {
                self.ops += 1;
                self.op_ns += corrected[i];
                self.op_raw_ns += (s.end - s.start) as f64 * cost.ns_per_tick;
            }
        }
    }

    pub fn get(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean corrected duration of one `name` call, in ns (0 when no call).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let a = self.get(name);
        if a.calls == 0 {
            0.0
        } else {
            a.total_ns / a.calls as f64
        }
    }

    /// The per-name summary written to the trace file.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.by_name
                .iter()
                .map(|(name, a)| {
                    (
                        name.to_string(),
                        obj([
                            ("calls", Json::U64(a.calls)),
                            ("total_ns", Json::U64(a.total_ns as u64)),
                            ("self_ns", Json::U64(a.self_ns as u64)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The raw spans of one thread as arrays `[name, start, end, parent, op]`,
/// times in [`ticks`].
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_string()),
                    Json::U64(s.start),
                    Json::U64(s.end),
                    if s.parent == ROOT {
                        Json::Null
                    } else {
                        Json::U64(u64::from(s.parent))
                    },
                    if s.op == NO_OP {
                        Json::Null
                    } else {
                        Json::U64(s.op)
                    },
                ])
            })
            .collect(),
    )
}

//! Latency summaries and the process's peak resident set.

/// The `q`-quantile (0..=1) of sorted `v`, by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A stretch of consecutive ops on one thread: how many, how long they
/// took, each op's latency in ns, and whether they were traced.
#[derive(Debug, Default)]
pub struct Chunk {
    pub traced: bool,
    pub ops: u64,
    pub secs: f64,
    pub lat_ns: Vec<f64>,
    /// Seconds the reference work run next to the chunk took.
    pub ref_secs: f64,
}

/// The median of sorted `v`, for samples that come in rounds of `round`
/// ops with one op of each kind per round (1: plain median). With every
/// kind equally often, the plain median sits exactly on the boundary
/// between two kinds' costs and jumps between them from run to run; this
/// is the mean of the samples within half a kind's share of it instead.
pub fn central_median(v: &[f64], round: usize) -> f64 {
    if round <= 1 || v.len() < 2 * round {
        return quantile(v, 0.5);
    }
    let half = v.len() / (2 * round);
    let mid = &v[v.len() / 2 - half..v.len() / 2 + half];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The end-to-end figures of the traced or the untraced chunks of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Mean op latency as measured, unscaled.
    pub raw_mean_ns: f64,
    pub samples: usize,
    pub beyond_p99: usize,
}

/// Summarizes the traced or the untraced chunks of a run, with every
/// chunk's times scaled to the speed the machine had while it ran.
///
/// The machine this benchmark was tuned on is a shared two-vCPU VM whose
/// memory system swings between a fast and a ~2x slower state for seconds
/// to minutes at a time, with no steal time to show for it. Each chunk is
/// therefore followed by reference work of the same kind and size that
/// the change under test does not touch (the same op stream on `System`,
/// or native runs of the same programs and inputs), and its times are
/// scaled by `ref_ns_per_op * ops / reference time`: what they would have
/// been had the reference run at `ref_ns_per_op`, its speed on the quiet
/// reference box. Throughput sums the threads' median chunk rates; the
/// latencies pool every chunk's (`round`: see [`central_median`]).
pub fn summarize(
    threads: &[Vec<Chunk>],
    traced: bool,
    ref_ns_per_op: f64,
    round: usize,
) -> Summary {
    let mut s = Summary::default();
    let mut lat: Vec<f64> = Vec::new();
    let mut raw_ns = 0.0;
    for chunks in threads {
        let mut rates = Vec::new();
        for c in chunks.iter().filter(|c| c.traced == traced) {
            let scale = ref_ns_per_op * c.ops as f64 / (c.ref_secs * 1e9).max(1.0);
            rates.push(c.ops as f64 / (c.secs * scale).max(1e-12));
            lat.extend(c.lat_ns.iter().map(|l| l * scale));
            raw_ns += c.lat_ns.iter().sum::<f64>();
        }
        s.ops_per_s += median(rates);
    }
    s.raw_mean_ns = raw_ns / lat.len().max(1) as f64;
    lat.sort_by(f64::total_cmp);
    s.p50_ns = central_median(&lat, round);
    s.p99_ns = quantile(&lat, 0.99);
    s.samples = lat.len();
    s.beyond_p99 = lat.len() - lat.partition_point(|&x| x <= s.p99_ns);
    s
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the peak resident set to the current one (Linux `clear_refs`).
/// Returns whether the reset took.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

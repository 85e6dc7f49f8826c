//! Seeded input generation. One `--seed` drives every op stream: sizes,
//! API mix, free order, which allocations enter which patched site, the app
//! order of the triage workload and the model draw of the SPEC workload.

use ht_patch::VulnFlags;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (thread, phase).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// A seeded permutation of `0..n`.
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// The allocator entry point an op uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    Malloc,
    Zeroed,
    Realloc,
}

/// Buffers each worker thread keeps live (16 Ki, larger than L2 at the
/// ~700 B mean size).
pub const LIVE: usize = 16 * 1024;
/// One allocation in `PATCHED_EVERY` enters a patched site.
pub const PATCHED_EVERY: u64 = 64;
/// The five patched call sites.
pub const PATCHED_SITES: [u64; 5] = [0xA1, 0xA2, 0xA3, 0xA4, 0xA5];

/// What patched site `k` is patched for: OVERFLOW, OVERFLOW,
/// USE_AFTER_FREE, UNINIT_READ and OVERFLOW|UNINIT_READ.
pub fn site_vuln(k: usize) -> VulnFlags {
    VulnFlags::from_bits_truncate([0b001, 0b001, 0b010, 0b100, 0b101][k])
}

/// Unpatched call sites, entered at the same nesting depth as the patched
/// ones so every op pays the same CCID update.
pub const PLAIN_SITES: [u64; 5] = [0xB1, 0xB2, 0xB3, 0xB4, 0xB5];

/// One op of the real-memory workloads: free the buffer in `slot`, then
/// allocate a new one there (for `Realloc`, one call does both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub slot: usize,
    pub api: Api,
    pub size: usize,
    /// Index into [`PATCHED_SITES`] when the allocation enters a patched
    /// site.
    pub patched: Option<usize>,
    /// The site constant the op enters.
    pub site: u64,
}

/// Per-class op counts, the generator's own ledger of what it asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Classes {
    pub ops: u64,
    pub malloc: u64,
    pub zeroed: u64,
    pub realloc: u64,
    /// Allocations that entered a patched site, per site.
    pub patched: [u64; 5],
}

impl Classes {
    pub fn add(&mut self, op: &Op) {
        self.ops += 1;
        match op.api {
            Api::Malloc => self.malloc += 1,
            Api::Zeroed => self.zeroed += 1,
            Api::Realloc => self.realloc += 1,
        }
        if let Some(k) = op.patched {
            self.patched[k] += 1;
        }
    }

    pub fn merge(&mut self, o: &Classes) {
        self.ops += o.ops;
        self.malloc += o.malloc;
        self.zeroed += o.zeroed;
        self.realloc += o.realloc;
        for (a, b) in self.patched.iter_mut().zip(o.patched) {
            *a += b;
        }
    }

    fn with(&self, bit: VulnFlags) -> u64 {
        (0..5)
            .filter(|&k| site_vuln(k).contains(bit))
            .map(|k| self.patched[k])
            .sum()
    }

    /// Patch-table hits the allocator must count for these ops.
    pub fn table_hits(&self) -> u64 {
        self.patched.iter().sum()
    }

    /// Guard pages the allocator must install (every OVERFLOW site).
    pub fn guard_pages(&self) -> u64 {
        self.with(VulnFlags::OVERFLOW)
    }

    /// Zero fills the allocator must count (every UNINIT_READ site).
    pub fn zero_fills(&self) -> u64 {
        self.with(VulnFlags::UNINIT_READ)
    }

    /// Buffers the quarantine must receive once all are freed.
    pub fn quarantined(&self) -> u64 {
        self.with(VulnFlags::USE_AFTER_FREE)
    }
}

/// The real-memory op stream of one worker thread.
#[derive(Debug, Clone)]
pub struct AllocStream {
    rng: Rng,
    patching: bool,
    pub classes: Classes,
    /// Order-sensitive fingerprint of every op drawn so far.
    pub fingerprint: u64,
}

impl AllocStream {
    /// Thread `thread`'s stream for `seed`. Without `patching`, the stream
    /// never enters a patched site (but draws the same random numbers).
    pub fn new(seed: u64, thread: u64, patching: bool) -> Self {
        Self {
            rng: Rng::new(seed, 0x5EED_0000 + thread),
            patching,
            classes: Classes::default(),
            fingerprint: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Sizes are log-uniform from 16 B to 4 KiB.
    fn size(&mut self) -> usize {
        let u = self.rng.below(1 << 20) as f64 / f64::from(1u32 << 20);
        (16.0 * 256f64.powf(u)) as usize
    }

    /// The next op: API mix 80 % malloc, 10 % zeroed, 10 % realloc; one
    /// allocation in 64 enters a patched site, always through malloc (the
    /// patches are malloc patches), so malloc ops are patched at 1.25/64.
    pub fn next(&mut self) -> Op {
        self.draw(None)
    }

    /// The op that fills empty `slot` during set-up: a malloc, under the
    /// same patched-site rule.
    pub fn fill(&mut self, slot: usize) -> Op {
        self.draw(Some(slot))
    }

    fn draw(&mut self, fill: Option<usize>) -> Op {
        let slot = self.rng.below(LIVE as u64) as usize;
        let api = match (self.rng.below(10), fill) {
            (_, Some(_)) => Api::Malloc,
            (0, None) => Api::Zeroed,
            (1, None) => Api::Realloc,
            _ => Api::Malloc,
        };
        let slot = fill.unwrap_or(slot);
        let size = self.size();
        let roll = self.rng.below(PATCHED_EVERY * 8);
        let pick = self.rng.below(5) as usize;
        let patched = (self.patching && api == Api::Malloc && roll < 10).then_some(pick);
        let site = match patched {
            Some(k) => PATCHED_SITES[k],
            None => PLAIN_SITES[pick],
        };
        let op = Op {
            slot,
            api,
            size,
            patched,
            site,
        };
        self.classes.add(&op);
        for v in [slot as u64, api as u64, size as u64, site] {
            self.fingerprint = (self.fingerprint ^ v).wrapping_mul(0x0100_0000_01B3);
        }
        op
    }
}

/// Checks the generator's contract for `seed`: the same seed gives the same
/// stream, another seed a different stream with the same class shares.
/// Returns the failed checks.
pub fn check_alloc_stream(seed: u64, n: u64) -> Vec<String> {
    let draw = |seed: u64| {
        let mut s = AllocStream::new(seed, 0, true);
        for _ in 0..n {
            s.next();
        }
        (s.fingerprint, s.classes)
    };
    let (a, b, c) = (draw(seed), draw(seed), draw(seed ^ 0x9E37_79B9));
    let mut bad = Vec::new();
    if a != b {
        bad.push("same seed gave a different alloc op stream".to_string());
    }
    if a.0 == c.0 {
        bad.push("another seed gave the same alloc op stream".to_string());
    }
    for (_, cl) in [a, c] {
        let share = |x: u64| x as f64 / cl.ops as f64;
        let near = |got: f64, want: f64| (got - want).abs() <= 0.1 * want;
        if !near(share(cl.table_hits()), 1.0 / PATCHED_EVERY as f64)
            || !near(share(cl.malloc), 0.8)
            || !near(share(cl.zeroed), 0.1)
            || !near(share(cl.realloc), 0.1)
        {
            bad.push(format!("alloc op stream class shares off: {cl:?}"));
        }
    }
    bad
}

//! Modeled vulnerable programs — the paper's Table II effectiveness suite.
//!
//! Each function returns a [`VulnApp`]: a modeled program reproducing the
//! *heap behaviour* of a real CVE (buffer sizes, vulnerable calling context,
//! attack-input parameterization), together with benign and attack inputs and
//! the ground-truth vulnerability class.
//!
//! | model | vulnerability | reproduces |
//! |---|---|---|
//! | [`heartbleed`] | UR & overflow (overread) | CVE-2014-0160 |
//! | [`bc`] | overflow (overwrite) | BugBench bc-1.06 |
//! | [`ghostxps`] | uninitialized read | CVE-2017-9740 |
//! | [`optipng`] | use after free | CVE-2015-7801 |
//! | [`tiff`] | overflow via `realloc` | CVE-2017-9935 |
//! | [`wavpack`] | use after free | CVE-2018-7253 |
//! | [`libming`] | overflow in `calloc` buffer | CVE-2018-7877 |
//! | [`samate::suite`] | 23 mixed cases | NIST SAMATE dataset |
//!
//! Attack success is judged from observable effects: bytes that reach the
//! attacker ([`RunReport::leaked`]) containing either the victim's secret or
//! the attacker's injected marker.
//!
//! [`RunReport::leaked`]: ht_simprog::RunReport

#![forbid(unsafe_code)]

pub mod samate;

mod apps;

pub use apps::{bc, ghostxps, heartbleed, libming, multi_context_overflow, optipng, tiff, wavpack};

use ht_patch::VulnFlags;
use ht_simprog::{Program, RunReport};

/// The byte the victim's secret data is filled with (`'S'`).
pub const SECRET_BYTE: u8 = 0x53;
/// The byte attacker-controlled payloads are filled with (`'A'`).
pub const ATTACK_BYTE: u8 = 0x41;
/// The byte attacker-sprayed heap data is filled with (`'f'`).
pub const SPRAY_BYTE: u8 = 0x66;

/// A modeled vulnerable application.
#[derive(Debug)]
pub struct VulnApp {
    /// Short model name (`"heartbleed"`, `"bc-1.06"`, ...).
    pub name: String,
    /// The CVE or dataset reference the model reproduces.
    pub reference: String,
    /// Ground-truth vulnerability class(es).
    pub expected: VulnFlags,
    /// The modeled program.
    pub program: Program,
    /// Inputs a legitimate user would send.
    pub benign_inputs: Vec<Vec<u64>>,
    /// Inputs that exploit the vulnerability. The first is used for patch
    /// generation; the rest verify the deployed patch against *different*
    /// attack instances (as the paper does for Heartbleed).
    pub attack_inputs: Vec<Vec<u64>>,
    /// Byte patterns whose appearance in the leak stream means the attack
    /// achieved its goal (stolen secret or successful hijack/corruption).
    pub success_markers: Vec<Vec<u8>>,
}

impl VulnApp {
    /// Judges whether a run's observable effects mean the attack succeeded:
    /// some success marker appears in the bytes the run leaked.
    ///
    /// How the run ended does not matter. A run that crashes before any
    /// marker leaks is a failed attack: turning an exploit into a clean
    /// denial of service is exactly what the paper's defenses do. A marker
    /// that leaked before the fault still counts, since those bytes
    /// already reached the attacker.
    pub fn attack_succeeded(&self, report: &RunReport) -> bool {
        self.success_markers
            .iter()
            .any(|m| contains_subslice(&report.leaked, m))
    }

    /// The attack input used for offline patch generation.
    pub fn patching_input(&self) -> &[u64] {
        &self.attack_inputs[0]
    }
}

/// Whether `needle` occurs in `haystack` (an empty needle never does).
///
/// Leak streams reach 64 KiB (Heartbleed's native leak), so candidates are
/// found 8 bytes per step: a SWAR zero-byte test on `word ^ first-byte
/// pattern` flags every position holding the needle's first byte (its
/// lowest flag is exact; higher flags may be false positives, never
/// misses), and each flag is confirmed with one slice compare.
pub(crate) fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    const L: u64 = 0x0101_0101_0101_0101;
    const H: u64 = 0x8080_8080_8080_8080;
    let Some(&first) = needle.first() else {
        return false;
    };
    let Some(last_start) = haystack.len().checked_sub(needle.len()) else {
        return false;
    };
    let matches_at = |i: usize| haystack[i..i + needle.len()] == *needle;
    let starts = &haystack[..=last_start];
    let pat = L * u64::from(first);
    let mut chunks = starts.chunks_exact(8);
    for (k, c) in chunks.by_ref().enumerate() {
        let v = u64::from_le_bytes(c.try_into().unwrap()) ^ pat;
        let mut z = v.wrapping_sub(L) & !v & H;
        while z != 0 {
            if matches_at(k * 8 + (z.trailing_zeros() / 8) as usize) {
                return true;
            }
            z &= z - 1;
        }
    }
    let off = starts.len() - chunks.remainder().len();
    (off..starts.len()).any(|i| haystack[i] == first && matches_at(i))
}

/// Every Table II model: the seven CVE programs plus the 23 SAMATE cases.
pub fn table2_suite() -> Vec<VulnApp> {
    let mut v = vec![
        heartbleed(),
        bc(),
        ghostxps(),
        optipng(),
        tiff(),
        wavpack(),
        libming(),
    ];
    v.extend(samate::suite());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: compare the needle against every window.
    fn naive_contains(haystack: &[u8], needle: &[u8]) -> bool {
        !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn subslice_search() {
        assert!(contains_subslice(b"hello world", b"lo wo"));
        assert!(!contains_subslice(b"hello", b"world"));
        assert!(!contains_subslice(b"hello", b""));
        assert!(!contains_subslice(b"", b""));
        assert!(contains_subslice(b"abc", b"abc"));
        assert!(!contains_subslice(b"ab", b"abc"));
    }

    #[test]
    fn heartbleed_shaped_leak() {
        // A protected attack's leak: zeroed bytes up to the guard page, with
        // the secret marker in the very last window or not at all.
        let marker = [SECRET_BYTE; 16];
        let mut leak = vec![0u8; 36_856];
        assert!(!contains_subslice(&leak, &marker));
        assert!(!naive_contains(&leak, &marker));
        leak[36_856 - 16..].copy_from_slice(&marker);
        assert!(contains_subslice(&leak, &marker));
        assert!(naive_contains(&leak, &marker));
        // One byte short of the marker at the end.
        leak[36_856 - 16] = 0;
        assert!(!contains_subslice(&leak, &marker));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Haystacks over a 1–3 letter alphabet (so partial matches abound);
        /// needles either drawn freely (0–24 B, often longer than the
        /// haystack) or cut out of the haystack at offset 0, ending at its
        /// very end, or anywhere (straddling 8-byte word boundaries).
        #[test]
        fn word_scan_matches_naive_search(
            letters in 1u8..4,
            hay in proptest::collection::vec(any::<u8>(), 0..201),
            free in proptest::collection::vec(any::<u8>(), 0..25),
            cut in (0u8..4, any::<usize>(), 0usize..25),
        ) {
            let letter = |b: &u8| b'a' + b % letters;
            let hay: Vec<u8> = hay.iter().map(letter).collect();
            let (place, at, len) = cut;
            let len = len.min(hay.len());
            let start = match place {
                0 => 0,
                1 => hay.len() - len,
                _ => at % (hay.len() - len + 1),
            };
            let needle: Vec<u8> = match place {
                3 => free.iter().map(letter).collect(),
                _ => hay[start..start + len].to_vec(),
            };
            prop_assert_eq!(
                contains_subslice(&hay, &needle),
                naive_contains(&hay, &needle),
                "hay {:?} needle {:?}",
                hay,
                needle
            );
        }
    }

    #[test]
    fn suite_is_thirty() {
        let suite = table2_suite();
        assert_eq!(suite.len(), 30, "7 CVE models + 23 SAMATE cases");
        for app in &suite {
            assert!(!app.attack_inputs.is_empty(), "{}", app.name);
            assert!(!app.benign_inputs.is_empty(), "{}", app.name);
            assert!(!app.success_markers.is_empty(), "{}", app.name);
            assert!(!app.expected.is_empty(), "{}", app.name);
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let suite = table2_suite();
        let mut names: Vec<&str> = suite.iter().map(|a| a.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }
}

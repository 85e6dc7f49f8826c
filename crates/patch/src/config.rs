//! The patch configuration file: the code-less patches the online defense
//! loads at startup.
//!
//! One line-oriented text format, one patch per line —
//! `malloc 0x1f3a OF|UR  # CVE-2014-0160` — matching the paper's Figure 5
//! presentation.

use crate::{AllocFn, Patch, PatchTable, VulnFlags};
use std::collections::BTreeSet;
use std::fmt;

/// Error reading a configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A malformed text line (1-based line number, message).
    Line(usize, String),
    /// More distinct `(FUN, CCID)` keys than a [`PatchTable`] holds.
    TooManyPatches {
        /// Distinct keys in the file.
        distinct: usize,
        /// [`PatchTable::CAPACITY`].
        capacity: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Line(n, msg) => write!(f, "config line {n}: {msg}"),
            ConfigError::TooManyPatches { distinct, capacity } => write!(
                f,
                "config holds {distinct} distinct (FUN, CCID) keys; the patch table holds {capacity}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Renders patches in the line-oriented text format.
pub fn to_config_text(patches: &[Patch]) -> String {
    let mut out = String::from("# HeapTherapy+ patch configuration\n# FUN CCID TYPE [# origin]\n");
    for p in patches {
        out.push_str(&format!("{} {:#x} {}", p.alloc_fn, p.ccid, p.vuln));
        if !p.origin.is_empty() {
            out.push_str(&format!("  # {}", p.origin));
        }
        out.push('\n');
    }
    out
}

/// Parses the line-oriented text format.
///
/// Blank lines and `#` comments are ignored; an inline `# origin` suffix is
/// kept as the patch's provenance.
///
/// # Errors
///
/// [`ConfigError::Line`] with the offending 1-based line number;
/// [`ConfigError::TooManyPatches`] beyond [`PatchTable::CAPACITY`] keys.
pub fn from_config_text(text: &str) -> Result<Vec<Patch>, ConfigError> {
    let mut patches = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let (body, comment) = match raw.find('#') {
            Some(pos) => (&raw[..pos], raw[pos + 1..].trim()),
            None => (raw, ""),
        };
        let body = body.trim();
        if body.is_empty() {
            continue;
        }
        let mut parts = body.split_whitespace();
        let fun = parts
            .next()
            .ok_or_else(|| ConfigError::Line(lineno, "missing FUN".into()))?;
        let ccid = parts
            .next()
            .ok_or_else(|| ConfigError::Line(lineno, "missing CCID".into()))?;
        let vuln = parts
            .next()
            .ok_or_else(|| ConfigError::Line(lineno, "missing TYPE".into()))?;
        if let Some(extra) = parts.next() {
            return Err(ConfigError::Line(lineno, format!("unexpected `{extra}`")));
        }
        let alloc_fn: AllocFn = fun
            .parse()
            .map_err(|e| ConfigError::Line(lineno, format!("{e}")))?;
        let ccid = parse_u64(ccid)
            .ok_or_else(|| ConfigError::Line(lineno, format!("CCID `{ccid}` is not an integer")))?;
        let vuln: VulnFlags = vuln
            .parse()
            .map_err(|e| ConfigError::Line(lineno, format!("{e}")))?;
        let mut p = Patch::new(alloc_fn, ccid, vuln);
        if !comment.is_empty() {
            p = p.with_origin(comment);
        }
        patches.push(p);
    }
    // Refuse a list a `PatchTable` cannot hold, so that no patch is dropped
    // after loading.
    if patches.len() > PatchTable::CAPACITY {
        let distinct = patches
            .iter()
            .map(Patch::key)
            .collect::<BTreeSet<_>>()
            .len();
        if distinct > PatchTable::CAPACITY {
            return Err(ConfigError::TooManyPatches {
                distinct,
                capacity: PatchTable::CAPACITY,
            });
        }
    }
    Ok(patches)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Patch> {
        vec![
            Patch::new(
                AllocFn::Malloc,
                0x1f3a,
                VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ,
            )
            .with_origin("CVE-2014-0160"),
            Patch::new(AllocFn::Memalign, 42, VulnFlags::USE_AFTER_FREE),
            Patch::new(AllocFn::Calloc, u64::MAX, VulnFlags::ALL),
        ]
    }

    #[test]
    fn text_round_trip() {
        let patches = sample();
        let text = to_config_text(&patches);
        let back = from_config_text(&text).unwrap();
        assert_eq!(patches, back);
    }

    #[test]
    fn text_accepts_decimal_and_hex_ccids() {
        let p = from_config_text("malloc 255 OF\ncalloc 0xff UR\n").unwrap();
        assert_eq!(p[0].ccid, 255);
        assert_eq!(p[1].ccid, 255);
    }

    #[test]
    fn text_skips_blanks_and_comments() {
        let p = from_config_text("\n# all comments\n\n  \nmalloc 1 OF\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn text_errors_carry_line_numbers() {
        let err = from_config_text("malloc 1 OF\nbogus 2 OF\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::Line(2, "unrecognized token `bogus`".into())
        );
        let err = from_config_text("malloc zzz OF").unwrap_err();
        assert!(matches!(err, ConfigError::Line(1, _)));
        let err = from_config_text("malloc 1 OF extra").unwrap_err();
        assert!(matches!(err, ConfigError::Line(1, _)));
        let err = from_config_text("malloc 1").unwrap_err();
        assert!(matches!(err, ConfigError::Line(1, _)));
    }

    #[test]
    fn a_config_takes_a_full_table_and_refuses_one_more_key() {
        let keys = |n: u64| -> Vec<Patch> {
            // Every key twice: duplicates merge, so only distinct keys count.
            (0..2 * n)
                .map(|i| Patch::new(AllocFn::Malloc, i % n, VulnFlags::OVERFLOW))
                .collect()
        };
        let cap = PatchTable::CAPACITY as u64;
        let full = keys(cap);
        assert_eq!(from_config_text(&to_config_text(&full)).unwrap(), full);
        let over = keys(cap + 1);
        let refused = Err(ConfigError::TooManyPatches {
            distinct: 513,
            capacity: 512,
        });
        assert_eq!(from_config_text(&to_config_text(&over)), refused);
    }

    #[test]
    fn multi_type_patch_parses() {
        let p = from_config_text("malloc 7 OF|UAF|UR").unwrap();
        assert_eq!(p[0].vuln, VulnFlags::ALL);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_patch() -> impl Strategy<Value = Patch> {
            (0usize..4, any::<u64>(), 1u8..8).prop_map(|(f, ccid, bits)| {
                Patch::new(AllocFn::ALL[f], ccid, VulnFlags::from_bits_truncate(bits))
            })
        }

        proptest! {
            #[test]
            fn any_patch_list_round_trips_text(patches in proptest::collection::vec(arb_patch(), 0..20)) {
                let text = to_config_text(&patches);
                prop_assert_eq!(from_config_text(&text).unwrap(), patches);
            }
        }
    }
}

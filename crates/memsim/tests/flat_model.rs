//! `AddressSpace` against a flat byte model: random sequences of every call
//! that maps, protects or stores, over one to three small mappings, must
//! leave the same bytes and the same statistics as a model that stores one
//! byte at a time and knows nothing of pages that read zero.
//!
//! The zero fill skips a page that still reads zero, so a store that forgets
//! to clear that mark leaves a stale byte behind the next zero fill; the
//! byte comparison after every step catches it. The statistics pin the
//! dirty rule: a page is resident from its first store or fill, however
//! that fill was served.

use ht_memsim::{align_up, Addr, AddressSpace, FaultKind, MemFault, Perm, SpaceStats, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Where an access starts: the mapping (modulo how many exist) and the
/// offset from its base, which may run past its end into the unmapped gap.
type Loc = (usize, u64);

#[derive(Debug, Clone)]
enum Op {
    Map(u64, Perm),
    Protect(Loc, u64, Perm),
    Write(Loc, u64, u8),
    Fill(Loc, u64, u8),
    WriteRaw(Loc, u64, u8),
    WriteU64Raw(Loc, u64),
    FillRaw(Loc, u64, u8),
    CopyRaw(Loc, Loc, u64),
}

fn perm() -> impl Strategy<Value = Perm> {
    prop_oneof![Just(Perm::None), Just(Perm::Read), Just(Perm::ReadWrite)]
}

/// Page starts, page ends and anything between, on the three pages a
/// mapping can have and the gap page after it.
fn loc() -> impl Strategy<Value = Loc> {
    let within = prop_oneof![Just(0u64), 0..PAGE_SIZE, (PAGE_SIZE - 12)..PAGE_SIZE];
    (0usize..3, 0u64..4, within).prop_map(|(m, page, off)| (m, page * PAGE_SIZE + off))
}

/// Short runs, exactly a page, and runs across one or two page boundaries.
fn len() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..80,
        Just(PAGE_SIZE),
        (PAGE_SIZE - 16)..(2 * PAGE_SIZE + 16)
    ]
}

/// Zero half the time, so zero fills over pages in every state are common.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), any::<u8>()]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4, perm()).prop_map(|(pages, p)| Op::Map(pages, p)),
        (loc(), len(), perm()).prop_map(|(at, n, p)| Op::Protect(at, n, p)),
        (loc(), len(), byte()).prop_map(|(at, n, b)| Op::Write(at, n, b)),
        (loc(), len(), byte()).prop_map(|(at, n, b)| Op::Fill(at, n, b)),
        (loc(), len(), byte()).prop_map(|(at, n, b)| Op::WriteRaw(at, n, b)),
        (loc(), any::<u64>()).prop_map(|(at, v)| Op::WriteU64Raw(at, v)),
        // Twice as likely as the others: the call that reads the mark.
        (loc(), len(), byte()).prop_map(|(at, n, b)| Op::FillRaw(at, n, b)),
        (loc(), len(), byte()).prop_map(|(at, n, b)| Op::FillRaw(at, n, b)),
        (loc(), loc(), len()).prop_map(|(src, dst, n)| Op::CopyRaw(src, dst, n)),
    ]
}

/// Distinct bytes for a write of `len` bytes seeded by `byte`.
fn pattern(len: u64, byte: u8) -> Vec<u8> {
    (0..len).map(|i| byte ^ i as u8).collect()
}

struct ModelPage {
    perm: Perm,
    bytes: Vec<u8>,
    dirty: bool,
}

/// Every mapped byte, with its page's permission and dirty bit, and the
/// statistics those give.
#[derive(Default)]
struct Model {
    pages: BTreeMap<u64, ModelPage>,
    stats: SpaceStats,
}

impl Model {
    fn map(&mut self, base: Addr, len: u64, perm: Perm) {
        let len = align_up(len.max(1), PAGE_SIZE);
        for pno in base / PAGE_SIZE..(base + len) / PAGE_SIZE {
            let bytes = vec![0; PAGE_SIZE as usize];
            let page = ModelPage {
                perm,
                bytes,
                dirty: false,
            };
            self.pages.insert(pno, page);
        }
        self.stats.mapped_bytes += len;
        self.stats.maps += 1;
    }

    fn protect(&mut self, addr: Addr, len: u64, perm: Perm) -> Result<(), MemFault> {
        let last = (addr + align_up(len.max(1), PAGE_SIZE) - 1) / PAGE_SIZE;
        let pages = addr / PAGE_SIZE..=last;
        if let Some(pno) = pages.clone().find(|p| !self.pages.contains_key(p)) {
            let kind = FaultKind::Unmapped;
            return Err(MemFault {
                addr: pno * PAGE_SIZE,
                kind,
                completed: 0,
            });
        }
        for pno in pages {
            self.pages.get_mut(&pno).unwrap().perm = perm;
        }
        self.stats.protects += 1;
        Ok(())
    }

    /// The first byte of `[addr, addr+len)` that is not mapped, as a fault.
    fn unmapped(&self, addr: Addr, len: u64) -> Option<MemFault> {
        (0..len)
            .find(|i| !self.pages.contains_key(&((addr + i) / PAGE_SIZE)))
            .map(|i| MemFault {
                addr: addr + i,
                kind: FaultKind::Unmapped,
                completed: i,
            })
    }

    /// Stores `data` one byte at a time up to the first byte that faults;
    /// `checked` honours page permissions as a program's store does.
    fn store(&mut self, addr: Addr, data: &[u8], checked: bool) -> Result<(), MemFault> {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let fault = |kind| MemFault {
                addr: a,
                kind,
                completed: i as u64,
            };
            let page = self
                .pages
                .get_mut(&(a / PAGE_SIZE))
                .ok_or(fault(FaultKind::Unmapped))?;
            if checked && page.perm != Perm::ReadWrite {
                return Err(fault(FaultKind::WriteProtected));
            }
            page.bytes[(a % PAGE_SIZE) as usize] = b;
            if !page.dirty {
                page.dirty = true;
                self.stats.rss_bytes += PAGE_SIZE;
                self.stats.peak_rss_bytes = self.stats.peak_rss_bytes.max(self.stats.rss_bytes);
            }
        }
        Ok(())
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), MemFault> {
        if let Some(f) = self.unmapped(src, len).or_else(|| self.unmapped(dst, len)) {
            return Err(f);
        }
        let data: Vec<u8> = (src..src + len)
            .map(|a| self.pages[&(a / PAGE_SIZE)].bytes[(a % PAGE_SIZE) as usize])
            .collect();
        self.store(dst, &data, false)
    }

    fn bytes(&self, base: Addr, pages: u64) -> Vec<u8> {
        (base / PAGE_SIZE..base / PAGE_SIZE + pages)
            .flat_map(|pno| self.pages[&pno].bytes.iter().copied())
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_store_and_fill_matches_a_flat_byte_model(
        first in 1u64..4,
        ops in proptest::collection::vec(op(), 1..48),
    ) {
        let mut s = AddressSpace::new();
        let mut m = Model::default();
        let mut maps = vec![(s.map(first * PAGE_SIZE, Perm::ReadWrite), first)];
        m.map(maps[0].0, first * PAGE_SIZE, Perm::ReadWrite);
        let addr = |maps: &[(Addr, u64)], (i, off): Loc| maps[i % maps.len()].0 + off;
        for (step, op) in ops.into_iter().enumerate() {
            let (got, want) = match op.clone() {
                Op::Map(pages, p) => {
                    if maps.len() < 3 {
                        let base = s.map(pages * PAGE_SIZE, p);
                        m.map(base, pages * PAGE_SIZE, p);
                        maps.push((base, pages));
                    }
                    (Ok(()), Ok(()))
                }
                Op::Protect(at, n, p) => {
                    let a = addr(&maps, at);
                    (s.protect(a, n, p), m.protect(a, n, p))
                }
                Op::Write(at, n, b) => {
                    let (a, data) = (addr(&maps, at), pattern(n, b));
                    (s.write(a, &data), m.store(a, &data, true))
                }
                Op::Fill(at, n, b) => {
                    let a = addr(&maps, at);
                    (s.fill(a, n, b), m.store(a, &vec![b; n as usize], true))
                }
                Op::WriteRaw(at, n, b) => {
                    let (a, data) = (addr(&maps, at), pattern(n, b));
                    (s.write_raw(a, &data), m.store(a, &data, false))
                }
                Op::WriteU64Raw(at, v) => {
                    let a = addr(&maps, at);
                    (s.write_u64_raw(a, v), m.store(a, &v.to_le_bytes(), false))
                }
                Op::FillRaw(at, n, b) => {
                    let a = addr(&maps, at);
                    (s.fill_raw(a, n, b), m.store(a, &vec![b; n as usize], false))
                }
                Op::CopyRaw(src, dst, n) => {
                    let (src, dst) = (addr(&maps, src), addr(&maps, dst));
                    (s.copy_raw(src, dst, n), m.copy(src, dst, n))
                }
            };
            prop_assert_eq!(got, want, "step {}: {:?}", step, op);
            for &(base, pages) in &maps {
                let mut buf = vec![0xA5; (pages * PAGE_SIZE) as usize];
                s.read_raw(base, &mut buf).unwrap();
                prop_assert!(buf == m.bytes(base, pages), "step {}: {:?} bytes at {:#x}", step, op, base);
            }
            prop_assert_eq!(s.stats(), m.stats, "step {}: {:?}", step, op);
        }
    }
}

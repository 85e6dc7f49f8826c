//! Guarded regions: whole body pages followed by one `PROT_NONE` guard
//! page, and the cache that keeps retired ones mapped for reuse.
//!
//! This module makes the crate's only `mmap`, `mprotect` and `munmap`
//! calls.

use crate::word::PAGE;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Body page counts the guarded-region cache keeps: a retired region whose
/// body spans `1..=REGION_CLASSES` pages goes back to that class.
const REGION_CLASSES: usize = 4;
/// Region bases a class's first array holds: one page of them.
pub(crate) const FIRST_SLOTS: usize = PAGE / std::mem::size_of::<usize>();

/// `mmap`s `len` bytes of private read-write memory. Returns its base, or
/// `None` when the kernel refuses (as it refuses a zero `len`).
fn map_anon(len: usize) -> Option<usize> {
    // SAFETY: a private anonymous mapping at an address the kernel picks
    // (no `MAP_FIXED`) replaces no memory the process already uses.
    let base = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    (base != libc::MAP_FAILED).then_some(base as usize)
}

/// `mmap`s a region of `body` bytes followed by a `PROT_NONE` guard page.
/// Returns its base, or `None` when the kernel refuses (as it refuses a
/// `body` that is not a multiple of [`PAGE`]).
pub(crate) fn map_region(body: usize) -> Option<usize> {
    let total = body.checked_add(PAGE)?;
    let region = map_anon(total)?;
    let guard = (region + body) as *mut libc::c_void;
    // SAFETY: the guard page lies in the mapping just made, which nothing
    // else references yet.
    if unsafe { libc::mprotect(guard, PAGE, libc::PROT_NONE) } != 0 {
        // SAFETY: the mapping was made above and nothing references it.
        unsafe { libc::munmap(region as *mut libc::c_void, total) };
        return None;
    }
    Some(region)
}

/// The stack of one cache class: region bases in an array of `cap` slots
/// with a mapping of its own (none while `cap` is 0), the top at
/// `len - 1`. Always `len <= cap`, and the first `len` slots hold bases.
struct RegionStack {
    bases: *mut usize,
    cap: usize,
    len: usize,
}

// SAFETY: the array `bases` points to belongs to this stack alone and is
// not tied to the thread that mapped it; its class's lock orders all use.
unsafe impl Send for RegionStack {}

impl RegionStack {
    /// Bytes of the array's mapping.
    fn array_len(&self) -> usize {
        self.cap * std::mem::size_of::<usize>()
    }

    /// Doubles the array, the first one holding [`FIRST_SLOTS`] bases:
    /// maps the new one, copies the bases over and unmaps the old one.
    /// Returns `false`, the stack unchanged, when the kernel refuses the
    /// new mapping.
    fn grow(&mut self) -> bool {
        let cap = (2 * self.cap).max(FIRST_SLOTS);
        let Some(bases) = map_anon(cap * std::mem::size_of::<usize>()) else {
            return false;
        };
        let bases = bases as *mut usize;
        if self.cap != 0 {
            // SAFETY: the old array maps `cap` slots, the first `len` of
            // them bases, and the new one, a mapping of its own, twice as
            // many; the old array is unmapped once and replaced below.
            unsafe {
                std::ptr::copy_nonoverlapping(self.bases, bases, self.len);
                libc::munmap(self.bases.cast(), self.array_len());
            }
        }
        self.bases = bases;
        self.cap = cap;
        true
    }
}

/// One cache class: its stack behind a lock of its own.
type RegionClass = Mutex<RegionStack>;

/// Locks `class`, taking a lock poisoned by a panic under it as it is, so
/// no allocator path panics on it.
fn lock(class: &RegionClass) -> MutexGuard<'_, RegionStack> {
    class.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Retired guarded regions, kept mapped with their guard page still
/// `PROT_NONE`, so a guarded allocation that finds one makes no syscall.
///
/// One stack of region base addresses per body page count, each behind
/// its own `std::sync::Mutex`, a futex word on Linux that never allocates.
/// A stack's array has an anonymous mapping of its own: it starts empty,
/// takes one page of bases when first needed and doubles under the class
/// lock when full (map the new array, copy, unmap the old one). So a
/// retired region is always kept, unless that mapping is refused, and the
/// regions a class holds mapped never exceed the peak number of its
/// buffers live or quarantined at once. The arrays live neither in the
/// regions' own bytes nor behind any allocator, so a dangling read of a
/// retired buffer cannot see allocator pointers and growing a stack never
/// re-enters the allocator. A cached region holds its last user's bytes
/// until the allocator zeroes it on reuse. Dropping the cache unmaps
/// every region it holds, then the arrays.
pub(crate) struct RegionCache {
    classes: [RegionClass; REGION_CLASSES],
}

impl RegionCache {
    pub(crate) const fn new() -> Self {
        Self {
            classes: [const {
                Mutex::new(RegionStack {
                    bases: std::ptr::null_mut(),
                    cap: 0,
                    len: 0,
                })
            }; REGION_CLASSES],
        }
    }

    /// The class of regions with a `body`-byte body, if the cache keeps
    /// them.
    fn class(&self, body: usize) -> Option<&RegionClass> {
        self.classes.get((body / PAGE).checked_sub(1)?)
    }

    /// Pops the region with a `body`-byte body retired last, if one is
    /// cached.
    pub(crate) fn take(&self, body: usize) -> Option<usize> {
        let mut st = lock(self.class(body)?);
        st.len = st.len.checked_sub(1)?;
        // SAFETY: the `len` slots below the old top of the array hold bases.
        Some(unsafe { st.bases.add(st.len).read() })
    }

    /// Takes back a region with a `body`-byte body, growing its class's
    /// array when full. Unmaps it when the cache keeps no class for it or
    /// the array cannot grow.
    ///
    /// # Safety
    ///
    /// `region` must come from [`map_region`]`(body)`, be referenced by no
    /// live allocation, and be retired once.
    pub(crate) unsafe fn retire(&self, region: usize, body: usize) {
        if let Some(class) = self.class(body) {
            let mut st = lock(class);
            if st.len < st.cap || st.grow() {
                // SAFETY: slot `len` lies below `cap`, in the array.
                unsafe { st.bases.add(st.len).write(region) };
                st.len += 1;
                return;
            }
        }
        // SAFETY: the caller guarantees the region is a whole `map_region`
        // mapping that nothing references, retired once.
        unsafe { libc::munmap(region as *mut libc::c_void, body + PAGE) };
    }
}

impl Drop for RegionCache {
    fn drop(&mut self) {
        for (pages, class) in (1..).zip(&mut self.classes) {
            let body = pages * PAGE;
            let st = class.get_mut().unwrap_or_else(PoisonError::into_inner);
            // SAFETY: every cached region came from `map_region(body)` and
            // is referenced by no allocation; the array came from
            // `map_anon(st.array_len())`, and nothing uses it after this.
            unsafe {
                for i in 0..st.len {
                    let region = st.bases.add(i).read();
                    libc::munmap(region as *mut libc::c_void, body + PAGE);
                }
                if st.cap != 0 {
                    libc::munmap(st.bases.cast(), st.array_len());
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `(len, cap)` of the class of one-page bodies, and the address and
    /// length of its array's mapping.
    pub(crate) fn first_class(cache: &RegionCache) -> (usize, usize, usize, usize) {
        let st = lock(&cache.classes[0]);
        (st.len, st.cap, st.bases as usize, st.array_len())
    }
}

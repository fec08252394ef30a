//! Counting global allocator: live and peak heap bytes of the program.
//!
//! The benchmark's own bookkeeping (block captures, tick logs, fleet
//! snapshots, checks) runs inside [`bookkeeping`] and is left out of the
//! counts, so the peak is the program's heap alone. Whatever bookkeeping
//! allocates it must also free inside [`bookkeeping`] while a peak is
//! being taken, and the program's own memory is freed outside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Wraps the system allocator and keeps two statistics. Both atomics
/// publish no other data, so `Relaxed` suffices.
pub struct Counting;

/// Signed: bookkeeping that outlives a round is freed outside
/// [`bookkeeping`] and moves the count below the program's heap by a
/// constant, which a peak taken relative to [`live`] cancels.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    // During thread teardown the flag may be gone; count then.
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    if counted() {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if counted() {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Runs `f` with the calling thread's allocations left out of the counts.
pub fn bookkeeping<T>(f: impl FnOnce() -> T) -> T {
    let outer = UNCOUNTED.with(|u| u.replace(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(outer));
    out
}

/// Counted bytes currently allocated.
pub fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Largest counted live size since the last [`reset_peak`].
pub fn peak() -> isize {
    PEAK.load(Ordering::Relaxed)
}

//! The one counting allocator of the budget tests. `engine_allocs`,
//! `section6_allocs`, `snapshot_allocs`, `packet_table_bytes`,
//! `step_buffer_bytes` and `checkpoint_write_bytes` include this file with
//! `#[path]` and install [`Counting`] as their `#[global_allocator]`.
//!
//! Each of those binaries holds exactly one test: the allocator is global,
//! and a second test running on another thread would be counted too.
#![allow(dead_code)] // each binary reads one of the three counters

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `System`, counting allocations, reallocations, live bytes and
/// requested bytes.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations made so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Bytes asked for so far: every allocation's size and every
/// reallocation's new size, freed or not.
pub fn requested_bytes() -> u64 {
    REQUESTED.load(Ordering::Relaxed)
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

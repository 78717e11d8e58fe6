//! Peak live heap of the concurrent serving handle's update-and-publish
//! cycle.
//!
//! A publish hands the new epoch the engine's score matrix itself, and the
//! engine copies the matrix only on its next write. So with `M = n²·8`
//! bytes, a cycle whose readers pin an epoch only inside a read block
//! holds two matrices at its peak (the engine's head and the epoch
//! readers can see), and each epoch a reader keeps pinned adds one more.
//! A publish that copied the matrix would hold one more in both cases:
//! the fresh copy, next to the displaced epoch still in the swap slot.
//!
//! A counting global allocator wrapped around [`System`] measures the
//! live heap. This file holds a single test, so no other test's
//! allocations run in the same process while it measures.

use incsim::api::SimRankBuilder;
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_toggles_in;
use incsim::serve::ConcurrentSimRank;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes right now, and the highest value since the last reset.
/// Both are statistics that publish no other data, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] plus live/peak byte counting.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract, and returns `System`'s result. The
// bookkeeping around the calls only updates two atomics: it never
// allocates, unwinds or touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`,
        // which is passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Node count. A 2 MiB matrix at this size dwarfs everything else a cycle
/// keeps alive: the graphs, the engine's workspaces and one fused
/// update's factor buffer (together ≈0.26 of a matrix at the peak).
const N: usize = 512;
/// Update-and-publish cycles per phase.
const CYCLES: usize = 16;
/// Edge toggles applied between two publishes.
const OPS_PER_CYCLE: usize = 4;

/// Runs `CYCLES` update-and-publish cycles, each followed by a read block
/// that pins the new epoch only while it reads; returns the peak live
/// heap over the cycles, in bytes.
fn peak_over_cycles(
    srv: &mut ConcurrentSimRank,
    shadow: &mut incsim::graph::DiGraph,
    rng: &mut StdRng,
) -> usize {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let reader = srv.reader();
    for _ in 0..CYCLES {
        for op in random_toggles_in(shadow, 0..N as u32, OPS_PER_CYCLE, rng) {
            srv.update(op).expect("toggle stream applies in order");
        }
        srv.publish();
        let epoch = reader.epoch();
        assert!(epoch.pair(0, 1).is_finite());
        assert_eq!(epoch.top_k(2, 5).len(), 5);
    }
    PEAK.load(Ordering::Relaxed)
}

#[test]
fn publish_holds_two_matrices_plus_one_per_pinned_epoch() {
    let mut rng = StdRng::seed_from_u64(0x3E0C);
    let graph = erdos_renyi(N, 4 * N, &mut rng);
    let mut shadow = graph.clone();
    let mut srv = SimRankBuilder::new()
        .concurrent(graph)
        .expect("default handle builds");
    let matrix = (N * N * std::mem::size_of::<f64>()) as f64;

    // Readers pin an epoch only inside a read block: the engine's head
    // plus the published epoch.
    let transient = peak_over_cycles(&mut srv, &mut shadow, &mut rng) as f64;
    assert!(
        transient <= 2.5 * matrix,
        "peak {:.2} matrices with transient readers (bound 2.5)",
        transient / matrix
    );

    // One reader holds an early epoch across every cycle: one more.
    let pinned = srv.reader().epoch();
    let held = peak_over_cycles(&mut srv, &mut shadow, &mut rng) as f64;
    assert!(pinned.pair(0, 1).is_finite());
    drop(pinned);
    assert!(
        held <= 3.5 * matrix,
        "peak {:.2} matrices with one pinned epoch (bound 3.5)",
        held / matrix
    );
}

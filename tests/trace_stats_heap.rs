//! Heap bound of the workload statistics (DESIGN.md §6): Figs. 1, 2 and
//! 13(a) count the CMP trace as it is made, so `app_stats` holds at most
//! one batch of records, never the trace.
//!
//! A counting global allocator tracks the live heap and its peak. The
//! whole scenario lives in a single `#[test]` so no concurrent test can
//! allocate while it is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mira::arch::Arch;
use mira::experiments::common::EXPERIMENT_SEED;
use mira::experiments::patterns::app_stats;
use mira_nuca::cmp::{CmpConfig, CmpSystem};
use mira_traffic::workloads::Application;

/// Pass-through allocator that keeps the live byte count and its peak.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its output, the peak live heap it added over
/// the heap live when it started, and the live heap it left behind.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let end = LIVE.load(Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed) - base, end - base)
}

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;
const CYCLES: u64 = 20_000;

fn system(app: Application) -> CmpSystem {
    let arch = Arch::TwoDB;
    CmpSystem::new(CmpConfig::for_app(app, arch.cpu_nodes(), arch.cache_nodes(), EXPERIMENT_SEED))
}

#[test]
fn app_stats_never_holds_the_trace() {
    for app in [Application::Tpcw, Application::Multimedia] {
        // The whole exhibit call: the CMP model's own state (tag arrays
        // and directories, ~1.6 MiB after 20,000 cycles) plus one batch.
        let (stats, peak, _) = measure(|| app_stats(app, CYCLES));
        assert!(stats.packets > 10_000, "{app}: {} packets", stats.packets);
        assert!(peak < 2 * MIB, "{app}: app_stats peaked at {peak} live heap bytes");

        // Above the state the model keeps, counting holds one batch.
        let mut sys = system(app);
        let (_, peak, kept) = measure(|| sys.trace_stats(CYCLES));
        assert!(peak - kept < 256 * KIB, "{app}: counting peaked {} bytes above", peak - kept);

        // Keeping the same records takes several times the bound.
        let (trace, held, _) = measure(|| system(app).generate_trace(CYCLES));
        assert_eq!(trace.len() as u64, stats.packets, "{app}");
        assert!(held > 4 * MIB, "{app}: the kept trace peaked at only {held} bytes");
    }
}

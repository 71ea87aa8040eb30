//! Criterion benches for the allocation-free coverage feedback path.
//!
//! A counting global allocator backs the headline claim: once an engine's
//! accumulated snapshot exists, the per-iteration coverage feedback —
//! [`cmfuzz_coverage::CoverageMap::absorb_new`] on sessions that find
//! nothing new, and scratch [`cmfuzz_coverage::CoverageMap::snapshot_into`]
//! reuse — performs **zero** heap allocations. The bench panics if either
//! path allocates, so `cargo bench --bench coverage_hot_path` is a gate,
//! not just a number. A full-engine iteration is measured alongside for
//! context; since the session-loop rework its remaining allocations are
//! the simulated target's own response buffers (the engine side is gated
//! at zero by `session_hot_path`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::{BranchId, CoverageMap, CoverageSnapshot};
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
use cmfuzz_protocols::{spec_by_name, NetworkedTarget};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `routine` `iters` times and returns heap allocations performed.
fn count_allocs<F: FnMut()>(iters: u64, mut routine: F) -> u64 {
    let before = allocations();
    for _ in 0..iters {
        routine();
    }
    allocations() - before
}

fn warm_map(capacity: usize, hits: usize) -> (CoverageMap, CoverageSnapshot) {
    let map = CoverageMap::new(capacity);
    let probe = map.probe();
    for i in (0..capacity).step_by(capacity / hits.max(1) + 1) {
        probe.hit(BranchId::from_index(i as u32));
    }
    let mut accumulated = CoverageSnapshot::empty(capacity);
    let absorbed = map.absorb_new(&mut accumulated);
    assert!(absorbed > 0, "warmup absorbed the initial hits");
    (map, accumulated)
}

fn bench_feedback(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_feedback");

    // The per-session feedback query when the session found nothing new:
    // every dirty word was drained during warmup, so this is a scan over
    // the (empty) dirty bitmap only.
    group.bench_function("absorb_new_no_new_coverage", |b| {
        let (map, mut accumulated) = warm_map(4096, 256);
        b.iter(|| map.absorb_new(&mut accumulated));
        let allocs = count_allocs(10_000, || {
            black_box(map.absorb_new(&mut accumulated));
        });
        assert_eq!(
            allocs, 0,
            "absorb_new allocated on the no-new-coverage path"
        );
    });

    // Scratch snapshot refill (the engine's start() path, and union
    // aggregation): allocation-free once the buffer exists.
    group.bench_function("snapshot_into_reused", |b| {
        let (map, _) = warm_map(4096, 256);
        let mut scratch = CoverageSnapshot::empty(4096);
        b.iter(|| map.snapshot_into(&mut scratch));
        let allocs = count_allocs(10_000, || {
            map.snapshot_into(&mut scratch);
            black_box(scratch.covered_count());
        });
        assert_eq!(
            allocs, 0,
            "snapshot_into allocated on a warm scratch buffer"
        );
    });

    // The pre-optimization shape, for contrast: a fresh snapshot per query.
    group.bench_function("snapshot_fresh_allocating", |b| {
        let (map, _) = warm_map(4096, 256);
        b.iter(|| black_box(map.snapshot().covered_count()));
    });

    group.finish();
}

fn bench_engine_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_iteration");
    // Context number: against a real simulated target an iteration still
    // allocates for the target's response buffers; the engine's own loop
    // (plans, renders, corpus picks) is gated at zero allocations by the
    // `session_hot_path` bench.
    group.bench_function("mosquitto_steady_state", |b| {
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let target = NetworkedTarget::new((spec.build)(), "bench-ns");
        let mut engine = FuzzEngine::new(target, parsed, EngineConfig::default());
        engine
            .start(&ResolvedConfig::new())
            .expect("boots under defaults");
        // Reach steady state so most sessions find nothing new.
        for _ in 0..2_000 {
            engine.run_batch(1);
        }
        b.iter(|| engine.run_batch(1));
        let allocs = count_allocs(1_000, || {
            black_box(engine.run_batch(1));
        });
        println!(
            "bench engine_iteration/mosquitto_steady_state ... {:.1} allocs/iter (target response buffers)",
            allocs as f64 / 1_000.0
        );
    });
    group.finish();
}

criterion_group!(benches, bench_feedback, bench_engine_iteration);
criterion_main!(benches);

//! Gate: a steady-state session iteration performs **zero** heap
//! allocations.
//!
//! A counting global allocator backs the claim from DESIGN.md §8: once
//! coverage has saturated and every scratch buffer has reached its
//! high-water capacity, [`cmfuzz_fuzzer::FuzzEngine::run_batch`] —
//! session planning over interned ids, seed reuse from `Arc`-shared
//! bytes, precompiled renders, byte-level havoc (dictionary splices
//! included) and coverage feedback — never touches the allocator. The
//! bench panics on any allocation, so `cargo bench --bench
//! session_hot_path` is a gate, not just a number.
//!
//! The engine runs against [`NullTarget`], whose `handle` is
//! allocation-free, so any count observed is the engine's own. Field-level
//! model mutation is configured off here: its `String` repair path may
//! allocate by design on invalid UTF-8, and the steady-state claim covers
//! the seed-reuse and fresh-render paths, both of which the measured
//! window is asserted to exercise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cmfuzz_bench::NullTarget;
use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
use cmfuzz_protocols::all_specs;
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

/// An engine warmed into the steady state: coverage saturated, corpus
/// populated, scratch capacities at their high-water marks.
fn steady_engine(pit_document: &str) -> FuzzEngine<NullTarget> {
    let parsed = pit::parse(pit_document).expect("pit parses");
    let config = EngineConfig {
        seed: 7,
        // Field mutation off (see module docs); byte havoc + dictionary
        // splices stay on, covering the mutation machinery that the
        // steady-state claim includes.
        model_mutation_rate: 0.0,
        seed_reuse_rate: 0.5,
        byte_mutation_rate: 0.6,
        dictionary: vec![b"$SYS/#".to_vec(), b"admin".to_vec()],
        ..EngineConfig::default()
    };
    let mut engine = FuzzEngine::new(NullTarget::new(32), parsed, config);
    engine
        .start(&ResolvedConfig::new())
        .expect("null target always boots");
    for _ in 0..5_000 {
        engine.run_batch(1);
    }
    assert_eq!(
        engine.covered_count(),
        32,
        "warmup must saturate the branch space so the measured window \
         sees no retention"
    );
    assert!(engine.corpus_len() > 0, "seed-reuse path needs a corpus");
    engine
}

fn bench_session_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_hot_path");

    for spec in all_specs() {
        group.bench_function(spec.name, |b| {
            let mut engine = steady_engine(spec.pit_document);
            b.iter(|| black_box(engine.run_batch(1)));

            let stats_before = engine.stats();
            let allocs = count_allocs(2_000, || {
                black_box(engine.run_batch(1));
            });
            let stats_after = engine.stats();

            // The window must exercise both steady-state byte sources.
            let reused = stats_after.seed_reuses - stats_before.seed_reuses;
            let messages = stats_after.messages - stats_before.messages;
            assert!(reused > 0, "{}: no seed-reuse message measured", spec.name);
            assert!(
                messages > reused,
                "{}: no fresh-render message measured",
                spec.name
            );
            assert!(
                stats_after.byte_mutations > stats_before.byte_mutations,
                "{}: no byte-mutated message measured",
                spec.name
            );
            assert_eq!(
                allocs, 0,
                "{}: steady-state session iteration allocated",
                spec.name
            );
        });
    }

    group.finish();
}

criterion_group!(benches, bench_session_iteration);
criterion_main!(benches);

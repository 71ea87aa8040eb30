//! Criterion benches for raw fuzzing throughput: engine iterations per
//! second against every protocol target (the denominator behind the
//! virtual-time ⇄ wall-clock mapping in EXPERIMENTS.md).

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine, Target};
use cmfuzz_protocols::{all_specs, NetworkedTarget};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuzz_iteration");
    for spec in all_specs() {
        group.bench_function(spec.name, |b| {
            let parsed = pit::parse(spec.pit_document).expect("pit parses");
            let target = NetworkedTarget::new((spec.build)(), "bench-ns");
            let mut engine = FuzzEngine::new(target, parsed, EngineConfig::default());
            engine
                .start(&ResolvedConfig::new())
                .expect("boots under defaults");
            b.iter(|| engine.run_batch(1));
        });
    }
    group.finish();
}

fn bench_startup(c: &mut Criterion) {
    let mut group = c.benchmark_group("target_startup");
    for spec in all_specs() {
        group.bench_function(spec.name, |b| {
            let mut target = (spec.build)();
            let config = ResolvedConfig::new();
            b.iter(|| {
                let map = cmfuzz_coverage::CoverageMap::new(target.branch_count());
                target.start(&config, map.probe()).expect("boots");
                map.covered_count()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_iterations, bench_startup);
criterion_main!(benches);

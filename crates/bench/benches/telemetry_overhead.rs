//! Criterion bench pinning the telemetry tax: a fuzzing engine with live
//! `engine.*` handles attached must stay within a few percent of one
//! running with the default detached (no-op registry) handles — the
//! acceptance bar is 5%.

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::VirtualClock;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
use cmfuzz_protocols::{spec_by_name, NetworkedTarget, ProtocolTarget};
use cmfuzz_telemetry::{EngineTelemetry, Telemetry};
use criterion::{criterion_group, criterion_main, Criterion};

fn engine(namespace: &str) -> FuzzEngine<NetworkedTarget<ProtocolTarget>> {
    let spec = spec_by_name("mosquitto").expect("subject exists");
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let target = NetworkedTarget::new((spec.build)(), namespace);
    let mut engine = FuzzEngine::new(target, parsed, EngineConfig::default());
    engine
        .start(&ResolvedConfig::new())
        .expect("boots under defaults");
    engine
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");

    group.bench_function("iteration_disabled", |b| {
        let mut engine = engine("bench-telemetry-off");
        b.iter(|| engine.run_batch(1));
    });

    group.bench_function("iteration_enabled", |b| {
        let telemetry = Telemetry::builder(VirtualClock::new()).build();
        let mut engine = engine("bench-telemetry-on");
        engine.attach_telemetry(EngineTelemetry::for_pipeline(&telemetry));
        b.iter(|| engine.run_batch(1));
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);

//! Criterion bench for the execution-layer dispatch cost: the statically
//! dispatched [`ProtocolTarget`] enum against the historical
//! `Box<dyn Target + Send>` path, plus the in-process [`DirectLink`]
//! transport against the namespaced [`DatagramLink`].
//!
//! Both dispatch variants drive the identical engine workload (same Pit,
//! same seed), so the measured difference is purely the call path: a
//! `match` the compiler can inline versus a heap indirection plus a
//! virtual call on every `Target` method in the session hot loop.

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine, Target};
use cmfuzz_protocols::{spec_by_name, DirectLink, NetworkedTarget, ProtocolTarget};
use criterion::{criterion_group, criterion_main, Criterion};

fn engine_of<T: Target>(target: T) -> FuzzEngine<T> {
    let spec = spec_by_name("mosquitto").expect("subject exists");
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let mut engine = FuzzEngine::new(target, parsed, EngineConfig::default());
    engine
        .start(&ResolvedConfig::new())
        .expect("boots under defaults");
    engine
}

fn mqtt() -> ProtocolTarget {
    let spec = spec_by_name("mosquitto").expect("subject exists");
    (spec.build)()
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_dispatch");

    group.bench_function("enum_datagram", |b| {
        let mut engine = engine_of(NetworkedTarget::new(mqtt(), "bench-enum"));
        b.iter(|| engine.run_batch(1));
    });

    group.bench_function("boxed_datagram", |b| {
        let boxed: Box<dyn Target + Send> = Box::new(mqtt());
        let mut engine = engine_of(NetworkedTarget::new(boxed, "bench-boxed"));
        b.iter(|| engine.run_batch(1));
    });

    group.bench_function("enum_direct", |b| {
        let mut engine = engine_of(NetworkedTarget::with_transport(mqtt(), DirectLink::new()));
        b.iter(|| engine.run_batch(1));
    });

    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);

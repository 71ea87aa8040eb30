//! Measures the execution-layer dispatch cost and gates lossy-link
//! determinism, recording both in `BENCH_transport.json`.
//!
//! Two parts:
//!
//! 1. **Dispatch timing** — for every protocol subject, runs the same
//!    engine workload through the statically dispatched
//!    [`ProtocolTarget`] enum and through the historical
//!    `Box<dyn Target + Send>` path, asserts both produce identical
//!    coverage and corpora, and records per-subject timings plus the
//!    geometric-mean speedup. The speedup is recorded, not gated — CI
//!    boxes are noisy; the correctness assertion is the gate.
//! 2. **Lossy-link determinism** — runs a quick CMFuzz campaign under
//!    `LinkConditions::new(0.1, 0.05, 0.05)` with the worker pool on and
//!    off and compares the full `Debug` render of both results. Exits
//!    non-zero on divergence, so CI gates on impaired-link determinism.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use cmfuzz::baseline::try_run_cmfuzz_with;
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::schedule::ScheduleOptions;
use cmfuzz_bench::report;
use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::Ticks;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine, Target};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{all_specs, NetworkedTarget, ProtocolSpec};
use cmfuzz_telemetry::Telemetry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iterations: u64 = 3_000;
    let mut out = PathBuf::from("BENCH_transport.json");

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--iterations" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => iterations = n,
                _ => usage_error("--iterations expects a positive integer"),
            },
            "--out" => match iter.next() {
                Some(path) => out = PathBuf::from(path),
                None => usage_error("--out expects a file path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!("[bench_transport] enum vs boxed dispatch, {iterations} iterations per subject");
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    for spec in all_specs() {
        let enum_target = NetworkedTarget::new((spec.build)(), &format!("bt-enum-{}", spec.name));
        let boxed_inner: Box<dyn Target + Send> = Box::new((spec.build)());
        let boxed_target = NetworkedTarget::new(boxed_inner, &format!("bt-boxed-{}", spec.name));

        let (enum_secs, enum_digest) = timed_run(&spec, enum_target, iterations);
        let (boxed_secs, boxed_digest) = timed_run(&spec, boxed_target, iterations);
        if enum_digest != boxed_digest {
            eprintln!(
                "[bench_transport] FAIL: {} enum and boxed dispatch disagree\n  enum:  {enum_digest}\n  boxed: {boxed_digest}",
                spec.name
            );
            exit(1);
        }

        let speedup = boxed_secs / enum_secs.max(1e-9);
        log_speedup_sum += speedup.ln();
        eprintln!(
            "[bench_transport] {:<12} enum {enum_secs:.3}s, boxed {boxed_secs:.3}s, speedup {speedup:.3}x",
            spec.name
        );
        rows.push(format!(
            "    {{\"subject\": \"{}\", \"enum_seconds\": {enum_secs:.4}, \"boxed_seconds\": {boxed_secs:.4}, \"speedup\": {speedup:.3}}}",
            spec.name
        ));
    }
    let geomean = (log_speedup_sum / rows.len() as f64).exp();
    eprintln!("[bench_transport] geomean speedup {geomean:.3}x");

    eprintln!("[bench_transport] lossy-link determinism gate (loss 0.1, dup 0.05, reorder 0.05)");
    let spec = all_specs().first().copied().expect("subjects exist");
    let base = CampaignOptions {
        instances: 2,
        budget: Ticks::new(800),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(300),
        seed: 11,
        link: LinkConditions::new(0.1, 0.05, 0.05),
        ..CampaignOptions::default()
    };
    let run = |worker_pool: bool| {
        let options = CampaignOptions {
            worker_pool,
            ..base.clone()
        };
        try_run_cmfuzz_with(
            &spec,
            &ScheduleOptions::default(),
            &options,
            &Telemetry::disabled(),
        )
        .unwrap_or_else(|error| {
            eprintln!("[bench_transport] lossy campaign failed: {error}");
            exit(error.exit_code());
        })
    };
    let pooled = format!("{:?}", run(true));
    let inline = format!("{:?}", run(false));
    let deterministic = pooled == inline;
    eprintln!("[bench_transport] impaired campaign deterministic: {deterministic}");

    let json = format!(
        "{{\n  \"experiment\": \"transport_dispatch\",\n  \"machine\": {},\n  \"iterations_per_subject\": {iterations},\n  \"subjects\": [\n{}\n  ],\n  \"geomean_speedup\": {geomean:.3},\n  \"dispatch_results_identical\": true,\n  \"lossy_link\": {{\"loss\": 0.1, \"duplicate\": 0.05, \"reorder\": 0.05}},\n  \"lossy_link_deterministic\": {deterministic}\n}}\n",
        report::machine_info_json(),
        rows.join(",\n"),
    );
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("[bench_transport] cannot write {}: {err}", out.display());
        exit(2);
    }
    print!("{json}");

    if !deterministic {
        eprintln!("[bench_transport] FAIL: impaired campaign depends on the worker pool");
        exit(1);
    }
}

/// Runs `iterations` engine iterations against `target` and returns the
/// wall-clock seconds plus a digest of everything the run produced, so
/// the caller can assert two dispatch paths did identical work.
fn timed_run<T: Target>(spec: &ProtocolSpec, target: T, iterations: u64) -> (f64, String) {
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let mut engine = FuzzEngine::new(target, parsed, EngineConfig::default());
    engine
        .start(&ResolvedConfig::new())
        .expect("boots under defaults");
    let started = Instant::now();
    for _ in 0..iterations {
        engine.run_batch(1);
    }
    let secs = started.elapsed().as_secs_f64();
    let digest = format!(
        "coverage={:?} corpus={} iterations={}",
        engine.coverage(),
        engine.corpus_len(),
        engine.iterations(),
    );
    (secs, digest)
}

const USAGE: &str = "usage: bench_transport [--iterations <n>] [--out <path>]\n\
    \n\
    --iterations  engine iterations per subject and dispatch path (default: 3000)\n\
    --out         where to write the JSON record (default: BENCH_transport.json)";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}

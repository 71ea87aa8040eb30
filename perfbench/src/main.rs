//! End-to-end benchmark of the CMFuzz workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|fleet> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Each run repeats one workload, built from `--seed`, for `--seconds`
//! seconds, checks its outputs, and prints a report followed by one JSON
//! line: `correct`, `attempted`, `failed` and the metrics — the end-to-end
//! metrics with `--trace 0`, the per-layer breakdown with `--trace 1`.
//! Every end-to-end timing is CPU time of the one thread that does the
//! work, calibrated to a reference core speed (see `trace::Calibration`).
//! The metric names and units are listed in `END_TO_END` and `PER_LAYER` and mirror
//! `BENCHMARK.json`; `README.md` in this directory documents them.

mod fleet;
mod serve;
mod stats;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;

use cmfuzz::metrics::{CampaignStats, CorpusOccupancy};

use crate::trace::Calibration;

/// Seed used when `--seed` is absent. Claims are made on it and then
/// confirmed on [`HELD_OUT_SEED`], which no tuning may look at.
const DEFAULT_SEED: u64 = 1;
/// The seed kept back for confirming a claim (see `README.md`).
const HELD_OUT_SEED: u64 = 20_251_017;

/// End-to-end metrics: `(name, unit)`, printed by every workload with
/// `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sessions_per_cpu_s", "sessions/cpu-s"),
    ("branches", "branches"),
    ("latency_cpu_ms.p50", "ms"),
    ("latency_cpu_ms.p90", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed by every workload with
/// `--trace 1`. A layer the workload does not pass through reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("schedule.build_s", "s"),
    ("schedule.startup_probes", "count"),
    ("preflight.s", "s"),
    ("fleet.admit_s", "s"),
    ("target.handle_s", "s"),
    ("target.messages", "count"),
    ("target.faults", "count"),
    ("target.start_s", "s"),
    ("target.boots", "count"),
    ("target.export_s", "s"),
    ("target.import_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.other_s", "s"),
    ("slice.resume_ms", "ms"),
    ("slice.boundary_s", "s"),
    ("seedpack.export_ms", "ms"),
    ("seedpack.import_ms", "ms"),
    ("fleet.seeds_shared", "count"),
    ("fleet.seeds_share_rejected", "count"),
    ("policy.pick_s", "s"),
    ("policy.observe_s", "s"),
    ("fleet.waves", "count"),
    ("fleet.leases", "count"),
    ("fleet.other_s", "s"),
    ("fleet.wave_ms.p50", "ms"),
    ("fleet.wave_ms.p90", "ms"),
    ("fleet.coverage_of_reachable", "ratio"),
    ("fleet.dead_covered", "count"),
    ("engine.sessions", "count"),
    ("engine.messages", "count"),
    ("corpus.retained", "count"),
    ("corpus.deduped_exact", "count"),
    ("corpus.deduped_near", "count"),
    ("corpus.evicted", "count"),
    ("corpus.imported", "count"),
    ("corpus.retained_per_session", "ratio"),
    ("corpus.seeds", "count"),
    ("corpus.bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.window_s", "s"),
    ("serve.status_ms.p50", "ms"),
    ("serve.status_ms.p90", "ms"),
    ("serve.metrics_ms.p50", "ms"),
    ("serve.metrics_ms.p90", "ms"),
    ("serve.result_ms.p50", "ms"),
    ("serve.result_ms.p90", "ms"),
    ("serve.requests", "count"),
    ("serve.rate_limited", "count"),
    ("serve.generator_late_ms.max", "ms"),
    ("serve.engine_s", "s"),
    ("serve.loop_s", "s"),
    ("serve.client_s", "s"),
    ("serve.tail_lines", "count"),
    ("fanout.dropped", "count"),
    ("fanout.evicted", "count"),
    ("fanout.worst_lag", "count"),
    ("calib.kernel_ns", "ns"),
    ("calib.factor", "ratio"),
    ("raw.sessions_per_cpu_s", "sessions/cpu-s"),
    ("wall.sessions_per_s", "sessions/s"),
    ("trace.total_s", "s"),
    ("trace.layer_sum_pct", "%"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Fleet,
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
        if !passed {
            self.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed)| *passed)
    }
}

/// Repeats `rep` until `seconds` have passed and at least `min_reps` ran.
pub fn repeat<T>(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        out.push(rep());
    }
    out
}

/// The share of the traced total the named layers plus the residual
/// cover, in percent, and the residual's own share. Both go into the
/// per-layer report; the first must lie within 10% of 100.
pub fn layer_sum(report: &mut Report, total_s: f64, layers_s: f64, residual_s: f64) {
    let (sum_pct, residual_pct) = if total_s > 0.0 {
        (
            (layers_s + residual_s) / total_s * 100.0,
            residual_s / total_s * 100.0,
        )
    } else {
        (0.0, 0.0)
    };
    report.set("trace.total_s", total_s);
    report.set("trace.layer_sum_pct", sum_pct);
    report.set("trace.residual_pct", residual_pct);
    report.check(
        format!("layers + residual = traced total within 10% ({sum_pct:.1}%)"),
        (sum_pct - 100.0).abs() <= 10.0,
    );
}

/// Derives a campaign seed from the workload seed and a cell index. The
/// seed fits in 53 bits, so the control plane's JSON numbers carry it
/// exactly.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xC3A5_C85C_97CB_3127);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// Adds the counters of `s` into `into`.
pub fn add_stats(into: &mut CampaignStats, s: &CampaignStats) {
    into.sessions += s.sessions;
    into.messages += s.messages;
    into.seeds_retained += s.seeds_retained;
    into.seeds_deduped_exact += s.seeds_deduped_exact;
    into.seeds_deduped_near += s.seeds_deduped_near;
    into.seeds_evicted += s.seeds_evicted;
    into.seeds_imported += s.seeds_imported;
}

/// Per-repetition engine and corpus counts (deterministic per seed).
pub fn report_counts(report: &mut Report, s: &CampaignStats, corpus: &CorpusOccupancy) {
    report.set("engine.sessions", s.sessions as f64);
    report.set("engine.messages", s.messages as f64);
    report.set("corpus.retained", s.seeds_retained as f64);
    report.set("corpus.deduped_exact", s.seeds_deduped_exact as f64);
    report.set("corpus.deduped_near", s.seeds_deduped_near as f64);
    report.set("corpus.evicted", s.seeds_evicted as f64);
    report.set("corpus.imported", s.seeds_imported as f64);
    report.set(
        "corpus.retained_per_session",
        s.seeds_retained as f64 / s.sessions.max(1) as f64,
    );
    report.set("corpus.seeds", corpus.seeds as f64);
    report.set("corpus.bytes", corpus.approx_bytes as f64);
}

/// How fast one repetition ran its fuzzing, before calibration.
pub struct Speed<'a> {
    pub sessions: u64,
    pub run_s: f64,
    pub run_wall_s: f64,
    pub calibration: &'a Calibration,
}

/// The per-layer speed figures of the untraced repetitions: the
/// calibration kernel's time and factor, and the throughput per CPU
/// second and per wall second as measured, before calibration.
pub fn report_speed<'a>(report: &mut Report, reps: impl Iterator<Item = Speed<'a>>) {
    let reps: Vec<Speed> = reps.collect();
    let median_of =
        |f: &dyn Fn(&Speed) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    report.set(
        "calib.kernel_ns",
        median_of(&|r| r.calibration.ns_per_iteration()),
    );
    report.set("calib.factor", median_of(&|r| r.calibration.factor()));
    report.set(
        "raw.sessions_per_cpu_s",
        median_of(&|r| r.sessions as f64 / r.run_s),
    );
    report.set(
        "wall.sessions_per_s",
        median_of(&|r| r.sessions as f64 / r.run_wall_s),
    );
}

/// Mean of `f` over the repetitions.
pub fn mean<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let n = reps.len().max(1) as f64;
    reps.iter().map(f).sum::<f64>() / n
}

const USAGE: &str =
    "usage: perfbench --workload <table1|fleet> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Table1,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "table1" => Workload::Table1,
                    "fleet" => Workload::Fleet,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds expects a number in (0, 600]")?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric of the selected list with its unit (absent per-layer values
/// read 0).
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            exit(2);
        }
    };
    let started = Instant::now();
    let report = match args.workload {
        Workload::Table1 => table1::run(&args),
        Workload::Fleet => fleet::run(&args),
    };

    println!(
        "perfbench workload={:?} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={} reps={} wall_s={:.2}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.reps,
        started.elapsed().as_secs_f64(),
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        if let Some(value) = report.metrics.get(name) {
            println!("  {name:<30} {value:>16.6} {unit}");
        }
    }
    for (name, passed) in &report.checks {
        println!("  check {}: {name}", if *passed { "ok  " } else { "FAIL" });
    }
    match result_line(&report, args.trace) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            exit(2);
        }
    }
    if !report.correct() {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must not drift.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = cmfuzz_server::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let parsed =
            parse_args(&args("--workload fleet --seed 7 --seconds 3 --trace 1")).expect("parses");
        assert_eq!(parsed.workload, Workload::Fleet);
        assert_eq!(parsed.seed, 7);
        assert!(parsed.trace);
        assert_eq!(
            parse_args(&args("--workload table1")).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            "",
            "--workload nope",
            "--workload serve",
            "--workload table1 --trace 2",
            "--workload table1 --seconds 0",
            "--workload table1 --seed",
            "--workload table1 --color red",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = result_line(&report, false).expect("complete");
        let json = cmfuzz_server::parse_json(&line).expect("valid JSON");
        let metrics = json.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).expect("listed");
            assert_eq!(metric.get("unit").and_then(|u| u.as_str()), Some(*unit));
        }
        report.metrics.remove("setup_s");
        assert!(result_line(&report, false).is_err(), "missing metric");
        assert!(result_line(&report, true).is_ok(), "per-layer gaps read 0");
    }
}

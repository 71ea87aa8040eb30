//! `fleet`: the relation-aware bench fleet. Six subjects × three
//! configuration partitions, one single-instance campaign each, with the
//! intelligent corpus and rare-seed sharing inside each subject, stepped
//! wave by wave under `CoverageGradient` on one slot. Every lease pays a
//! resume, a checkpoint and a seed exchange, which `table1` hardly does.
//!
//! With `--trace 1` the run also serves a fleet through the control plane
//! (see `serve.rs`) for the server and fan-out layers.

use std::time::Instant;

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::{run_campaign_slice, CampaignOptions};
use cmfuzz::metrics::{CampaignStats, CorpusOccupancy};
use cmfuzz::preflight::analyze_reachability_for;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz::CampaignError;
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{
    CampaignOutcome, CoverageGradient, FleetCampaign, FleetManager, FleetOptions, FleetResult,
    SchedulingPolicy, WaveOutcome,
};
use cmfuzz_fuzzer::{CorpusConfig, EngineConfig, Target};
use cmfuzz_protocols::all_specs;
use cmfuzz_server::{fnv1a_hex, result_digest};
use cmfuzz_telemetry::Telemetry;

use crate::stats::{beyond, median, percentile};
use crate::trace::{
    self, peak_rss_mib, secs, thread_cpu_s, traced_spec, Calibration, TargetTimes, Timed,
    TimedPolicy,
};
use crate::{
    add_stats, layer_sum, mean, mix, repeat, report_counts, report_speed, serve, Args, Report,
    Speed,
};

const PARTITIONS: usize = 3;
/// One slot, so every lease runs on the calling thread: with more, each
/// wave would spawn a thread per lease and wait for the slowest.
const SLOTS: usize = 1;
/// Two rounds of 100 ticks per lease.
const SLICE: u64 = 200;
const CAMPAIGN_BUDGET: u64 = 5_000;
/// Below the 18 × 5,000 ticks the campaigns ask for, so the policy
/// decides who runs.
const TOTAL_BUDGET: u64 = 72_000;
/// Rare seeds each campaign donates to its subject's group per wave.
const SHARE: usize = 4;
/// Fleets per repetition, each built from its own seed. Which campaigns
/// the policy favours, and so what a session costs on average, depends
/// on the seed; four fleets a repetition average that out.
const FLEETS: u64 = 4;
/// Waves between two calibration chunks: about 4% of the waves' CPU time.
const WAVES_PER_CHUNK: usize = 20;

/// The seeds of the fleets of one repetition.
fn fleet_seeds(seed: u64) -> Vec<u64> {
    (0..FLEETS).map(|j| mix(seed, j)).collect()
}

fn fleet_options() -> FleetOptions {
    FleetOptions {
        slots: SLOTS,
        slice: Ticks::new(SLICE),
        total_budget: Some(Ticks::new(TOTAL_BUDGET)),
        skip_preflight: false,
        share_rare_seeds: SHARE,
    }
}

/// Builds the fleet, the probe target of each schedule wrapped when
/// `traced`.
fn build_fleet(seed: u64, traced: bool) -> Vec<FleetCampaign> {
    let mut fleet = Vec::new();
    for spec in all_specs() {
        let schedule = if traced {
            let mut probe = Timed::new((spec.build)(), &trace::SCHEDULE);
            build_schedule(&mut probe, PARTITIONS, &ScheduleOptions::default())
        } else {
            build_schedule(&mut (spec.build)(), PARTITIONS, &ScheduleOptions::default())
        };
        let campaign_spec = if traced { traced_spec(spec) } else { spec };
        for (part, setup) in cmfuzz_setups(&schedule, PARTITIONS).into_iter().enumerate() {
            let options = CampaignOptions {
                instances: 1,
                budget: Ticks::new(CAMPAIGN_BUDGET),
                sample_interval: Ticks::new(100),
                saturation_window: Ticks::new(200),
                seed: mix(seed, fleet.len() as u64),
                worker_pool: false,
                engine: EngineConfig {
                    corpus: CorpusConfig::intelligent(),
                    ..EngineConfig::default()
                },
                ..CampaignOptions::default()
            };
            fleet.push(FleetCampaign {
                id: format!("{}/part-{part}", spec.name),
                spec: campaign_spec,
                fuzzer: "cmfuzz".into(),
                setups: vec![setup],
                options,
                share_group: Some(spec.name.to_owned()),
            });
        }
    }
    fleet
}

/// Deterministic fingerprint of a fleet run: scheduling totals and every
/// campaign's full result digest.
pub fn fleet_digest(result: &FleetResult) -> String {
    let mut text = format!(
        "{}|{}|{}|{}|{}|{}",
        result.policy,
        result.waves,
        result.leases,
        result.spent.get(),
        result.seeds_shared,
        result.seeds_share_rejected
    );
    for outcome in &result.campaigns {
        text.push_str(&format!(
            "|{}:{}:{}:{}:{}",
            outcome.id,
            outcome.leases,
            outcome.consumed.get(),
            outcome.completed,
            result_digest(&outcome.result())
        ));
    }
    fnv1a_hex(&text)
}

/// The [`FLEETS`] fleets of one repetition, each from building to
/// `finish`; figures are summed over them. Times are CPU seconds of the
/// benchmark's thread, which does all of the work, the calibration
/// kernel's left out; `run_wall_s` is the wall time inside `step_wave`.
#[derive(Debug, Default)]
struct Rep {
    calibration: Calibration,
    cpu_s: f64,
    schedule_s: f64,
    admit_s: f64,
    run_s: f64,
    run_wall_s: f64,
    /// Each wave's CPU milliseconds with the calibration chunk it
    /// followed.
    waves_ms: Vec<(f64, usize)>,
    digest: String,
    stats: CampaignStats,
    corpus: CorpusOccupancy,
    branches: usize,
    pick_ns: u64,
    observe_ns: u64,
    target: TargetTimes,
    probes: u64,
    error: Option<String>,
    results: Vec<FleetResult>,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        self.schedule_s + self.admit_s
    }
}

fn rep(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    // Calibration chunks open and close the repetition, so that every
    // wave has one on either side.
    rep.calibration.run();
    for fleet_seed in fleet_seeds(seed) {
        one_fleet(&mut rep, fleet_seed, traced);
    }
    rep.calibration.run();
    rep
}

/// Builds, admits and steps one fleet exactly as `run_fleet` does, timing
/// each phase and each wave, and adds it to `rep`.
fn one_fleet(rep: &mut Rep, seed: u64, traced: bool) {
    let kernel_before = rep.calibration.kernel_s();
    let started = thread_cpu_s();
    let fleet = build_fleet(seed, traced);
    rep.schedule_s += thread_cpu_s() - started;
    // The untraced pass must not pay for the wrapper's `Instant` reads.
    let mut timed = TimedPolicy::new(CoverageGradient::new());
    let mut plain = CoverageGradient::new();
    let policy: &mut dyn SchedulingPolicy = if traced { &mut timed } else { &mut plain };
    let outcome = (|| -> Result<FleetResult, CampaignError> {
        let admitting = thread_cpu_s();
        let mut manager = FleetManager::new(fleet_options(), &Telemetry::disabled());
        manager.admit_batch(fleet)?;
        rep.admit_s += thread_cpu_s() - admitting;
        let running = thread_cpu_s();
        loop {
            let wave = thread_cpu_s();
            let wall = Instant::now();
            let stepped = manager.step_wave(policy)?;
            rep.run_wall_s += wall.elapsed().as_secs_f64();
            match stepped {
                WaveOutcome::Ran { progress, .. } => {
                    let chunk = rep.calibration.chunks() - 1;
                    rep.waves_ms.push(((thread_cpu_s() - wave) * 1000.0, chunk));
                    if rep.waves_ms.len().is_multiple_of(WAVES_PER_CHUNK) {
                        rep.calibration.run();
                    }
                    if !progress {
                        break;
                    }
                }
                WaveOutcome::Idle(_) => break,
            }
        }
        let result = manager.finish(policy.name())?;
        rep.run_s += thread_cpu_s() - running - (rep.calibration.kernel_s() - kernel_before);
        Ok(result)
    })();
    rep.cpu_s += thread_cpu_s() - started - (rep.calibration.kernel_s() - kernel_before);
    rep.pick_ns += timed.pick_ns;
    rep.observe_ns += timed.observe_ns;
    if traced {
        rep.target.add(&trace::TARGETS.take());
        rep.probes += trace::SCHEDULE.take().boots;
    }
    match outcome {
        Ok(result) => {
            for outcome in &result.campaigns {
                let campaign = outcome.result();
                add_stats(&mut rep.stats, &campaign.stats);
                rep.corpus.seeds += campaign.corpus.seeds;
                rep.corpus.approx_bytes += campaign.corpus.approx_bytes;
            }
            rep.branches += result.total_branches();
            rep.digest.push_str(&fleet_digest(&result));
            rep.results.push(result);
        }
        Err(error) => {
            rep.error.get_or_insert(error.to_string());
        }
    }
}

/// A repetition after the warm-up: only the warm-up's final checkpoints
/// are kept for the post-run checks.
fn measured_rep(seed: u64, traced: bool) -> Rep {
    Rep {
        results: Vec::new(),
        ..rep(seed, traced)
    }
}

/// Checks on one finished fleet: the whole allowance spent, no campaign
/// past its own budget, and no proven-dead branch covered. Returns the
/// dead-covered count.
fn check_result(report: &mut Report, fleet: &[FleetCampaign], result: &FleetResult) -> usize {
    report.check(
        format!(
            "fleet spent its whole allowance ({} of {TOTAL_BUDGET} ticks)",
            result.spent.get()
        ),
        result.spent.get() == TOTAL_BUDGET,
    );
    report.check(
        "every campaign stayed within its budget and completed ones reached it",
        result.campaigns.iter().all(|c| {
            c.consumed.get() <= CAMPAIGN_BUDGET
                && (!c.completed || c.consumed.get() == CAMPAIGN_BUDGET)
        }),
    );
    let dead_covered: usize = fleet
        .iter()
        .zip(&result.campaigns)
        .map(|(campaign, outcome)| {
            let covered: Vec<u32> = outcome
                .result()
                .coverage
                .covered_ids()
                .map(|id| id.index())
                .collect();
            analyze_reachability_for(&campaign.spec, &campaign.setups)
                .dead_covered(&covered)
                .len()
        })
        .sum();
    report.check(
        format!("fleet.dead_covered = 0 (got {dead_covered})"),
        dead_covered == 0,
    );
    dead_covered
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let reference = rep(args.seed, false);
    // Peak memory of one repetition: later ones reuse (and fragment) the
    // allocator's arenas, so a peak read after a run of any length would
    // depend on how many repetitions fitted in it.
    report.set("peak_rss_mb", peak_rss_mib());
    let measured = if args.trace {
        let third = args.seconds / 3.0;
        let untraced = repeat(third, 2, || measured_rep(args.seed, false));
        let traced = repeat(third, 2, || measured_rep(args.seed, true));
        serve::measure(&mut report, args.seed, third);
        report.check(
            "traced digests equal untraced digests",
            traced.iter().all(|r| r.digest == reference.digest),
        );
        per_layer(&mut report, args.seed, &reference, &untraced, &traced);
        untraced.into_iter().chain(traced).collect()
    } else {
        let reps = repeat(args.seconds, 3, || measured_rep(args.seed, false));
        end_to_end(&mut report, &reps);
        reps
    };
    report.reps = measured.len();
    report.check(
        "repetitions reproduce the warm-up digest",
        measured.iter().all(|r| r.digest == reference.digest),
    );
    let errors: Vec<&String> = measured
        .iter()
        .chain([&reference])
        .filter_map(|r| r.error.as_ref())
        .collect();
    for error in errors.iter().take(3) {
        eprintln!("perfbench: fleet failed: {error}");
    }
    report.check(
        "every fleet ran without a campaign error",
        errors.is_empty(),
    );
    let mut dead = 0;
    for (seed, result) in fleet_seeds(args.seed).into_iter().zip(&reference.results) {
        dead += check_result(&mut report, &build_fleet(seed, false), result);
    }
    if args.trace {
        report.set("fleet.dead_covered", dead as f64);
    }
    let campaigns = (all_specs().len() * PARTITIONS) as u64 * FLEETS;
    report.attempted += campaigns * (measured.len() as u64 + 1);
    report.failed += campaigns * errors.len() as u64;
    eprintln!("perfbench: fleet digest {}", fnv1a_hex(&reference.digest));
    report
}

/// The end-to-end metrics: CPU times at reference speed, each repetition's
/// totals scaled by its own calibration and each wave's latency by the
/// chunks on either side of it.
fn end_to_end(report: &mut Report, reps: &[Rep]) {
    let setup: Vec<f64> = reps
        .iter()
        .map(|r| r.setup_s() * r.calibration.factor())
        .collect();
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| r.stats.sessions as f64 / (r.run_s * r.calibration.factor()))
        .collect();
    let waves: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            r.waves_ms
                .iter()
                .map(|(ms, chunk)| ms * r.calibration.factor_after(*chunk))
        })
        .collect();
    let failed = reps.iter().filter(|r| r.error.is_some()).count();
    report.set("setup_s", median(&setup));
    report.set("sessions_per_cpu_s", median(&rate));
    report.set("branches", reps[0].branches as f64);
    report.check(
        format!("{} latency samples keep ten beyond p90", waves.len()),
        beyond(waves.len(), 90.0) >= 10,
    );
    report.set("latency_cpu_ms.p50", median(&waves));
    report.set(
        "latency_cpu_ms.p90",
        percentile(&waves, 90.0).unwrap_or(0.0),
    );
    report.set("ok_ratio", 1.0 - failed as f64 / reps.len() as f64);
}

fn per_layer(report: &mut Report, seed: u64, reference: &Rep, untraced: &[Rep], traced: &[Rep]) {
    report_speed(
        report,
        untraced.iter().map(|r| Speed {
            sessions: r.stats.sessions,
            run_s: r.run_s,
            run_wall_s: r.run_wall_s,
            calibration: &r.calibration,
        }),
    );
    let cpu = |reps: &[Rep]| median(&reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    report.set(
        "trace.overhead_pct",
        (cpu(traced) / cpu(untraced) - 1.0) * 100.0,
    );
    let per_rep = |f: &dyn Fn(&Rep) -> f64| mean(traced, f);
    let target = |f: fn(&TargetTimes) -> u64| per_rep(&|r| f(&r.target) as f64);
    let schedule = per_rep(&|r| r.schedule_s);
    let admit = per_rep(&|r| r.admit_s);
    let run_cpu = per_rep(&|r| r.run_s);
    let in_target = per_rep(&|r| r.target.total_s());
    let pick = per_rep(&|r| secs(r.pick_ns));
    let observe = per_rep(&|r| secs(r.observe_ns));
    report.set("schedule.build_s", schedule);
    report.set("schedule.startup_probes", per_rep(&|r| r.probes as f64));
    report.set("fleet.admit_s", admit);
    report.set("target.handle_s", target(|t| t.handle_ns) / 1e9);
    report.set("target.messages", target(|t| t.messages));
    report.set("target.faults", target(|t| t.faults));
    report.set("target.start_s", target(|t| t.start_ns) / 1e9);
    report.set("target.boots", target(|t| t.boots));
    report.set("target.export_s", target(|t| t.export_ns) / 1e9);
    report.set("target.import_s", target(|t| t.import_ns) / 1e9);
    report.set("campaign.run_s", run_cpu);
    report.set("policy.pick_s", pick);
    report.set("policy.observe_s", observe);
    report.set("fleet.other_s", run_cpu - in_target - pick - observe);
    let waves: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.waves_ms.iter().map(|(ms, _)| *ms))
        .collect();
    report.set("fleet.wave_ms.p50", median(&waves));
    report.set("fleet.wave_ms.p90", percentile(&waves, 90.0).unwrap_or(0.0));
    report_counts(report, &reference.stats, &reference.corpus);
    let results = &reference.results;
    let total = |f: fn(&FleetResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let leases = total(|r| r.leases);
    report.set("fleet.waves", total(|r| r.waves));
    report.set("fleet.leases", leases);
    report.set("fleet.seeds_shared", total(|r| r.seeds_shared));
    report.set(
        "fleet.seeds_share_rejected",
        total(|r| r.seeds_share_rejected),
    );
    let outcomes: Vec<&CampaignOutcome> = results.iter().flat_map(|r| &r.campaigns).collect();
    report.set(
        "fleet.coverage_of_reachable",
        mean(&outcomes, |o| o.coverage_of_reachable()),
    );
    if let Some(result) = results.first() {
        boundaries(report, fleet_seeds(seed)[0], result, leases);
    }
    layer_sum(
        report,
        per_rep(&|r| r.cpu_s),
        schedule + admit + in_target + pick + observe,
        run_cpu - in_target - pick - observe,
    );
}

/// Costs paid at every lease boundary, measured in CPU time on the final
/// checkpoints of the reference run's first fleet, outside any timed
/// window: a zero-tick resume, and a rare-seed pack export and import
/// between partitions of one subject. `leases` is the repetition's total.
fn boundaries(report: &mut Report, seed: u64, result: &FleetResult, leases: f64) {
    let fleet = build_fleet(seed, false);
    let mut resume_ms = Vec::new();
    let mut export_ms = Vec::new();
    let mut import_ms = Vec::new();
    for (i, (campaign, outcome)) in fleet.iter().zip(&result.campaigns).enumerate() {
        let checkpoint = outcome.checkpoint.clone();
        let started = thread_cpu_s();
        let resumed = run_campaign_slice(
            &campaign.spec,
            &campaign.fuzzer,
            &campaign.setups,
            &campaign.options,
            Some(checkpoint),
            Ticks::ZERO,
        );
        resume_ms.push((thread_cpu_s() - started) * 1000.0);
        report.check(
            format!("zero-tick resume of {} succeeds", campaign.id),
            resumed.is_ok(),
        );

        let started = thread_cpu_s();
        let pack = outcome.checkpoint.export_rare_seeds(SHARE);
        export_ms.push((thread_cpu_s() - started) * 1000.0);
        // The next partition of the same subject receives the pack.
        let sibling = i - i % PARTITIONS + (i + 1) % PARTITIONS;
        let constraints = (campaign.spec.build)().config_constraints();
        let mut recipient = result.campaigns[sibling].checkpoint.clone();
        let started = thread_cpu_s();
        let _ = recipient.import_seed_pack(&pack, &constraints);
        import_ms.push((thread_cpu_s() - started) * 1000.0);
    }
    let resume = median(&resume_ms);
    report.set("slice.resume_ms", resume);
    report.set("slice.boundary_s", resume / 1000.0 * leases);
    report.set("seedpack.export_ms", median(&export_ms));
    report.set("seedpack.import_ms", median(&import_ms));
}

//! `table1`: the paper's grid. CMFuzz, Peach and SPFuzz each fuzz all six
//! subjects, one campaign at a time, with two instances run inline on the
//! benchmark's thread. Long uninterrupted campaigns put nearly all the
//! time in the session hot loop and the server's `handle`.

use std::time::Instant;

use cmfuzz::baseline::{cmfuzz_setups, peach_setups, try_spfuzz_setups};
use cmfuzz::campaign::{try_run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::metrics::{CampaignResult, CampaignStats, CorpusOccupancy};
use cmfuzz::preflight::preflight_campaign;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz::CampaignError;
use cmfuzz_coverage::Ticks;
use cmfuzz_fuzzer::{pit, Target};
use cmfuzz_protocols::{all_specs, ProtocolSpec};
use cmfuzz_server::{fnv1a_hex, result_digest};
use cmfuzz_telemetry::Telemetry;

use crate::stats::{beyond, median, percentile};
use crate::trace::{
    self, peak_rss_mib, thread_cpu_s, traced_spec, Calibration, TargetTimes, Timed,
};
use crate::{
    add_stats, layer_sum, mean, mix, repeat, report_counts, report_speed, Args, Report, Speed,
};

const FUZZERS: [&str; 3] = ["cmfuzz", "peach", "spfuzz"];
/// Two instances, run one after the other on the calling thread: the
/// worker pool would put a round barrier every 100 ticks between two
/// threads, so a thread the host preempts would stall the other.
const INSTANCES: usize = 2;
/// Virtual ticks per instance; one tick is one fuzzing session.
const BUDGET: u64 = 10_000;
/// Enough repetitions that the pooled per-campaign latencies keep ten
/// samples beyond their 90th percentile (18 campaigns a repetition).
const MIN_REPS: usize = 6;

/// One cell of the grid.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub spec: ProtocolSpec,
    pub fuzzer: &'static str,
    pub options: CampaignOptions,
}

/// The 18 campaigns of one grid, as the repo's `run_cmfuzz`, `run_peach`
/// and `run_spfuzz` configure them; preflight runs separately so that it
/// is timed as set-up.
pub fn grid(seed: u64, budget: u64) -> Vec<Campaign> {
    let mut grid = Vec::new();
    for fuzzer in FUZZERS {
        for spec in all_specs() {
            let mut options = CampaignOptions {
                instances: INSTANCES,
                budget: Ticks::new(budget),
                seed: mix(seed, grid.len() as u64),
                worker_pool: false,
                skip_preflight: true,
                ..CampaignOptions::default()
            };
            match fuzzer {
                "peach" => options.engine.seed_reuse_rate = 0.0,
                "spfuzz" => options.seed_sync_every_rounds = Some(4),
                _ => {}
            }
            grid.push(Campaign {
                spec,
                fuzzer,
                options,
            });
        }
    }
    grid
}

/// The instance setups each fuzzer hands its campaign.
fn setups<T: Target>(
    campaign: &Campaign,
    probe: &mut T,
) -> Result<Vec<InstanceSetup>, CampaignError> {
    match campaign.fuzzer {
        "cmfuzz" => {
            let schedule = build_schedule(probe, INSTANCES, &ScheduleOptions::default());
            Ok(cmfuzz_setups(&schedule, INSTANCES))
        }
        "peach" => Ok(peach_setups(INSTANCES)),
        _ => try_spfuzz_setups(&campaign.spec, INSTANCES),
    }
}

/// Builds the setups and runs the preflight, then the campaign itself.
/// Returns the result with the `(schedule, preflight, run)` CPU seconds
/// of the calling thread, which does all of the work, and the run's wall
/// seconds.
pub fn run_one(
    campaign: &Campaign,
    traced: bool,
) -> (Result<CampaignResult, CampaignError>, [f64; 4]) {
    let started = thread_cpu_s();
    let setups = if traced {
        setups(
            campaign,
            &mut Timed::new((campaign.spec.build)(), &trace::SCHEDULE),
        )
    } else {
        setups(campaign, &mut (campaign.spec.build)())
    };
    let scheduled = thread_cpu_s();
    let checked = setups.and_then(|setups| {
        let pit =
            pit::parse(campaign.spec.pit_document).map_err(|error| CampaignError::PitParse {
                target: campaign.spec.name.to_owned(),
                error,
            })?;
        let report = preflight_campaign(&campaign.spec, &pit, &setups, &Telemetry::disabled());
        if report.has_errors() {
            return Err(CampaignError::Preflight(report.into_diagnostics()));
        }
        Ok(setups)
    });
    let preflighted = thread_cpu_s();
    let wall = Instant::now();
    let spec = if traced {
        traced_spec(campaign.spec)
    } else {
        campaign.spec
    };
    let result = checked
        .and_then(|setups| try_run_campaign(&spec, campaign.fuzzer, &setups, &campaign.options));
    let times = [
        scheduled - started,
        preflighted - scheduled,
        thread_cpu_s() - preflighted,
        wall.elapsed().as_secs_f64(),
    ];
    (result, times)
}

/// One pass over the grid. Times are CPU seconds of the benchmark's
/// thread, the calibration kernel's left out.
#[derive(Debug, Default)]
struct Rep {
    calibration: Calibration,
    cpu_s: f64,
    schedule_s: f64,
    preflight_s: f64,
    run_s: f64,
    run_wall_s: f64,
    /// Each campaign's CPU milliseconds with the calibration chunk it
    /// followed.
    latencies_ms: Vec<(f64, usize)>,
    branches: usize,
    stats: CampaignStats,
    corpus: CorpusOccupancy,
    digests: String,
    attempted: u64,
    failed: u64,
    short: Vec<String>,
    target: TargetTimes,
    probes: u64,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        self.schedule_s + self.preflight_s
    }
}

fn rep(grid: &[Campaign], traced: bool) -> Rep {
    let cpu = thread_cpu_s();
    let mut rep = Rep::default();
    for campaign in grid {
        // One calibration chunk per campaign, about 2% of its CPU time.
        let chunk = rep.calibration.chunks();
        rep.calibration.run();
        let (result, [schedule, preflight, run, run_wall]) = run_one(campaign, traced);
        rep.schedule_s += schedule;
        rep.preflight_s += preflight;
        rep.run_s += run;
        rep.run_wall_s += run_wall;
        rep.latencies_ms
            .push(((schedule + preflight + run) * 1000.0, chunk));
        rep.attempted += 1;
        match result {
            Ok(result) => {
                let s = result.stats;
                let expected = campaign.options.budget.get() * campaign.options.instances as u64;
                if s.sessions != expected {
                    rep.failed += 1;
                    rep.short.push(format!(
                        "{}/{}: {} of {expected} sessions",
                        campaign.fuzzer, campaign.spec.name, s.sessions
                    ));
                }
                rep.branches += result.final_branches();
                add_stats(&mut rep.stats, &s);
                rep.corpus.seeds += result.corpus.seeds;
                rep.corpus.approx_bytes += result.corpus.approx_bytes;
                rep.digests.push_str(&result_digest(&result));
            }
            Err(error) => {
                rep.failed += 1;
                rep.short.push(format!(
                    "{}/{}: {error}",
                    campaign.fuzzer, campaign.spec.name
                ));
            }
        }
    }
    // A closing chunk, so that the last campaign has one on either side.
    rep.calibration.run();
    rep.cpu_s = thread_cpu_s() - cpu - rep.calibration.kernel_s();
    if traced {
        rep.target = trace::TARGETS.take();
        rep.probes = trace::SCHEDULE.take().boots;
    }
    rep
}

pub fn run(args: &Args) -> Report {
    let grid = grid(args.seed, BUDGET);
    let mut report = Report::default();
    // Warm-up pass: fills caches and fixes the reference digests.
    let reference = rep(&grid, false);
    // Peak memory of one repetition: later ones reuse (and fragment) the
    // allocator's arenas, so a peak read after a run of any length would
    // depend on how many repetitions fitted in it.
    report.set("peak_rss_mb", peak_rss_mib());
    let mut all = vec![];
    let measured = if args.trace {
        let untraced = repeat(args.seconds / 2.0, 2, || rep(&grid, false));
        let traced = repeat(args.seconds / 2.0, 2, || rep(&grid, true));
        per_layer(&mut report, &untraced, &traced);
        report.check(
            "traced digests equal untraced digests",
            traced.iter().all(|r| r.digests == reference.digests),
        );
        all.extend(untraced);
        traced
    } else {
        let reps = repeat(args.seconds, MIN_REPS, || rep(&grid, false));
        end_to_end(&mut report, &reps);
        reps
    };
    all.extend(measured);
    report.reps = all.len();
    report.check(
        "repetitions reproduce the warm-up digests",
        all.iter().all(|r| r.digests == reference.digests),
    );
    all.push(reference);
    let short: Vec<&String> = all.iter().flat_map(|r| &r.short).collect();
    for problem in short.iter().take(5) {
        eprintln!("perfbench: table1 campaign failed: {problem}");
    }
    report.check(
        "every campaign ran and reached its budget",
        short.is_empty(),
    );
    report.attempted += all.iter().map(|r| r.attempted).sum::<u64>();
    report.failed += all.iter().map(|r| r.failed).sum::<u64>();
    eprintln!("perfbench: table1 digest {}", fnv1a_hex(&all[0].digests));
    report
}

/// The end-to-end metrics: CPU times at reference speed, each repetition's
/// totals scaled by its own calibration and each campaign's latency by
/// the chunks on either side of it.
fn end_to_end(report: &mut Report, reps: &[Rep]) {
    let setup: Vec<f64> = reps
        .iter()
        .map(|r| r.setup_s() * r.calibration.factor())
        .collect();
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| r.stats.sessions as f64 / (r.run_s * r.calibration.factor()))
        .collect();
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            r.latencies_ms
                .iter()
                .map(|(ms, chunk)| ms * r.calibration.factor_after(*chunk))
        })
        .collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    report.set("setup_s", median(&setup));
    report.set("sessions_per_cpu_s", median(&rate));
    report.set("branches", reps[0].branches as f64);
    report.check(
        format!("{} latency samples keep ten beyond p90", latencies.len()),
        beyond(latencies.len(), 90.0) >= 10,
    );
    report.set("latency_cpu_ms.p50", median(&latencies));
    report.set(
        "latency_cpu_ms.p90",
        percentile(&latencies, 90.0).unwrap_or(0.0),
    );
    report.set(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
}

fn per_layer(report: &mut Report, untraced: &[Rep], traced: &[Rep]) {
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
    let preflight = per_rep(&|r| r.preflight_s);
    let run_cpu = per_rep(&|r| r.run_s);
    let in_target = per_rep(&|r| r.target.total_s());
    report.set("schedule.build_s", schedule);
    report.set("schedule.startup_probes", per_rep(&|r| r.probes as f64));
    report.set("preflight.s", preflight);
    report.set("target.handle_s", target(|t| t.handle_ns) / 1e9);
    report.set("target.messages", target(|t| t.messages));
    report.set("target.faults", target(|t| t.faults));
    report.set("target.start_s", target(|t| t.start_ns) / 1e9);
    report.set("target.boots", target(|t| t.boots));
    report.set("target.export_s", target(|t| t.export_ns) / 1e9);
    report.set("target.import_s", target(|t| t.import_ns) / 1e9);
    report.set("campaign.run_s", run_cpu);
    report.set("campaign.other_s", run_cpu - in_target);
    report_counts(report, &traced[0].stats, &traced[0].corpus);
    layer_sum(
        report,
        per_rep(&|r| r.cpu_s),
        schedule + preflight + in_target,
        run_cpu - in_target,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz::baseline::{try_run_cmfuzz_with, try_run_peach_with, try_run_spfuzz_with};

    /// The grid's split set-up (schedule, preflight, then a campaign that
    /// skips preflight) reproduces the repo's own fuzzer entry points.
    #[test]
    fn split_setup_reproduces_the_repo_fuzzers() {
        let off = Telemetry::disabled();
        for campaign in grid(3, 300)
            .into_iter()
            .filter(|c| c.spec.name == "dnsmasq")
        {
            let (ours, _) = run_one(&campaign, false);
            let mut options = campaign.options.clone();
            options.skip_preflight = false;
            let spec = &campaign.spec;
            let reference = match campaign.fuzzer {
                "cmfuzz" => try_run_cmfuzz_with(spec, &ScheduleOptions::default(), &options, &off),
                "peach" => {
                    options.engine.seed_reuse_rate =
                        CampaignOptions::default().engine.seed_reuse_rate;
                    try_run_peach_with(spec, &options, &off)
                }
                _ => {
                    options.seed_sync_every_rounds = None;
                    try_run_spfuzz_with(spec, &options, &off)
                }
            };
            assert_eq!(
                result_digest(&ours.expect("grid campaign runs")),
                result_digest(&reference.expect("reference runs")),
                "{}",
                campaign.fuzzer
            );
        }
    }

    #[test]
    fn grid_is_a_pure_function_of_the_seed() {
        let render = |seed| format!("{:?}", grid(seed, 100));
        assert_eq!(render(5), render(5));
        assert_ne!(render(5), render(6));
        assert_eq!(grid(5, 100).len(), 18);
    }
}

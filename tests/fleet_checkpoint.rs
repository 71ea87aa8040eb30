//! Checkpoint/resume determinism gate for the fleet scheduler.
//!
//! The fleet's core guarantee: slicing is invisible. However a campaign's
//! budget is partitioned into slices — any count, any sizes, any pause
//! points — resuming from the checkpoints reproduces the uninterrupted
//! `run_campaign` result byte-for-byte, including under an impaired
//! network link (whose in-flight datagrams and RNG position must cross
//! the checkpoint too). The slicings here are drawn from a seeded LCG so
//! the test is deterministic without touching wall-clock or OS entropy.

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::{run_campaign_slice, try_run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::metrics::CampaignResult;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{run_fleet, CoverageGradient, FleetCampaign, FleetOptions, FleetResult};
use cmfuzz_fuzzer::{CorpusConfig, EngineConfig};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{spec_by_name, ProtocolSpec};
use cmfuzz_server::{fnv1a_hex, result_digest};

/// Deterministic pseudo-random stream (Knuth LCG, high bits).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn campaign_options(seed: u64, link: LinkConditions) -> CampaignOptions {
    CampaignOptions {
        instances: 2,
        budget: Ticks::new(600),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(200),
        seed,
        seed_sync_every_rounds: Some(2),
        worker_pool: false,
        link,
        ..CampaignOptions::default()
    }
}

/// Runs the campaign through the given slice budgets (then drains any
/// remaining budget in one final slice) and assembles the result.
fn run_sliced(
    spec: &ProtocolSpec,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    slices: &[u64],
) -> CampaignResult {
    let mut checkpoint = None;
    for &slice in slices {
        let (next, report) = run_campaign_slice(
            spec,
            "cmfuzz",
            setups,
            options,
            checkpoint.take(),
            Ticks::new(slice),
        )
        .expect("slice runs");
        checkpoint = Some(next);
        if report.done {
            break;
        }
    }
    loop {
        let resumed = checkpoint.take().expect("checkpoint exists");
        if resumed.is_complete() {
            return resumed.into_result();
        }
        let (next, _) = run_campaign_slice(
            spec,
            "cmfuzz",
            setups,
            options,
            Some(resumed),
            options.budget,
        )
        .expect("final slice runs");
        checkpoint = Some(next);
    }
}

/// The three reference configurations: two plain subjects (dnsmasq has a
/// reachable fault, so the fault log crosses checkpoints too) and one
/// under a heavily impaired link.
fn subjects() -> Vec<(&'static str, u64, LinkConditions)> {
    vec![
        ("mosquitto", 0x5EED_0001, LinkConditions::perfect()),
        ("dnsmasq", 0x5EED_0002, LinkConditions::perfect()),
        ("libcoap", 0x5EED_0003, LinkConditions::new(0.3, 0.1, 0.1)),
    ]
}

#[test]
fn random_slicings_reproduce_the_uninterrupted_campaign() {
    for (name, seed, link) in subjects() {
        let spec = spec_by_name(name).expect("subject exists");
        let setups = vec![InstanceSetup::default(); 2];
        let options = campaign_options(seed, link);
        let reference = try_run_campaign(&spec, "cmfuzz", &setups, &options)
            .expect("uninterrupted campaign runs");
        let expected = format!("{reference:?}");

        let mut rng = seed ^ 0xA5A5_A5A5_A5A5_A5A5;
        for trial in 0..4 {
            let count = 1 + (lcg(&mut rng) % 8) as usize;
            // Random slice budgets, deliberately including non-multiples
            // of the round length (the runner floors to round boundaries).
            let slices: Vec<u64> = (0..count)
                .map(|_| 100 * (1 + lcg(&mut rng) % 6) + 50 * (lcg(&mut rng) % 2))
                .collect();
            let sliced = run_sliced(&spec, &setups, &options, &slices);
            assert_eq!(
                format!("{sliced:?}"),
                expected,
                "{name} trial {trial}: slicing {slices:?} diverged from the uninterrupted run"
            );
        }
    }
}

#[test]
fn one_full_budget_slice_is_the_uninterrupted_campaign() {
    for (name, seed, link) in subjects() {
        let spec = spec_by_name(name).expect("subject exists");
        let setups = vec![InstanceSetup::default(); 2];
        let options = campaign_options(seed, link);
        let reference = try_run_campaign(&spec, "cmfuzz", &setups, &options)
            .expect("uninterrupted campaign runs");
        let (checkpoint, report) =
            run_campaign_slice(&spec, "cmfuzz", &setups, &options, None, options.budget)
                .expect("full-budget slice runs");
        assert!(report.done);
        assert_eq!(
            format!("{:?}", checkpoint.into_result()),
            format!("{reference:?}"),
        );
    }
}

#[test]
fn same_seed_fleet_runs_are_bit_identical() {
    let fleet: Vec<FleetCampaign> = subjects()
        .into_iter()
        .map(|(name, seed, link)| FleetCampaign {
            id: format!("{name}/fleet-e2e"),
            spec: spec_by_name(name).expect("subject exists"),
            fuzzer: "cmfuzz".into(),
            setups: vec![InstanceSetup::default(); 2],
            options: campaign_options(seed, link),
            share_group: None,
        })
        .collect();
    let run = || {
        run_fleet(
            &fleet,
            &mut CoverageGradient::new(),
            &FleetOptions {
                slots: 2,
                slice: Ticks::new(150),
                total_budget: Some(Ticks::new(1200)),
                ..FleetOptions::default()
            },
        )
        .expect("fleet runs")
    };
    let first = run();
    let second = run();
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(first.spent, Ticks::new(1200));
    assert!(
        !first.all_complete(),
        "1800 ticks of work under a 1200 allowance"
    );
}

/// Scheduling totals plus every campaign's full result digest.
fn fleet_digest(result: &FleetResult) -> String {
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

/// A small relation-aware sharing fleet: three subjects, three
/// configuration partitions each, one single-instance campaign per
/// partition with the intelligent corpus, every subject its own sharing
/// group. One slot and an allowance below the 9 × 1,000 ticks the
/// campaigns ask for, so most recipients sit out most waves while holding
/// seeds imported at earlier boundaries.
#[test]
fn sharing_fleet_matches_its_golden_digest() {
    let mut fleet = Vec::new();
    for name in ["mosquitto", "dnsmasq", "libcoap"] {
        let spec = spec_by_name(name).expect("subject exists");
        let schedule = build_schedule(&mut (spec.build)(), 3, &ScheduleOptions::default());
        for (part, setup) in cmfuzz_setups(&schedule, 3).into_iter().enumerate() {
            fleet.push(FleetCampaign {
                id: format!("{name}/part-{part}"),
                spec,
                fuzzer: "cmfuzz".into(),
                setups: vec![setup],
                options: CampaignOptions {
                    instances: 1,
                    budget: Ticks::new(1_000),
                    sample_interval: Ticks::new(100),
                    saturation_window: Ticks::new(200),
                    seed: 0x5EED_0100 + fleet.len() as u64,
                    worker_pool: false,
                    engine: EngineConfig {
                        corpus: CorpusConfig::intelligent(),
                        ..EngineConfig::default()
                    },
                    ..CampaignOptions::default()
                },
                share_group: Some(name.to_owned()),
            });
        }
    }
    let result = run_fleet(
        &fleet,
        &mut CoverageGradient::new(),
        &FleetOptions {
            slots: 1,
            slice: Ticks::new(200),
            total_budget: Some(Ticks::new(6_000)),
            skip_preflight: false,
            share_rare_seeds: 4,
        },
    )
    .expect("fleet runs");
    assert_eq!(result.spent, Ticks::new(6_000));
    assert!(!result.all_complete(), "9,000 ticks of work under 6,000");
    assert!(result.seeds_shared > 0, "partitions exchange seeds");
    assert_eq!(fleet_digest(&result), "7120fc3cc6759dff");
}

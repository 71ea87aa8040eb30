//! The parallel campaign runner.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use cmfuzz_config_model::{ConfigValue, ConstraintSet, ResolvedConfig};
use cmfuzz_coverage::{CoverageSnapshot, SaturationDetector, Ticks, VirtualClock};
use cmfuzz_fuzzer::pit::{self, PitDefinition};
use cmfuzz_fuzzer::state_codec::{StateReader, StateWriter};
use cmfuzz_fuzzer::{
    EngineCheckpoint, EngineConfig, FaultLog, FuzzEngine, Seed, StartError, SEED_OUTBOX_CAP,
};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{NetworkedTarget, ProtocolSpec, ProtocolTarget};
use cmfuzz_telemetry::{EngineTelemetry, Event, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{CampaignResult, ConfigMutationEvent, CorpusOccupancy, CoverageCurve};

pub use crate::error::CampaignError;

/// Options shared by every campaign (CMFuzz and baselines run under
/// identical budgets — the paper's fairness requirement).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Parallel fuzzing instances (the paper uses 4).
    pub instances: usize,
    /// Virtual-time budget per instance; stands in for the 24-hour wall
    /// clock (one tick = one fuzzing session).
    pub budget: Ticks,
    /// Coverage-curve sampling interval (also the round length).
    pub sample_interval: Ticks,
    /// Sessions executed per [`FuzzEngine::run_batch`] call inside a
    /// round. Purely a throughput knob: a batch renders its sessions into
    /// one arena and pays the per-call setup and batch telemetry once,
    /// while each session still settles its own coverage, so results are
    /// bit-identical at every batch size (including 1) under every engine
    /// and corpus configuration. Clamped to at least 1.
    ///
    /// [`FuzzEngine::run_batch`]: cmfuzz_fuzzer::FuzzEngine::run_batch
    pub batch: usize,
    /// Stagnation window before adaptive configuration mutation fires.
    pub saturation_window: Ticks,
    /// Campaign RNG seed; repetitions use different seeds.
    pub seed: u64,
    /// Share retained seeds across instances every N rounds (SPFuzz-style
    /// synchronization); `None` disables sharing.
    pub seed_sync_every_rounds: Option<u32>,
    /// Run rounds on persistent per-instance worker threads (spawned once
    /// for the whole campaign and parked on a round barrier in between).
    /// `false` executes every instance's round inline on the calling
    /// thread — byte-identical results, kept as the sequential reference
    /// for determinism tests and for single-core debugging.
    pub worker_pool: bool,
    /// Link impairment applied to every instance's network namespace
    /// (loss/duplication/reordering, the paper's lossy IoT radio links).
    /// The impairment RNG is derived from [`CampaignOptions::seed`] per
    /// instance, so impaired campaigns stay deterministic. The default
    /// perfect link never consults that RNG and reproduces the historical
    /// behaviour bit-for-bit.
    pub link: LinkConditions,
    /// Base engine tunables (per-instance seeds are derived from `seed`).
    pub engine: EngineConfig,
    /// Skip the static preflight verification pass. Preflight rejects a
    /// campaign with [`CampaignError::Preflight`] when `cmfuzz-analyze`
    /// finds error-severity defects in the subject's models or the
    /// instance setups; set this to deliberately run a broken setup (for
    /// example to exercise the runner's boot-time fallback paths).
    pub skip_preflight: bool,
    /// Label stamped onto every telemetry event this campaign emits (see
    /// [`Telemetry::set_campaign`]). Fleet runs multiplex many campaigns
    /// over one JSONL stream; the label keeps each line attributable.
    /// `None` leaves events unlabelled.
    pub campaign_id: Option<String>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            instances: 4,
            budget: Ticks::new(20_000),
            sample_interval: Ticks::new(100),
            batch: 16,
            saturation_window: Ticks::new(600),
            seed: 0,
            seed_sync_every_rounds: None,
            worker_pool: true,
            link: LinkConditions::perfect(),
            engine: EngineConfig::default(),
            skip_preflight: false,
            campaign_id: None,
        }
    }
}

/// What one parallel instance is told to do — the output of a scheduler,
/// consumed by [`run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct InstanceSetup {
    /// Startup configuration (empty = target defaults, the baselines'
    /// behaviour).
    pub initial_config: ResolvedConfig,
    /// Entities this instance may mutate adaptively on saturation, with
    /// their typical values (paper §III-B2). Empty disables adaptive
    /// configuration mutation.
    pub adaptive_entities: Vec<(String, Vec<ConfigValue>)>,
    /// Fixed session plans (SPFuzz path partitioning); empty = random
    /// state-model walks.
    pub session_plans: Vec<Vec<String>>,
}

struct Instance {
    engine: FuzzEngine<NetworkedTarget<ProtocolTarget>>,
    config: ResolvedConfig,
    adaptive: Vec<(String, Vec<ConfigValue>)>,
    saturation: SaturationDetector,
    rng: StdRng,
    /// Whether an `InstanceStalled` event was already emitted (non-adaptive
    /// instances only; adaptive ones mutate their way out instead).
    stalled: bool,
}

/// One instance's share of a [`CampaignCheckpoint`].
#[derive(Debug, Clone)]
struct InstanceCheckpoint {
    engine: EngineCheckpoint,
    /// The configuration running at pause time (adaptive mutation may have
    /// moved it away from the setup's `initial_config`).
    config: ResolvedConfig,
    rng: [u64; 4],
    saturation: SaturationDetector,
    stalled: bool,
}

impl InstanceCheckpoint {
    /// Retained seeds, oldest first, then the seeds imported since the
    /// pause: the corpus the next resume rebuilds, before deduplication.
    fn seeds(&self) -> impl Iterator<Item = &Seed> {
        self.engine.corpus.iter().chain(&self.engine.pending)
    }
}

/// A campaign paused at a round boundary: everything
/// [`run_campaign_slice`] needs to resume it and reproduce the
/// uninterrupted [`run_campaign`] byte-for-byte.
///
/// The checkpoint owns all mutable campaign state (the seeds moved out of
/// each engine's corpus, seeds imported since, accumulated coverage, RNG
/// stream positions, fault logs, the coverage curve, the virtual clock
/// reading), so it stays valid after the slice that produced it returns
/// and across any number of other campaigns' slices in between — the
/// property the fleet scheduler is built on. It also shares the parsed
/// Pit the campaign booted with, so a resume skips parsing it again.
///
/// It is a plain data snapshot: no engine or corpus index stays resident
/// between slices, and cloning it shares the Pit and every seed's bytes.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    pit: Arc<PitDefinition>,
    fuzzer: String,
    target: String,
    budget: Ticks,
    rounds_total: u64,
    rounds_done: u64,
    consumed: Ticks,
    curve: CoverageCurve,
    config_mutations: Vec<ConfigMutationEvent>,
    seen_faults: FaultLog,
    instances: Vec<InstanceCheckpoint>,
}

impl CampaignCheckpoint {
    /// Rounds executed so far.
    #[must_use]
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }

    /// Virtual time consumed so far.
    #[must_use]
    pub fn consumed(&self) -> Ticks {
        self.consumed
    }

    /// Whether the campaign's whole budget has been executed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.rounds_done >= self.rounds_total
    }

    /// Union branch coverage across instances at pause time.
    #[must_use]
    pub fn union_branches(&self) -> usize {
        self.curve.final_branches()
    }

    /// Converts the checkpoint into the [`CampaignResult`] the equivalent
    /// uninterrupted [`run_campaign`] would have returned. Normally called
    /// once [`CampaignCheckpoint::is_complete`]; calling earlier yields the
    /// partial result up to the pause point.
    #[must_use]
    pub fn into_result(self) -> CampaignResult {
        let mut faults = FaultLog::new();
        let mut stats = crate::metrics::CampaignStats::default();
        for instance in &self.instances {
            faults.merge(&instance.engine.faults);
            stats.sessions += instance.engine.stats.sessions;
            stats.messages += instance.engine.stats.messages;
            stats.crashes_observed += instance.engine.stats.crashes_observed;
            stats.seeds_retained += instance.engine.stats.seeds_retained;
            stats.seeds_deduped_exact += instance.engine.stats.seeds_deduped_exact;
            stats.seeds_deduped_near += instance.engine.stats.seeds_deduped_near;
            stats.seeds_evicted += instance.engine.stats.seeds_evicted;
            stats.seeds_imported += instance.engine.stats.seeds_imported;
        }
        let corpus = self.corpus_occupancy();
        let coverage =
            CoverageSnapshot::merge(self.instances.iter().map(|i| &i.engine.accumulated))
                .unwrap_or_else(|| CoverageSnapshot::empty(0));
        CampaignResult {
            fuzzer: self.fuzzer,
            target: self.target,
            instances: self.instances.len(),
            budget: self.budget,
            curve: self.curve,
            coverage,
            faults,
            config_mutations: self.config_mutations,
            stats,
            corpus,
        }
    }

    /// Corpus occupancy at pause time, summed over instances — the
    /// memory-cap evidence fleet benchmarks report per campaign. Seeds
    /// imported since the pause count as resident.
    #[must_use]
    pub fn corpus_occupancy(&self) -> CorpusOccupancy {
        let mut occupancy = CorpusOccupancy::default();
        for instance in &self.instances {
            for seed in instance.seeds() {
                occupancy.seeds += 1;
                occupancy.approx_bytes += seed.bytes.len();
            }
        }
        occupancy
    }

    /// Serializes up to `max` of this campaign's rarest retained seeds
    /// into a portable seed pack for fleet-wide sharing.
    ///
    /// Candidates are drawn from every instance corpus, seeds imported
    /// since the pause included, ordered by rarity score ascending
    /// (lower = rarer coverage; unscored seeds carry 0 and sort first)
    /// with ties broken by instance order then retention order (imports
    /// after the instance's retained seeds), and deduplicated by content
    /// hash so one campaign never donates the same input twice. The pack is self-describing:
    /// [`CampaignCheckpoint::import_seed_pack`] on any campaign of the
    /// same subject can decode it.
    #[must_use]
    pub fn export_rare_seeds(&self, max: usize) -> Vec<u8> {
        let mut candidates: Vec<&Seed> = Vec::new();
        for instance in &self.instances {
            candidates.extend(instance.seeds());
        }
        // Stable sort: equal rarities keep (instance, retention) order.
        candidates.sort_by_key(|s| s.rarity);
        let mut seen = std::collections::BTreeSet::new();
        let mut selected: Vec<&Seed> = Vec::new();
        for seed in candidates {
            if selected.len() >= max {
                break;
            }
            if seen.insert(seed.content_hash()) {
                selected.push(seed);
            }
        }
        let mut writer = StateWriter::new();
        writer.usize(selected.len());
        for seed in selected {
            seed.encode(&mut writer);
        }
        writer.finish()
    }

    /// Imports a seed pack produced by
    /// [`CampaignCheckpoint::export_rare_seeds`] into every instance whose
    /// current resolved configuration satisfies `constraints`, returning
    /// `(accepted, rejected)` transfer counts.
    ///
    /// Instances whose running configuration violates the constraint set
    /// (adaptive mutation may have moved it into a region the subject's
    /// models declare unreachable) reject the whole pack; each rejected
    /// seed counts once per rejecting instance. Accepted seeds wait in the
    /// instance's pending list until the next [`run_campaign_slice`]
    /// resume, which offers them to the engine's corpus through its
    /// normal retention path, so exact and near duplicates of seeds the
    /// recipient already holds are still dropped there. Until then they
    /// count toward [`CampaignCheckpoint::corpus_occupancy`] and are
    /// donated by [`CampaignCheckpoint::export_rare_seeds`] like retained
    /// seeds. Seeds already present verbatim, retained or pending, are
    /// skipped here without counting.
    ///
    /// # Panics
    ///
    /// Panics if `pack` is not a well-formed seed pack.
    pub fn import_seed_pack(&mut self, pack: &[u8], constraints: &ConstraintSet) -> (u64, u64) {
        let mut reader = StateReader::new(pack);
        let count = reader.usize();
        let seeds: Vec<Seed> = (0..count).map(|_| Seed::decode(&mut reader)).collect();
        reader.finish();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for instance in &mut self.instances {
            if !constraints.violations(&instance.config).is_empty() {
                rejected += seeds.len() as u64;
                continue;
            }
            for seed in &seeds {
                let duplicate = instance
                    .seeds()
                    .any(|s| s.content_hash() == seed.content_hash() && s.bytes == seed.bytes);
                if duplicate {
                    continue;
                }
                instance.engine.pending.push(seed.clone());
                instance.engine.stats.seeds_imported += 1;
                accepted += 1;
            }
        }
        (accepted, rejected)
    }
}

/// Number of seeds in a pack produced by
/// [`CampaignCheckpoint::export_rare_seeds`], without importing it.
///
/// # Panics
///
/// Panics if `pack` is shorter than the count prefix.
#[must_use]
pub fn seed_pack_len(pack: &[u8]) -> usize {
    StateReader::new(pack).usize()
}

/// What one [`run_campaign_slice`] call actually executed — the scheduling
/// signal fleet policies feed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceReport {
    /// Rounds executed in this slice (0 when the campaign was already
    /// complete or the slice budget was below one round).
    pub rounds: u64,
    /// Fuzzing sessions executed in this slice, summed over instances.
    pub sessions: u64,
    /// Union branches discovered during this slice.
    pub new_branches: usize,
    /// Total union branch coverage after the slice.
    pub union_branches: usize,
    /// Whether the campaign's whole budget is now exhausted.
    pub done: bool,
    /// Whether a [`CampaignControl`] signal stopped the slice at a round
    /// boundary before its budget ran out (the checkpoint resumes exactly
    /// where the interruption landed).
    pub interrupted: bool,
}

#[derive(Debug, Default)]
struct ControlInner {
    paused: AtomicBool,
    killed: AtomicBool,
}

/// Live control signals for a running campaign.
///
/// A control handle is shared between an operator (the control plane) and
/// the slice runner: [`run_campaign_slice_with_control`] checks it at
/// every round boundary and stops the slice early — never mid-round — when
/// a pause or kill is requested, returning a resumable checkpoint with
/// [`SliceReport::interrupted`] set. The handle carries no RNG and is
/// consulted strictly *between* rounds, so control actions change how much
/// work a slice does but never what any executed round computes: resuming
/// an interrupted checkpoint reproduces the uninterrupted campaign
/// byte-for-byte.
///
/// Cloning shares the signal. Pause is reversible ([`CampaignControl::resume`]);
/// kill is permanent.
#[derive(Debug, Clone, Default)]
pub struct CampaignControl {
    inner: Arc<ControlInner>,
}

impl CampaignControl {
    /// Creates a handle with no signal raised.
    #[must_use]
    pub fn new() -> Self {
        CampaignControl::default()
    }

    /// Requests a stop at the next round boundary; reversible.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::Release);
    }

    /// Clears a pause request (a kill stays in force).
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::Release);
    }

    /// Permanently requests a stop at the next round boundary.
    pub fn kill(&self) {
        self.inner.killed.store(true, Ordering::Release);
    }

    /// Whether a pause is currently requested.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.inner.paused.load(Ordering::Acquire)
    }

    /// Whether the campaign has been killed.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.inner.killed.load(Ordering::Acquire)
    }

    /// Whether the runner should stop at the next round boundary.
    #[must_use]
    pub fn should_stop(&self) -> bool {
        self.is_paused() || self.is_killed()
    }
}

/// Runs one parallel fuzzing campaign: `setups.len()` isolated instances
/// over the shared Pit models of `spec`, each in its own network
/// namespace, with per-round coverage sampling, optional seed
/// synchronization, and adaptive configuration mutation for instances that
/// declare adaptive entities.
///
/// Instances execute their rounds on real threads (the "parallel" in
/// parallel fuzzing) but the result is deterministic for a given options
/// struct because instances share nothing except the round barrier.
///
/// # Panics
///
/// Panics on any [`CampaignError`]; use [`try_run_campaign`] to handle
/// failures programmatically.
#[must_use]
pub fn run_campaign(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
) -> CampaignResult {
    run_campaign_with_telemetry(spec, fuzzer, setups, options, &Telemetry::disabled())
}

/// [`run_campaign`], but campaign-level failures come back as a typed
/// [`CampaignError`] instead of a panic.
///
/// # Errors
///
/// Returns [`CampaignError::NoInstances`] for an empty `setups`,
/// [`CampaignError::PitParse`] for a broken registry Pit document,
/// [`CampaignError::Preflight`] when static analysis finds error-severity
/// model defects (unless `options.skip_preflight`),
/// [`CampaignError::TargetBoot`] when an instance cannot boot its default
/// configuration, and [`CampaignError::Restart`] when a mid-campaign
/// restart strands an instance.
pub fn try_run_campaign(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    try_run_campaign_with_telemetry(spec, fuzzer, setups, options, &Telemetry::disabled())
}

/// [`run_campaign`] with an observability pipeline attached.
///
/// The runner emits the full event taxonomy (`CampaignStarted`,
/// `RoundCompleted`, `SaturationDetected`, `ConfigMutated`, `SeedSynced`,
/// `FaultFound`, `InstanceStalled`, `CampaignFinished`), mirrors engine
/// execution counters into `telemetry`'s registry, and records per-instance
/// `"fuzzing"` phase spans in virtual ticks. The event bus is drained to
/// the sinks at every round boundary, so sink output order is as
/// deterministic as the campaign itself. A disabled pipeline reduces to
/// [`run_campaign`] exactly — instrumentation never perturbs the RNG
/// sequence, so results are identical either way.
///
/// # Panics
///
/// As [`run_campaign`].
#[must_use]
pub fn run_campaign_with_telemetry(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> CampaignResult {
    match try_run_campaign_with_telemetry(spec, fuzzer, setups, options, telemetry) {
        Ok(result) => result,
        Err(error) => panic!("campaign failed: {error}"),
    }
}

/// [`run_campaign_with_telemetry`] with typed failures.
///
/// # Errors
///
/// As [`try_run_campaign`].
pub fn try_run_campaign_with_telemetry(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> Result<CampaignResult, CampaignError> {
    let (checkpoint, _report) = run_campaign_slice_with_telemetry(
        spec,
        fuzzer,
        setups,
        options,
        None,
        options.budget,
        telemetry,
    )?;
    Ok(checkpoint.into_result())
}

/// Runs up to `slice_budget` virtual ticks of a campaign, pausing at the
/// next round boundary, and returns a resumable [`CampaignCheckpoint`]
/// plus a [`SliceReport`] of what the slice executed.
///
/// Pass `None` to boot a fresh campaign, or a previous call's checkpoint
/// to resume it. Slicing is invisible to the campaign: any partition of
/// the budget into slices reproduces the uninterrupted [`run_campaign`]
/// result byte-for-byte ([`CampaignCheckpoint::into_result`]), because the
/// checkpoint carries every RNG stream position, each instance's corpus,
/// accumulated coverage, target and link-impairment state.
///
/// `spec`, `fuzzer`, `setups`, and `options` must be the same on every
/// call for a given campaign; the checkpoint stores only mutable state.
///
/// # Errors
///
/// As [`try_run_campaign`]; preflight runs only on the initial boot.
///
/// # Panics
///
/// Panics if `checkpoint` came from a campaign with a different subject or
/// instance count.
pub fn run_campaign_slice(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    checkpoint: Option<CampaignCheckpoint>,
    slice_budget: Ticks,
) -> Result<(CampaignCheckpoint, SliceReport), CampaignError> {
    run_campaign_slice_with_telemetry(
        spec,
        fuzzer,
        setups,
        options,
        checkpoint,
        slice_budget,
        &Telemetry::disabled(),
    )
}

/// [`run_campaign_slice`] with an observability pipeline attached; the
/// slice stamps every event with `options.campaign_id` (see
/// [`CampaignOptions::campaign_id`]).
///
/// # Errors
///
/// As [`run_campaign_slice`].
pub fn run_campaign_slice_with_telemetry(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    checkpoint: Option<CampaignCheckpoint>,
    slice_budget: Ticks,
    telemetry: &Telemetry,
) -> Result<(CampaignCheckpoint, SliceReport), CampaignError> {
    run_campaign_slice_with_control(
        spec,
        fuzzer,
        setups,
        options,
        checkpoint,
        slice_budget,
        telemetry,
        None,
    )
}

/// [`run_campaign_slice_with_telemetry`] that additionally honours live
/// [`CampaignControl`] signals: the handle is checked at every round
/// boundary, and a raised pause/kill stops the slice there with
/// [`SliceReport::interrupted`] set. `None` behaves exactly like the
/// uncontrolled variant. Control never touches engine RNG — an interrupted
/// checkpoint resumed later reproduces the uninterrupted campaign
/// byte-for-byte.
///
/// # Errors
///
/// As [`run_campaign_slice`].
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_campaign_slice_with_control(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    mut checkpoint: Option<CampaignCheckpoint>,
    slice_budget: Ticks,
    telemetry: &Telemetry,
    control: Option<&CampaignControl>,
) -> Result<(CampaignCheckpoint, SliceReport), CampaignError> {
    if setups.is_empty() {
        return Err(CampaignError::NoInstances);
    }
    // A resume reuses the Pit the campaign booted with and takes the
    // instance checkpoints out to move them into the engines; only a
    // fresh boot parses the Pit and runs preflight.
    let (pit, mut saved) = match &mut checkpoint {
        Some(resume) => {
            assert_eq!(
                resume.target, spec.name,
                "checkpoint is for {}",
                resume.target
            );
            assert_eq!(
                resume.instances.len(),
                setups.len(),
                "checkpoint was taken with a different instance count"
            );
            let saved = std::mem::take(&mut resume.instances);
            (Arc::clone(&resume.pit), saved.into_iter())
        }
        None => {
            let pit = pit::parse(spec.pit_document).map_err(|error| CampaignError::PitParse {
                target: spec.name.to_owned(),
                error,
            })?;
            if !options.skip_preflight {
                let report = crate::preflight::preflight_campaign(spec, &pit, setups, telemetry);
                if report.has_errors() {
                    return Err(CampaignError::Preflight(report.into_diagnostics()));
                }
            }
            (Arc::new(pit), Vec::new().into_iter())
        }
    };
    telemetry.set_campaign(options.campaign_id.as_deref());
    let engine_telemetry = EngineTelemetry::for_pipeline(telemetry);

    let mut instances: Vec<Instance> = Vec::with_capacity(setups.len());
    for (i, setup) in setups.iter().enumerate() {
        let target = NetworkedTarget::with_conditions(
            (spec.build)(),
            &format!("{fuzzer}-{}-{i}", spec.name),
            options.link,
            // Distinct from the engine and mutation seed streams; a
            // perfect link never draws from it.
            (options.seed ^ 0x4C49_4E4B_F00D_5EED).wrapping_add(i as u64),
        );
        let engine_config = EngineConfig {
            seed: options
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64),
            ..options.engine.clone()
        };
        let mut engine = FuzzEngine::new(target, (*pit).clone(), engine_config);
        let instance = if let Some(saved) = saved.next() {
            engine.set_session_plans(&setup.session_plans);
            engine.attach_telemetry(engine_telemetry.clone());
            engine
                .restore(&saved.config, saved.engine)
                .map_err(|error| CampaignError::TargetBoot {
                    target: spec.name.to_owned(),
                    instance: i,
                    error,
                })?;
            Instance {
                engine,
                config: saved.config,
                adaptive: setup.adaptive_entities.clone(),
                saturation: saved.saturation,
                rng: StdRng::from_state(saved.rng),
                stalled: saved.stalled,
            }
        } else {
            let config = if engine.start(&setup.initial_config).is_ok() {
                setup.initial_config.clone()
            } else {
                // A scheduler should never hand out a conflicting startup
                // configuration, but a campaign must not die if one slips
                // through: fall back to target defaults.
                let defaults = ResolvedConfig::new();
                engine
                    .start(&defaults)
                    .map_err(|error| CampaignError::TargetBoot {
                        target: spec.name.to_owned(),
                        instance: i,
                        error,
                    })?;
                defaults
            };
            engine.set_session_plans(&setup.session_plans);
            engine.attach_telemetry(engine_telemetry.clone());
            Instance {
                engine,
                config,
                adaptive: setup.adaptive_entities.clone(),
                saturation: SaturationDetector::new(options.saturation_window),
                rng: StdRng::seed_from_u64(options.seed.wrapping_add(0xC0FF_EE00 + i as u64)),
                stalled: false,
            }
        };
        instances.push(instance);
    }

    let rounds_counter = telemetry.counter("campaign.rounds");
    let mutations_counter = telemetry.counter("campaign.config_mutations");
    let syncs_counter = telemetry.counter("campaign.seed_syncs");

    let iterations_per_round = options.sample_interval.get().max(1);
    let batch = options.batch.max(1) as u64;
    let rounds_total = options.budget.get() / iterations_per_round;

    let clock = VirtualClock::new();
    let (mut curve, mut config_mutations, mut seen_faults, start_round) = match checkpoint {
        Some(resume) => {
            clock.advance(resume.consumed);
            (
                resume.curve,
                resume.config_mutations,
                resume.seen_faults,
                resume.rounds_done,
            )
        }
        None => {
            telemetry.emit(Event::CampaignStarted {
                fuzzer: fuzzer.to_owned(),
                target: spec.name.to_owned(),
                instances: setups.len(),
                budget: options.budget.get(),
            });
            let mut curve = CoverageCurve::new();
            // Running merge of every instance's unique faults, kept so
            // FaultFound events fire exactly once per campaign-unique
            // fault.
            curve
                .push(Ticks::ZERO, union_coverage(&instances).covered_count())
                .expect("first sample of an empty curve");
            (curve, Vec::new(), FaultLog::new(), 0)
        }
    };

    let branches_before = curve.final_branches();
    let sessions_before: u64 = instances.iter().map(|i| i.engine.stats().sessions).sum();
    let slice_rounds =
        (slice_budget.get() / iterations_per_round).min(rounds_total.saturating_sub(start_round));
    let end_round = start_round + slice_rounds;

    // The parallel part: one persistent worker thread per instance for the
    // life of the campaign, parked on a round barrier in between rounds.
    // Instances share nothing except the barriers, so results are
    // byte-identical to inline execution; the mutex per slot is
    // uncontended (workers and the round bookkeeping below never hold it
    // at the same time) and exists to hand `&mut Instance` back and forth.
    let slots: Vec<Mutex<Instance>> = instances.into_iter().map(Mutex::new).collect();
    let pool = options.worker_pool && slots.len() > 1 && slice_rounds > 0;
    let round_start = Barrier::new(slots.len() + 1);
    let round_done = Barrier::new(slots.len() + 1);
    let stop = AtomicBool::new(false);
    // A mid-campaign failure cannot early-return from inside the thread
    // scope (workers must observe `stop` through the barrier protocol
    // first), so it is carried out here.
    let mut failure: Option<CampaignError> = None;
    // Rounds actually executed; falls short of `end_round` when a control
    // signal interrupts the slice at a round boundary.
    let mut executed_through = start_round;
    let mut interrupted = false;

    std::thread::scope(|scope| {
        if pool {
            for slot in &slots {
                scope.spawn(|| loop {
                    round_start.wait();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let mut instance = lock(slot);
                    let mut remaining = iterations_per_round;
                    while remaining > 0 {
                        let n = remaining.min(batch) as usize;
                        instance.engine.run_batch(n);
                        remaining -= n as u64;
                    }
                    drop(instance);
                    round_done.wait();
                });
            }
        }

        'rounds: for round in start_round..end_round {
            // Control signals are honoured strictly between rounds, while
            // the workers are parked on `round_start`: no instance state
            // is in flight, so stopping here is as clean as never having
            // scheduled the round.
            if control.is_some_and(CampaignControl::should_stop) {
                interrupted = true;
                break 'rounds;
            }
            if pool {
                round_start.wait();
                round_done.wait();
            } else {
                for slot in &slots {
                    let mut instance = lock(slot);
                    let mut remaining = iterations_per_round;
                    while remaining > 0 {
                        let n = remaining.min(batch) as usize;
                        instance.engine.run_batch(n);
                        remaining -= n as u64;
                    }
                }
            }

            // Workers are parked on `round_start` now, so the round
            // bookkeeping below has every instance to itself.
            let mut guards: Vec<MutexGuard<'_, Instance>> = slots.iter().map(lock).collect();
            let now = clock.advance(options.sample_interval);
            rounds_counter.incr();
            if telemetry.is_enabled() {
                for (index, instance) in guards.iter().enumerate() {
                    telemetry.span_record(index, "fuzzing", options.sample_interval);
                    for fault in instance.engine.fault_log().faults() {
                        if seen_faults.record(fault.clone()) {
                            telemetry.emit(Event::FaultFound {
                                time: now,
                                instance: index,
                                kind: fault.kind.to_string(),
                                function: fault.function.clone(),
                            });
                        }
                    }
                }
            }

            // SPFuzz-style seed synchronization between rounds.
            if let Some(every) = options.seed_sync_every_rounds {
                if every > 0 && (round + 1) % u64::from(every) == 0 {
                    let shared = sync_seeds(&mut guards);
                    syncs_counter.incr();
                    telemetry.emit(Event::SeedSynced {
                        round,
                        time: now,
                        seeds_shared: shared,
                    });
                }
            }

            // Adaptive configuration mutation on saturation (paper
            // §III-B2). The detector is fed for every instance (its state
            // is private and RNG-free, so this cannot perturb campaign
            // results), but only adaptive instances act on it;
            // non-adaptive ones report a stall once and keep running.
            for (index, instance) in guards.iter_mut().enumerate() {
                let covered = instance.engine.covered_count();
                let saturated = instance.saturation.observe(now, covered);
                if instance.adaptive.is_empty() {
                    if saturated && !instance.stalled {
                        instance.stalled = true;
                        telemetry.emit(Event::InstanceStalled {
                            time: now,
                            instance: index,
                            covered,
                        });
                    }
                    continue;
                }
                if saturated {
                    telemetry.emit(Event::SaturationDetected {
                        time: now,
                        instance: index,
                        covered,
                    });
                    match mutate_instance_config(instance) {
                        Ok(Some((entity, value))) => {
                            mutations_counter.incr();
                            telemetry.emit(Event::ConfigMutated {
                                time: now,
                                instance: index,
                                entity: entity.clone(),
                                value: value.render(),
                            });
                            config_mutations.push(ConfigMutationEvent {
                                time: now,
                                instance: index,
                                entity,
                                value,
                            });
                        }
                        Ok(None) => {}
                        Err(error) => {
                            // The instance lost its running configuration:
                            // abort the campaign through the normal worker
                            // shutdown below.
                            failure = Some(CampaignError::Restart {
                                target: spec.name.to_owned(),
                                instance: index,
                                error,
                            });
                            break 'rounds;
                        }
                    }
                    instance.saturation.reset_window(now);
                }
            }

            let union_branches = union_coverage(guards.iter().map(|g| &**g)).covered_count();
            curve
                .push(now, union_branches)
                .expect("virtual clock is monotone");
            if telemetry.is_enabled() {
                telemetry.emit(Event::RoundCompleted {
                    round,
                    time: now,
                    union_branches,
                    sessions: guards.iter().map(|i| i.engine.stats().sessions).sum(),
                });
                telemetry.drain();
            }
            executed_through = round + 1;
        }

        if pool {
            // Release the workers one last time so they observe `stop`.
            stop.store(true, Ordering::Release);
            round_start.wait();
        }
    });

    if let Some(error) = failure {
        return Err(error);
    }

    let mut instances: Vec<Instance> = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();

    // Snapshot every instance; exporting target state may be destructive
    // (queues drain), which is fine — the instances are dropped below and
    // the checkpoint is the only thing that survives the slice.
    let saved: Vec<InstanceCheckpoint> = instances
        .iter_mut()
        .map(|instance| InstanceCheckpoint {
            engine: instance.engine.checkpoint(),
            config: instance.config.clone(),
            rng: instance.rng.state(),
            saturation: instance.saturation.clone(),
            stalled: instance.stalled,
        })
        .collect();

    let done = executed_through >= rounds_total;
    if done {
        let mut faults = FaultLog::new();
        for instance in &saved {
            faults.merge(&instance.engine.faults);
        }
        telemetry.emit(Event::CampaignFinished {
            time: clock.now(),
            branches: curve.final_branches(),
            unique_faults: faults.unique_count(),
            config_mutations: config_mutations.len(),
        });
        telemetry.drain();
    }

    let sessions_after: u64 = saved.iter().map(|i| i.engine.stats.sessions).sum();
    let report = SliceReport {
        rounds: executed_through - start_round,
        sessions: sessions_after - sessions_before,
        new_branches: curve.final_branches().saturating_sub(branches_before),
        union_branches: curve.final_branches(),
        done,
        interrupted,
    };
    let checkpoint = CampaignCheckpoint {
        pit,
        fuzzer: fuzzer.to_owned(),
        target: spec.name.to_owned(),
        budget: options.budget,
        rounds_total,
        rounds_done: executed_through,
        consumed: clock.now(),
        curve,
        config_mutations,
        seen_faults,
        instances: saved,
    };
    Ok((checkpoint, report))
}

/// Locks a slot, recovering from poisoning (a panicked worker already
/// propagates through the thread scope; the lock itself holds plain data).
fn lock(slot: &Mutex<Instance>) -> MutexGuard<'_, Instance> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

fn union_coverage<'a, I>(instances: I) -> CoverageSnapshot
where
    I: IntoIterator<Item = &'a Instance>,
{
    let mut it = instances.into_iter();
    let first = it.next().expect("campaign needs at least one instance");
    let mut union = first.engine.coverage().clone();
    for instance in it {
        union.union_with(instance.engine.coverage());
    }
    union
}

/// Returns the number of seed copies imported across instances.
fn sync_seeds(instances: &mut [MutexGuard<'_, Instance>]) -> usize {
    let outboxes: Vec<Vec<Seed>> = instances
        .iter_mut()
        .map(|i| i.engine.export_new_seeds())
        .collect();
    let mut copies = 0;
    for (i, instance) in instances.iter_mut().enumerate() {
        for (j, outbox) in outboxes.iter().enumerate() {
            if i != j {
                // Cap what is shared per round so one lucky instance cannot
                // flood everyone's corpus.
                let shared = &outbox[..outbox.len().min(SEED_OUTBOX_CAP)];
                instance.engine.import_seeds(shared);
                copies += shared.len();
            }
        }
    }
    copies
}

/// Picks one adaptive entity and one of its typical values, restarting the
/// instance's target under the mutated configuration. Conflicting picks
/// (failed starts) are retried a few times and abandoned otherwise — the
/// previous configuration keeps running. Returns the applied mutation, or
/// an error if a known-good configuration refuses to boot again (the
/// instance would be dead with budget remaining).
fn mutate_instance_config(
    instance: &mut Instance,
) -> Result<Option<(String, ConfigValue)>, StartError> {
    for _attempt in 0..4 {
        let (name, values) =
            &instance.adaptive[instance.rng.random_range(0..instance.adaptive.len())];
        if values.is_empty() {
            continue;
        }
        let value = values[instance.rng.random_range(0..values.len())].clone();
        if instance.config.get(name) == Some(&value) {
            continue;
        }
        let mut candidate = instance.config.clone();
        candidate.set(name, value.clone());
        if instance.engine.start(&candidate).is_ok() {
            instance.config = candidate;
            return Ok(Some((name.clone(), value)));
        }
        // Failed start: the engine is left unstarted; restore the running
        // configuration before trying another value.
        instance.engine.start(&instance.config)?;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_fuzzer::Target;
    use cmfuzz_protocols::spec_by_name;

    fn small_options(seed: u64) -> CampaignOptions {
        CampaignOptions {
            instances: 2,
            budget: Ticks::new(600),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn default_setup_campaign_produces_monotone_curve() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let result = run_campaign(&spec, "peach", &setups, &small_options(1));
        assert_eq!(result.fuzzer, "peach");
        assert_eq!(result.target, "dnsmasq");
        assert_eq!(result.curve.points().len(), 7, "initial + 6 rounds");
        let mut last = 0;
        for &(_, branches) in result.curve.points() {
            assert!(branches >= last, "union coverage is monotone");
            last = branches;
        }
        assert!(result.final_branches() > 10);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let a = run_campaign(&spec, "peach", &setups, &small_options(9));
        let b = run_campaign(&spec, "peach", &setups, &small_options(9));
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.faults.unique_count(), b.faults.unique_count());
        let c = run_campaign(&spec, "peach", &setups, &small_options(10));
        // Different seed virtually always walks a different curve.
        assert!(a.curve != c.curve || a.final_branches() == c.final_branches());
    }

    #[test]
    fn batch_size_does_not_change_campaign_results() {
        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let reference = run_campaign(
            &spec,
            "cmfuzz",
            &setups,
            &CampaignOptions {
                batch: 1,
                ..small_options(21)
            },
        );
        // Batch size is a throughput knob: every size must walk the exact
        // same campaign, including one larger than a whole round.
        for batch in [7, 16, 64, 1000] {
            let options = CampaignOptions {
                batch,
                ..small_options(21)
            };
            let result = run_campaign(&spec, "cmfuzz", &setups, &options);
            assert_eq!(result.curve, reference.curve, "batch {batch}");
            assert_eq!(result.coverage, reference.coverage, "batch {batch}");
            assert_eq!(result.stats, reference.stats, "batch {batch}");
            assert_eq!(
                result.faults.unique_count(),
                reference.faults.unique_count(),
                "batch {batch}"
            );
            // The full Debug render covers every field, including ones
            // future changes add — batch size must be invisible in all of
            // them.
            assert_eq!(
                format!("{result:?}"),
                format!("{reference:?}"),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn campaign_coverage_bitset_matches_final_curve_point() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let result = run_campaign(&spec, "peach", &setups, &small_options(5));
        assert_eq!(
            result.coverage.covered_count(),
            result.final_branches(),
            "the mergeable bitset and the curve must agree on final union coverage"
        );
    }

    #[test]
    fn telemetry_does_not_perturb_campaign_results() {
        use cmfuzz_telemetry::RingBufferSink;

        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let plain = run_campaign(&spec, "peach", &setups, &small_options(9));

        let ring = RingBufferSink::new(4096);
        let telemetry = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(ring.clone()))
            .build();
        let observed =
            run_campaign_with_telemetry(&spec, "peach", &setups, &small_options(9), &telemetry);

        assert_eq!(plain.curve, observed.curve, "instrumentation-free results");
        assert_eq!(plain.faults.unique_count(), observed.faults.unique_count());
        assert_eq!(plain.stats, observed.stats);

        assert_eq!(ring.count_of_kind("campaign_started"), 1);
        assert_eq!(ring.count_of_kind("campaign_finished"), 1);
        assert_eq!(ring.count_of_kind("round_completed"), 6, "600/100 budget");
        assert_eq!(
            ring.count_of_kind("fault_found"),
            observed.faults.unique_count()
        );
        assert_eq!(telemetry.dropped_events(), 0);
        let snap = telemetry.metrics_snapshot();
        assert_eq!(
            snap.counter("engine.sessions"),
            Some(observed.stats.sessions)
        );
        assert_eq!(snap.counter("campaign.rounds"), Some(6));
        // Each instance spent the whole budget in the fuzzing phase.
        for instance in 0..2 {
            assert_eq!(
                telemetry.phase_breakdown(instance),
                vec![("fuzzing".to_owned(), Ticks::new(600))]
            );
        }
    }

    #[test]
    fn config_mutations_are_logged_with_their_instance() {
        let spec = spec_by_name("libcoap").unwrap();
        let model = cmfuzz_config_model::extract_model(&{
            let target = (spec.build)();
            target.config_space()
        });
        let setups = vec![InstanceSetup {
            adaptive_entities: model
                .mutable_entities()
                .map(|e| (e.name().to_owned(), e.values().to_vec()))
                .collect(),
            ..InstanceSetup::default()
        }];
        let options = CampaignOptions {
            instances: 1,
            budget: Ticks::new(2000),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed: 4,
            ..CampaignOptions::default()
        };
        let result = run_campaign(&spec, "cmfuzz", &setups, &options);
        assert!(
            !result.config_mutations.is_empty(),
            "saturation must have fired at least once"
        );
        for event in &result.config_mutations {
            assert_eq!(event.instance, 0);
            assert!(model.entity(&event.entity).is_some());
            assert!(event.time > Ticks::ZERO);
        }
    }

    #[test]
    fn adaptive_mutation_unlocks_config_branches() {
        let spec = spec_by_name("mosquitto").unwrap();
        let model = cmfuzz_config_model::extract_model(&{
            let target = (spec.build)();
            target.config_space()
        });
        let adaptive: Vec<(String, Vec<ConfigValue>)> = model
            .mutable_entities()
            .map(|e| (e.name().to_owned(), e.values().to_vec()))
            .collect();
        let with_adaptive = vec![InstanceSetup {
            adaptive_entities: adaptive,
            ..InstanceSetup::default()
        }];
        let without = vec![InstanceSetup::default()];
        let options = CampaignOptions {
            instances: 1,
            budget: Ticks::new(3000),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed: 3,
            ..CampaignOptions::default()
        };
        let adaptive_result = run_campaign(&spec, "cmfuzz", &with_adaptive, &options);
        let static_result = run_campaign(&spec, "peach", &without, &options);
        assert!(
            adaptive_result.final_branches() > static_result.final_branches(),
            "adaptive {} <= static {}",
            adaptive_result.final_branches(),
            static_result.final_branches()
        );
    }

    #[test]
    fn sliced_campaign_reproduces_the_uninterrupted_run() {
        let spec = spec_by_name("mosquitto").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let options = small_options(7);
        let reference = run_campaign(&spec, "peach", &setups, &options);

        let mut checkpoint = None;
        loop {
            let (next, report) = run_campaign_slice(
                &spec,
                "peach",
                &setups,
                &options,
                checkpoint.take(),
                Ticks::new(200),
            )
            .expect("slice runs");
            let done = report.done;
            checkpoint = Some(next);
            if done {
                break;
            }
        }
        let sliced = checkpoint.expect("final checkpoint").into_result();
        assert_eq!(
            format!("{reference:?}"),
            format!("{sliced:?}"),
            "three 200-tick slices must be invisible"
        );
    }

    #[test]
    fn slice_reports_carry_scheduling_signals() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let options = small_options(1);
        let (first, report) =
            run_campaign_slice(&spec, "peach", &setups, &options, None, Ticks::new(300))
                .expect("first slice");
        assert_eq!(report.rounds, 3);
        assert!(!report.done);
        assert!(report.sessions > 0, "instances actually fuzzed");
        assert_eq!(report.union_branches, first.union_branches());
        assert_eq!(first.rounds_done(), 3);
        assert_eq!(first.consumed(), Ticks::new(300));
        assert!(!first.is_complete());

        let (second, rest) = run_campaign_slice(
            &spec,
            "peach",
            &setups,
            &options,
            Some(first),
            // Oversized slice budgets are clamped to the remaining rounds.
            Ticks::new(10_000),
        )
        .expect("second slice");
        assert_eq!(rest.rounds, 3);
        assert!(rest.done);
        assert!(second.is_complete());
        assert_eq!(second.consumed(), Ticks::new(600));

        // A completed campaign has nothing left to run.
        let (done, idle) = run_campaign_slice(
            &spec,
            "peach",
            &setups,
            &options,
            Some(second),
            Ticks::new(100),
        )
        .expect("idle slice");
        assert_eq!(idle.rounds, 0);
        assert!(idle.done);
        assert_eq!(done.rounds_done(), 6);
    }

    #[test]
    fn control_signals_interrupt_at_round_boundaries_without_drift() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let options = small_options(3);
        let reference = run_campaign(&spec, "peach", &setups, &options);

        // A raised pause stops the very first slice before any round runs.
        let control = CampaignControl::new();
        control.pause();
        assert!(control.is_paused());
        let telemetry = Telemetry::disabled();
        let (paused, report) = run_campaign_slice_with_control(
            &spec,
            "peach",
            &setups,
            &options,
            None,
            Ticks::new(10_000),
            &telemetry,
            Some(&control),
        )
        .expect("paused slice");
        assert!(report.interrupted, "pause must interrupt the slice");
        assert_eq!(report.rounds, 0);
        assert!(!report.done);
        assert_eq!(paused.rounds_done(), 0);

        // Resume mid-slice: raise the pause again after boot, run one
        // slice that covers the whole budget — it still stops at the first
        // boundary check it sees the signal at.
        control.resume();
        assert!(!control.should_stop());
        let (finished, rest) = run_campaign_slice_with_control(
            &spec,
            "peach",
            &setups,
            &options,
            Some(paused),
            Ticks::new(10_000),
            &telemetry,
            Some(&control),
        )
        .expect("resumed slice");
        assert!(rest.done);
        assert!(!rest.interrupted);
        assert_eq!(
            format!("{reference:?}"),
            format!("{:?}", finished.into_result()),
            "an interrupted-then-resumed campaign must not drift"
        );

        // Kill is permanent: resume does not clear it.
        let control = CampaignControl::new();
        control.kill();
        control.resume();
        assert!(control.is_killed());
        assert!(control.should_stop());
    }

    #[test]
    fn empty_setups_are_a_typed_error() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let err = try_run_campaign(&spec, "peach", &[], &small_options(1))
            .expect_err("no instances to run");
        assert_eq!(err, CampaignError::NoInstances);
    }

    #[test]
    fn impaired_campaigns_are_deterministic_and_cost_coverage() {
        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let lossy = CampaignOptions {
            link: LinkConditions::new(0.3, 0.1, 0.1),
            ..small_options(9)
        };
        let a = run_campaign(&spec, "peach", &setups, &lossy);
        let b = run_campaign(&spec, "peach", &setups, &lossy);
        assert_eq!(a.curve, b.curve, "same seed, same impairment pattern");
        assert!(a.final_branches() > 0, "fuzzing survives the lossy link");
        let perfect = run_campaign(&spec, "peach", &setups, &small_options(9));
        assert_ne!(
            a.curve, perfect.curve,
            "a 30% lossy link must actually change what the campaign sees"
        );
    }

    #[test]
    fn conflicting_initial_config_falls_back_to_defaults() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut bad = ResolvedConfig::new();
        bad.set("auth-method", ConfigValue::Str("tls".into()));
        bad.set("tls_enabled", ConfigValue::Bool(false));
        let setups = vec![InstanceSetup {
            initial_config: bad,
            ..InstanceSetup::default()
        }];
        // Preflight would (correctly) reject this setup before the runner
        // ever sees it; skip it to exercise the boot-time fallback.
        let options = CampaignOptions {
            skip_preflight: true,
            ..small_options(2)
        };
        let result = run_campaign(&spec, "cmfuzz", &setups, &options);
        assert!(
            result.final_branches() > 0,
            "campaign survived the conflict"
        );
    }

    #[test]
    fn preflight_rejects_conflicting_setup_before_any_instance_starts() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut bad = ResolvedConfig::new();
        bad.set("auth-method", ConfigValue::Str("tls".into()));
        bad.set("tls_enabled", ConfigValue::Bool(false));
        let setups = vec![InstanceSetup {
            initial_config: bad,
            ..InstanceSetup::default()
        }];
        let err = try_run_campaign(&spec, "cmfuzz", &setups, &small_options(2))
            .expect_err("preflight must reject the conflicting setup");
        let CampaignError::Preflight(diagnostics) = err else {
            panic!("expected Preflight, got {err}");
        };
        assert!(diagnostics.iter().any(|d| d.code() == "CM014"));
        assert!(err_display_mentions_preflight(&diagnostics));
    }

    fn err_display_mentions_preflight(diagnostics: &[cmfuzz_analyze::Diagnostic]) -> bool {
        CampaignError::Preflight(diagnostics.to_vec())
            .to_string()
            .contains("preflight rejected the campaign")
    }

    #[test]
    fn session_plans_are_honoured() {
        let spec = spec_by_name("mosquitto").unwrap();
        // A plan that only ever sends Connect: the Publish path is absent.
        let connect_only = vec![InstanceSetup {
            session_plans: vec![vec!["Connect".to_owned()]],
            ..InstanceSetup::default()
        }];
        let free = vec![InstanceSetup::default()];
        let options = small_options(5);
        let constrained = run_campaign(&spec, "spfuzz", &connect_only, &options);
        let unconstrained = run_campaign(&spec, "peach", &free, &options);
        assert!(
            constrained.final_branches() < unconstrained.final_branches(),
            "restricting sessions must cost coverage"
        );
    }
}

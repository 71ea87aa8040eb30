//! Dynamic fleet management: campaigns admitted into, controlled in, and
//! removed from a *running* fleet.
//!
//! [`run_fleet`](crate::run_fleet) executes a fixed schedule; the control
//! plane needs the same machinery with the schedule open-ended. A
//! [`FleetManager`] owns the per-campaign checkpoints and steps the fleet
//! one wave at a time: the caller decides when to step, which makes live
//! admission ([`FleetManager::admit`]), pause/resume, budget extension,
//! and kill natural — they all take effect at the next wave boundary,
//! where every campaign is parked in a [`CampaignCheckpoint`].
//!
//! Determinism is preserved by construction: the manager contains no RNG,
//! entries are never reordered (killed campaigns become tombstones so
//! policy indices stay stable), and a fixed admission sequence stepped to
//! completion reproduces [`run_fleet`](crate::run_fleet) of the same
//! schedule bit-for-bit — `run_fleet` is itself implemented on top of
//! this type.

use cmfuzz::campaign::{
    run_campaign_slice_with_control, run_campaign_slice_with_telemetry, seed_pack_len,
    CampaignCheckpoint, CampaignControl, CampaignOptions,
};
use cmfuzz::metrics::CampaignResult;
use cmfuzz::preflight::{analyze_fleet_schedule, analyze_reachability_for, FleetEntryView};
use cmfuzz::CampaignError;
use cmfuzz_bench::grid;
use cmfuzz_config_model::ConstraintSet;
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_fuzzer::Target;
use cmfuzz_telemetry::{Counter, Telemetry};

use crate::{CampaignOutcome, FleetCampaign, FleetOptions, FleetResult, SchedulingPolicy};

/// Lifecycle state of one managed campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted but never scheduled yet.
    Pending,
    /// Checkpointed with budget remaining; eligible for scheduling.
    Active,
    /// Administratively paused; skipped by the scheduler until resumed.
    Paused,
    /// Killed; a permanent tombstone (the entry keeps its index so policy
    /// state stays aligned, but it is never scheduled again).
    Killed,
    /// Ran to its own budget.
    Complete,
}

impl CampaignState {
    /// Stable lowercase label (used by the control-plane status protocol).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CampaignState::Pending => "pending",
            CampaignState::Active => "active",
            CampaignState::Paused => "paused",
            CampaignState::Killed => "killed",
            CampaignState::Complete => "complete",
        }
    }
}

/// Point-in-time view of one managed campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The campaign's fleet id.
    pub id: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Slices leased so far.
    pub leases: u64,
    /// Virtual ticks consumed so far.
    pub consumed: Ticks,
    /// Rounds executed so far.
    pub rounds_done: u64,
    /// Union branch coverage so far.
    pub branches: usize,
    /// Branches the reachability analyzer certified this campaign's
    /// partition can ever cover; `None` when admission skipped preflight.
    pub reachable_branches: Option<usize>,
}

/// Why [`FleetManager::step_wave`] ran nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleReason {
    /// No eligible campaign: everything is complete, killed, or paused.
    NoneEligible,
    /// The fleet-wide total budget is exhausted.
    BudgetExhausted,
    /// The policy declined to schedule any eligible campaign.
    PolicyDeclined,
}

/// What one [`FleetManager::step_wave`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveOutcome {
    /// A wave of slices ran. `progress` is false when no lease executed a
    /// round and nothing completed — granting more identical leases
    /// cannot help, so batch drivers stop there.
    Ran {
        /// Leases in the wave.
        scheduled: usize,
        /// Whether any lease executed a round or finished its campaign.
        progress: bool,
    },
    /// Nothing ran; the fleet state is unchanged. Recoverable when the
    /// reason is (e.g.) an all-paused fleet.
    Idle(IdleReason),
}

#[derive(Debug)]
pub(crate) struct FleetEntry {
    pub(crate) campaign: FleetCampaign,
    /// `campaign.options` as slices actually run them: labelled with the
    /// fleet id, worker pool off (the wave grid supplies parallelism).
    prepared: CampaignOptions,
    pub(crate) checkpoint: Option<CampaignCheckpoint>,
    leases: u64,
    control: CampaignControl,
    paused: bool,
    pub(crate) killed: bool,
    /// Reachability-certified branch ceiling for this campaign's
    /// partition, computed once at admission (`None` when preflight was
    /// skipped). Fed to the scheduling policy as a prior before the
    /// campaign's first lease.
    reachable_branches: Option<usize>,
    /// The subject's declared startup constraints, computed once at
    /// admission; seed-pack imports into this campaign check them.
    constraints: ConstraintSet,
    /// This campaign's rare-seed pack as exported from its current
    /// checkpoint. Exported when an exchange first needs it and dropped
    /// when a lease replaces the checkpoint or an import adds seeds to it,
    /// so an unchanged campaign is not re-exported every wave.
    pack: Option<Vec<u8>>,
}

impl FleetEntry {
    fn new(campaign: FleetCampaign, reachable_branches: Option<usize>) -> Self {
        let mut prepared = campaign.options.clone();
        prepared.campaign_id = Some(campaign.id.clone());
        prepared.worker_pool = false;
        let constraints = (campaign.spec.build)().config_constraints();
        FleetEntry {
            campaign,
            prepared,
            checkpoint: None,
            leases: 0,
            control: CampaignControl::new(),
            paused: false,
            killed: false,
            reachable_branches,
            constraints,
            pack: None,
        }
    }

    /// Completeness against the *prepared* options rather than the
    /// checkpoint's frozen round total, so a live budget extension
    /// re-opens a finished campaign.
    fn complete(&self) -> bool {
        let interval = self.prepared.sample_interval.get().max(1);
        self.checkpoint
            .as_ref()
            .is_some_and(|c| c.rounds_done() >= self.prepared.budget.get() / interval)
    }

    fn state(&self) -> CampaignState {
        if self.killed {
            CampaignState::Killed
        } else if self.paused {
            CampaignState::Paused
        } else if self.checkpoint.is_none() {
            CampaignState::Pending
        } else if self.complete() {
            CampaignState::Complete
        } else {
            CampaignState::Active
        }
    }

    fn eligible(&self) -> bool {
        !self.killed && !self.paused && !self.complete()
    }
}

/// A running fleet with dynamic membership and live per-campaign control.
///
/// The manager is single-threaded by design: every mutation — admission,
/// control signals, [`FleetManager::step_wave`] — happens between waves,
/// on the caller's thread. Concurrent control planes wrap it in a mutex
/// and flip [`CampaignControl`] signals (which *are* thread-safe and
/// interrupt an in-flight wave at round boundaries) from outside.
#[derive(Debug)]
pub struct FleetManager {
    entries: Vec<FleetEntry>,
    options: FleetOptions,
    telemetry: Telemetry,
    waves_counter: Counter,
    leases_counter: Counter,
    ticks_counter: Counter,
    shared_in_counter: Counter,
    shared_rejected_counter: Counter,
    waves: u64,
    leases: u64,
    spent: u64,
    seeds_shared: u64,
    seeds_share_rejected: u64,
    /// Entries `0..primed` have had their reachability prior handed to a
    /// policy; `step_wave` advances the watermark so every admitted
    /// campaign is primed exactly once, at its first wave.
    primed: usize,
}

impl FleetManager {
    /// Creates an empty fleet.
    #[must_use]
    pub fn new(options: FleetOptions, telemetry: &Telemetry) -> Self {
        FleetManager {
            entries: Vec::new(),
            waves_counter: telemetry.counter("fleet.waves"),
            leases_counter: telemetry.counter("fleet.leases"),
            ticks_counter: telemetry.counter("fleet.ticks"),
            shared_in_counter: telemetry.counter("corpus.shared_in"),
            shared_rejected_counter: telemetry.counter("corpus.shared_rejected"),
            telemetry: telemetry.clone(),
            options,
            waves: 0,
            leases: 0,
            spent: 0,
            seeds_shared: 0,
            seeds_share_rejected: 0,
            primed: 0,
        }
    }

    /// Admits one campaign; see [`FleetManager::admit_batch`].
    ///
    /// # Errors
    ///
    /// As [`FleetManager::admit_batch`].
    pub fn admit(&mut self, campaign: FleetCampaign) -> Result<usize, CampaignError> {
        self.admit_batch(vec![campaign]).map(|indices| indices[0])
    }

    /// Admits a batch of campaigns into the running fleet, validating the
    /// batch *together with* every live (non-killed) entry through the
    /// static fleet preflight (unless [`FleetOptions::skip_preflight`]) —
    /// duplicate ids, zero budgets, and broken subject models are rejected
    /// before anything is scheduled. Returns the entry indices, which stay
    /// valid for the manager's lifetime.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Preflight`] with the full diagnostic list when
    /// validation rejects the batch; the fleet is unchanged in that case.
    pub fn admit_batch(
        &mut self,
        campaigns: Vec<FleetCampaign>,
    ) -> Result<Vec<usize>, CampaignError> {
        if !self.options.skip_preflight {
            let entries: Vec<FleetEntryView<'_>> = self
                .entries
                .iter()
                .filter(|entry| !entry.killed)
                .map(|entry| &entry.campaign)
                .chain(campaigns.iter())
                .map(|campaign| FleetEntryView {
                    id: &campaign.id,
                    spec: &campaign.spec,
                    budget: campaign.options.budget,
                    setups: &campaign.setups,
                })
                .collect();
            let report = analyze_fleet_schedule(&entries);
            if report.has_errors() {
                return Err(CampaignError::Preflight(report.into_diagnostics()));
            }
        }
        let first = self.entries.len();
        let skip_preflight = self.options.skip_preflight;
        self.entries.extend(campaigns.into_iter().map(|campaign| {
            // Reachability is part of admission-time static analysis, so
            // `skip_preflight` opts out of it too (the entry then carries
            // no prior and the policy probes in plain index order).
            let reachable = (!skip_preflight).then(|| {
                analyze_reachability_for(&campaign.spec, &campaign.setups).reachable_branch_count()
            });
            FleetEntry::new(campaign, reachable)
        }));
        Ok((first..self.entries.len()).collect())
    }

    /// Index of the campaign with this id, killed entries included.
    #[must_use]
    pub fn find(&self, id: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.campaign.id == id)
    }

    /// The live [`CampaignControl`] handle for entry `index` — share it
    /// with another thread to interrupt an in-flight slice at its next
    /// round boundary.
    #[must_use]
    pub fn control(&self, index: usize) -> Option<CampaignControl> {
        self.entries.get(index).map(|e| e.control.clone())
    }

    /// Pauses the campaign: it is skipped by scheduling until resumed,
    /// and an in-flight slice stops at its next round boundary. Returns
    /// false for unknown ids and killed campaigns.
    pub fn pause(&mut self, id: &str) -> bool {
        match self.find(id) {
            Some(index) if !self.entries[index].killed => {
                self.entries[index].paused = true;
                self.entries[index].control.pause();
                true
            }
            _ => false,
        }
    }

    /// Clears a pause. Returns false for unknown ids and killed campaigns.
    pub fn resume(&mut self, id: &str) -> bool {
        match self.find(id) {
            Some(index) if !self.entries[index].killed => {
                self.entries[index].paused = false;
                self.entries[index].control.resume();
                true
            }
            _ => false,
        }
    }

    /// Permanently removes the campaign from scheduling. The entry stays
    /// as a tombstone (indices never shift under a policy) and its last
    /// checkpoint is kept for the final report. Returns false for unknown
    /// ids.
    pub fn kill(&mut self, id: &str) -> bool {
        match self.find(id) {
            Some(index) => {
                self.entries[index].killed = true;
                self.entries[index].control.kill();
                true
            }
            _ => false,
        }
    }

    /// Extends a campaign's budget to `budget` (the only live
    /// reconfiguration the checkpoint contract allows: rounds already
    /// executed are unaffected, the campaign simply keeps going further).
    /// Requests below the current budget are rejected. Returns false for
    /// unknown ids, killed campaigns, and non-extensions.
    pub fn extend_budget(&mut self, id: &str, budget: Ticks) -> bool {
        match self.find(id) {
            Some(index) if !self.entries[index].killed => {
                let entry = &mut self.entries[index];
                if budget <= entry.campaign.options.budget {
                    return false;
                }
                entry.campaign.options.budget = budget;
                entry.prepared.budget = budget;
                true
            }
            _ => false,
        }
    }

    /// Status rows for every entry, in admission order.
    #[must_use]
    pub fn status(&self) -> Vec<CampaignStatus> {
        self.entries
            .iter()
            .map(|entry| CampaignStatus {
                id: entry.campaign.id.clone(),
                state: entry.state(),
                leases: entry.leases,
                consumed: entry
                    .checkpoint
                    .as_ref()
                    .map_or(Ticks::ZERO, CampaignCheckpoint::consumed),
                rounds_done: entry
                    .checkpoint
                    .as_ref()
                    .map_or(0, CampaignCheckpoint::rounds_done),
                branches: entry
                    .checkpoint
                    .as_ref()
                    .map_or(0, CampaignCheckpoint::union_branches),
                reachable_branches: entry.reachable_branches,
            })
            .collect()
    }

    /// The campaign's current result, assembled from its checkpoint —
    /// partial while the campaign is still running, final once complete.
    /// `None` for unknown ids and campaigns never scheduled yet.
    ///
    /// Because per-campaign results are slicing-invariant (with rare-seed
    /// sharing off), a *served* campaign's result here is bit-identical to
    /// an offline [`crate::run_fleet`] of the same submission — the
    /// control plane's determinism gate compares exactly this.
    #[must_use]
    pub fn campaign_result(&self, id: &str) -> Option<CampaignResult> {
        let entry = &self.entries[self.find(id)?];
        entry
            .checkpoint
            .as_ref()
            .map(|checkpoint| checkpoint.clone().into_result())
    }

    /// Campaigns admitted (tombstones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no campaign was ever admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Virtual ticks consumed across every executed slice so far.
    #[must_use]
    pub fn spent(&self) -> Ticks {
        Ticks::new(self.spent)
    }

    /// Whether every non-killed campaign ran to its own budget.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.entries
            .iter()
            .filter(|e| !e.killed)
            .all(FleetEntry::complete)
    }

    /// Runs one scheduling wave: asks `policy` to pick up to
    /// [`FleetOptions::slots`] eligible campaigns, leases each a slice of
    /// the remaining fleet budget, runs the slices as parallel grid cells
    /// (each in its own telemetry scope, committed in lease order), feeds
    /// the reports back to the policy, and performs the wave-boundary
    /// rare-seed exchange.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CampaignError`] any slice reports.
    pub fn step_wave(
        &mut self,
        policy: &mut dyn SchedulingPolicy,
    ) -> Result<WaveOutcome, CampaignError> {
        // Hand newly admitted campaigns' reachability priors to the
        // policy before it picks — each entry is primed exactly once, at
        // the first wave after its admission.
        while self.primed < self.entries.len() {
            if let Some(reachable) = self.entries[self.primed].reachable_branches {
                policy.prime(self.primed, reachable);
            }
            self.primed += 1;
        }
        let eligible: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].eligible())
            .collect();
        if eligible.is_empty() {
            return Ok(WaveOutcome::Idle(IdleReason::NoneEligible));
        }
        let remaining = self
            .options
            .total_budget
            .map(|total| total.get().saturating_sub(self.spent));
        if remaining == Some(0) {
            return Ok(WaveOutcome::Idle(IdleReason::BudgetExhausted));
        }

        let slots = self.options.slots.max(1).min(eligible.len());
        let picked = policy.pick(&eligible, slots);
        // Defensive sanitation: keep only eligible, distinct picks.
        let mut seen = std::collections::BTreeSet::new();
        let mut wave: Vec<usize> = picked
            .into_iter()
            .filter(|i| eligible.contains(i) && seen.insert(*i))
            .collect();
        wave.truncate(slots);
        if wave.is_empty() {
            return Ok(WaveOutcome::Idle(IdleReason::PolicyDeclined));
        }

        // Split the remaining fleet allowance across this wave's leases.
        let mut lease_budgets = Vec::with_capacity(wave.len());
        let mut left = remaining.unwrap_or(u64::MAX);
        for _ in &wave {
            let granted = self.options.slice.get().min(left);
            if left != u64::MAX {
                left -= granted;
            }
            lease_budgets.push(granted);
        }
        while lease_budgets.last() == Some(&0) {
            lease_budgets.pop();
            wave.pop();
        }
        if wave.is_empty() {
            return Ok(WaveOutcome::Idle(IdleReason::BudgetExhausted));
        }

        let resumes: Vec<Option<CampaignCheckpoint>> = wave
            .iter()
            .map(|&index| self.entries[index].checkpoint.take())
            .collect();
        let cells: Vec<_> = wave
            .iter()
            .zip(&lease_budgets)
            .zip(resumes)
            .map(|((&index, &granted), resume)| {
                let entry = &self.entries[index];
                let campaign = &entry.campaign;
                let opts = &entry.prepared;
                let control = entry.control.clone();
                let telemetry = self.telemetry.clone();
                move || {
                    let scope = telemetry.scoped(VirtualClock::new());
                    let outcome = run_campaign_slice_with_control(
                        &campaign.spec,
                        &campaign.fuzzer,
                        &campaign.setups,
                        opts,
                        resume,
                        Ticks::new(granted),
                        scope.telemetry(),
                        Some(&control),
                    );
                    scope.commit();
                    outcome
                }
            })
            .collect();
        let results = grid::run_cells(wave.len(), cells);

        let mut wave_progress = false;
        for (&index, outcome) in wave.iter().zip(results) {
            let (checkpoint, report) = outcome?;
            policy.observe(index, &report);
            self.entries[index].leases += 1;
            self.leases += 1;
            let executed = report.rounds
                * self.entries[index]
                    .campaign
                    .options
                    .sample_interval
                    .get()
                    .max(1);
            self.spent += executed;
            self.ticks_counter.add(executed);
            if report.rounds > 0 || report.done {
                wave_progress = true;
            }
            self.entries[index].checkpoint = Some(checkpoint);
            self.entries[index].pack = None;
        }
        self.waves += 1;
        self.waves_counter.incr();
        self.leases_counter.add(wave.len() as u64);

        if self.options.share_rare_seeds > 0 {
            let (accepted, rejected) =
                exchange_rare_seeds(&mut self.entries, self.options.share_rare_seeds);
            self.seeds_shared += accepted;
            self.seeds_share_rejected += rejected;
            self.shared_in_counter.add(accepted);
            self.shared_rejected_counter.add(rejected);
        }

        Ok(WaveOutcome::Ran {
            scheduled: wave.len(),
            progress: wave_progress,
        })
    }

    /// Consumes the manager into a [`FleetResult`], reported under
    /// `policy_name`. Never-scheduled campaigns get a zero-progress
    /// checkpoint so every admitted campaign (killed ones included) has an
    /// outcome row, and the telemetry pipeline is drained.
    ///
    /// # Errors
    ///
    /// Propagates boot failures from materializing the zero-progress
    /// checkpoints of never-scheduled campaigns.
    pub fn finish(self, policy_name: &str) -> Result<FleetResult, CampaignError> {
        let telemetry = self.telemetry;
        let campaigns = self
            .entries
            .into_iter()
            .map(|entry| {
                let checkpoint = match entry.checkpoint {
                    Some(checkpoint) => checkpoint,
                    None => {
                        let (checkpoint, _) = run_campaign_slice_with_telemetry(
                            &entry.campaign.spec,
                            &entry.campaign.fuzzer,
                            &entry.campaign.setups,
                            &entry.prepared,
                            None,
                            Ticks::ZERO,
                            &Telemetry::disabled(),
                        )?;
                        checkpoint
                    }
                };
                Ok(CampaignOutcome {
                    id: entry.campaign.id,
                    leases: entry.leases,
                    consumed: checkpoint.consumed(),
                    completed: checkpoint.is_complete(),
                    reachable_branches: entry.reachable_branches,
                    checkpoint,
                })
            })
            .collect::<Result<Vec<_>, CampaignError>>()?;

        telemetry.drain();
        Ok(FleetResult {
            policy: policy_name.to_owned(),
            waves: self.waves,
            leases: self.leases,
            spent: Ticks::new(self.spent),
            seeds_shared: self.seeds_shared,
            seeds_share_rejected: self.seeds_share_rejected,
            campaigns,
        })
    }
}

/// One wave boundary's fleet-wide rare-seed exchange: every checkpointed
/// campaign in a [`FleetCampaign::share_group`] donates its
/// `max_per_donor` rarest seeds to every other member of the group.
///
/// All packs are exported before any import, so a seed accepted this wave
/// propagates further only at the next boundary — the exchange is
/// order-independent within a wave apart from the deterministic fleet
/// ordering of the recipients themselves. A member's pack is exported
/// only when its checkpoint changed since the last export (a lease, or an
/// import that accepted seeds); otherwise the cached pack is donated.
/// Donations across subjects are rejected wholesale (seed model ids
/// index the donor's Pit model table, which only campaigns of the same
/// subject share); within a subject,
/// [`CampaignCheckpoint::import_seed_pack`] additionally rejects
/// instances whose running configuration violates the subject's declared
/// startup constraints. Killed campaigns neither donate nor receive.
/// Returns `(accepted, rejected)` transfer totals.
pub(crate) fn exchange_rare_seeds(entries: &mut [FleetEntry], max_per_donor: usize) -> (u64, u64) {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (index, entry) in entries.iter().enumerate() {
        let Some(group) = entry.campaign.share_group.as_deref() else {
            continue;
        };
        // A campaign the policy has not scheduled yet has no corpus to
        // donate and no checkpoint to import into; a killed campaign is
        // out of the fleet entirely. Skip both this wave.
        if entry.checkpoint.is_none() || entry.killed {
            continue;
        }
        match groups.iter_mut().find(|(name, _)| name == group) {
            Some((_, members)) => members.push(index),
            None => groups.push((group.to_owned(), vec![index])),
        }
    }

    let mut accepted_total = 0u64;
    let mut rejected_total = 0u64;
    for (_, members) in &groups {
        if members.len() < 2 {
            continue;
        }
        // The packs leave the cache for the exchange; each goes back
        // unless an import changed its donor's corpus.
        let packs: Vec<Vec<u8>> = members
            .iter()
            .map(|&i| {
                let entry = &mut entries[i];
                entry.pack.take().unwrap_or_else(|| {
                    entry
                        .checkpoint
                        .as_ref()
                        .expect("grouped members are checkpointed")
                        .export_rare_seeds(max_per_donor)
                })
            })
            .collect();
        let mut changed = vec![false; members.len()];
        for (donor_slot, &donor) in members.iter().enumerate() {
            for (recipient_slot, &recipient) in members.iter().enumerate() {
                if recipient == donor {
                    continue;
                }
                if entries[donor].campaign.spec.name != entries[recipient].campaign.spec.name {
                    rejected_total += seed_pack_len(&packs[donor_slot]) as u64;
                    continue;
                }
                let entry = &mut entries[recipient];
                let checkpoint = entry
                    .checkpoint
                    .as_mut()
                    .expect("grouped members are checkpointed");
                let (accepted, rejected) =
                    checkpoint.import_seed_pack(&packs[donor_slot], &entry.constraints);
                changed[recipient_slot] |= accepted > 0;
                accepted_total += accepted;
                rejected_total += rejected;
            }
        }
        for ((&member, pack), changed) in members.iter().zip(packs).zip(changed) {
            if !changed {
                entries[member].pack = Some(pack);
            }
        }
    }
    (accepted_total, rejected_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundRobin;
    use cmfuzz::campaign::InstanceSetup;
    use cmfuzz_protocols::spec_by_name;

    fn campaign(name: &str, id: &str, seed: u64, budget: u64) -> FleetCampaign {
        FleetCampaign {
            id: id.into(),
            spec: spec_by_name(name).expect("subject exists"),
            fuzzer: "cmfuzz".into(),
            setups: vec![InstanceSetup::default(); 2],
            options: CampaignOptions {
                instances: 2,
                budget: Ticks::new(budget),
                sample_interval: Ticks::new(100),
                saturation_window: Ticks::new(200),
                seed,
                worker_pool: false,
                ..CampaignOptions::default()
            },
            share_group: None,
        }
    }

    fn options() -> FleetOptions {
        FleetOptions {
            slots: 2,
            slice: Ticks::new(100),
            ..FleetOptions::default()
        }
    }

    #[test]
    fn admission_validates_against_live_entries() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit(campaign("mosquitto", "m/0", 3, 400))
            .expect("first admission");
        let err = manager
            .admit(campaign("mosquitto", "m/0", 5, 400))
            .expect_err("duplicate id against a live entry");
        let CampaignError::Preflight(diagnostics) = err else {
            panic!("expected preflight rejection");
        };
        assert!(diagnostics.iter().any(|d| d.code() == "CM050"));
        assert_eq!(manager.len(), 1, "rejected batch admits nothing");

        // A killed entry releases its id.
        assert!(manager.kill("m/0"));
        manager
            .admit(campaign("mosquitto", "m/0", 5, 400))
            .expect("id is free after the kill");
        assert_eq!(manager.len(), 2);
    }

    #[test]
    fn admission_records_reachability_and_primes_the_policy_once() {
        struct Recorder {
            primed: Vec<(usize, usize)>,
        }
        impl SchedulingPolicy for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn pick(&mut self, eligible: &[usize], slots: usize) -> Vec<usize> {
                eligible[..slots.min(eligible.len())].to_vec()
            }
            fn observe(&mut self, _index: usize, _report: &cmfuzz::campaign::SliceReport) {}
            fn prime(&mut self, index: usize, reachable_branches: usize) {
                self.primed.push((index, reachable_branches));
            }
        }

        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit_batch(vec![
                campaign("mosquitto", "m/0", 3, 400),
                campaign("dnsmasq", "d/0", 7, 400),
            ])
            .expect("admission");
        let status = manager.status();
        for row in &status {
            let reachable = row
                .reachable_branches
                .expect("admission certifies a ceiling");
            assert!(
                reachable > 0,
                "{}: a bootable partition reaches branches",
                row.id
            );
        }

        let mut policy = Recorder { primed: Vec::new() };
        manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(
            policy.primed,
            vec![
                (0, status[0].reachable_branches.unwrap()),
                (1, status[1].reachable_branches.unwrap()),
            ],
            "every admitted campaign primed at its first wave"
        );
        manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(policy.primed.len(), 2, "priming happens exactly once");

        // Late admission picks up the watermark.
        manager
            .admit(campaign("mosquitto", "m/1", 5, 400))
            .expect("late admit");
        manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(policy.primed.len(), 3);
        assert_eq!(policy.primed[2].0, 2);

        // Outcomes carry the ceiling into the final report.
        while manager.step_wave(&mut policy).expect("wave runs")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let result = manager.finish("recorder").expect("finish");
        for outcome in &result.campaigns {
            assert!(outcome.reachable_branches.is_some());
            assert!(
                outcome.coverage_of_reachable() > 0.0,
                "{} covered some of its certified ceiling",
                outcome.id
            );
        }

        // skip_preflight opts out of reachability certification too.
        let mut skipped = FleetManager::new(
            FleetOptions {
                skip_preflight: true,
                ..options()
            },
            &telemetry,
        );
        skipped
            .admit(campaign("mosquitto", "m/0", 3, 400))
            .expect("admission without preflight");
        assert_eq!(skipped.status()[0].reachable_branches, None);
    }

    #[test]
    fn pause_resume_kill_steer_scheduling_at_wave_boundaries() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit_batch(vec![
                campaign("mosquitto", "m/0", 3, 400),
                campaign("dnsmasq", "d/0", 7, 400),
            ])
            .expect("admission");
        let mut policy = RoundRobin::new();

        assert!(manager.pause("m/0"));
        let outcome = manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(
            outcome,
            WaveOutcome::Ran {
                scheduled: 1,
                progress: true
            },
            "paused campaign is skipped, the other leases the wave"
        );
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Paused);
        assert_eq!(status[0].leases, 0);
        assert_eq!(status[1].state, CampaignState::Active);
        assert_eq!(status[1].leases, 1);

        assert!(manager.resume("m/0"));
        assert!(manager.kill("d/0"));
        while manager.step_wave(&mut policy).expect("wave runs")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Complete);
        assert_eq!(status[1].state, CampaignState::Killed);
        assert!(
            status[1].consumed < Ticks::new(400),
            "killed campaign kept only its pre-kill progress"
        );
        assert!(manager.all_complete(), "tombstones don't block completion");

        let result = manager.finish("round_robin").expect("finish");
        assert_eq!(result.campaigns.len(), 2);
        assert!(result.campaigns[0].completed);
        assert!(!result.campaigns[1].completed);
    }

    #[test]
    fn late_admission_joins_scheduling_and_stays_deterministic() {
        let telemetry = Telemetry::disabled();
        let run = |late: bool| {
            let mut manager = FleetManager::new(options(), &telemetry);
            manager
                .admit(campaign("mosquitto", "m/0", 3, 300))
                .expect("admit");
            let mut policy = RoundRobin::new();
            if late {
                // One wave alone, then the second campaign joins.
                manager.step_wave(&mut policy).expect("wave");
            }
            manager
                .admit(campaign("dnsmasq", "d/0", 7, 300))
                .expect("late admit");
            while manager.step_wave(&mut policy).expect("wave")
                != WaveOutcome::Idle(IdleReason::NoneEligible)
            {}
            manager.finish("round_robin").expect("finish")
        };
        let late = run(true);
        assert!(late.all_complete());
        // Scheduling order differs, but each campaign's result is
        // slicing-invariant — the late-admission fleet reproduces the
        // up-front fleet's per-campaign results exactly.
        let upfront = run(false);
        for (a, b) in late.campaigns.iter().zip(&upfront.campaigns) {
            assert_eq!(
                format!("{:?}", a.result()),
                format!("{:?}", b.result()),
                "{} drifted across admission orders",
                a.id
            );
        }
    }

    #[test]
    fn cached_seed_packs_match_a_fresh_export() {
        use cmfuzz_config_model::{Condition, ConfigConstraint};

        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(
            FleetOptions {
                slots: 1,
                slice: Ticks::new(100),
                share_rare_seeds: 4,
                ..FleetOptions::default()
            },
            &telemetry,
        );
        let fleet = [3, 5, 7]
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut campaign = campaign("mosquitto", &format!("m/{i}"), seed, 600);
                // Two seeds per instance: a default-config pack donates
                // the oldest seeds, then imported ones, so every lease
                // (which evicts the oldest) and every accepted import
                // changes it.
                campaign.options.engine.corpus_capacity = 2;
                campaign.share_group = Some("mqtt".into());
                campaign
            })
            .collect();
        manager.admit_batch(fleet).expect("admission");
        // Every configuration violates the third campaign's constraints,
        // so it rejects every pack at every exchange.
        manager.entries[2].constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "no configuration is acceptable",
            vec![Condition::int_outside("unset", 1, 10, 0)],
        ));

        let mut policy = RoundRobin::new();
        let mut accepting_waves = 0;
        let mut cached_packs = 0;
        loop {
            let shared = manager.seeds_shared;
            let rejected = manager.seeds_share_rejected;
            if let WaveOutcome::Idle(_) = manager.step_wave(&mut policy).expect("wave") {
                break;
            }
            if manager.seeds_shared > shared {
                accepting_waves += 1;
            }
            if manager.entries.iter().all(|e| e.checkpoint.is_some()) {
                assert!(
                    manager.seeds_share_rejected > rejected,
                    "the rejecting recipient is counted at every exchange"
                );
            }
            for entry in &manager.entries {
                let checkpoint = entry.checkpoint.as_ref();
                if let Some(pack) = &entry.pack {
                    cached_packs += 1;
                    let fresh = checkpoint
                        .expect("cached packs are live")
                        .export_rare_seeds(4);
                    assert_eq!(pack, &fresh, "{}: stale pack", entry.campaign.id);
                }
            }
        }
        assert!(accepting_waves > 0, "recipients accepted seeds");
        assert!(cached_packs > 0, "unchanged campaigns keep their packs");
        let rejecting = manager.entries[2].checkpoint.clone().expect("leased");
        assert_eq!(rejecting.into_result().stats.seeds_imported, 0);
    }

    #[test]
    fn extend_budget_keeps_a_finished_campaign_going() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit(campaign("dnsmasq", "d/0", 7, 200))
            .expect("admit");
        let mut policy = RoundRobin::new();
        while manager.step_wave(&mut policy).expect("wave")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        assert_eq!(manager.status()[0].state, CampaignState::Complete);

        assert!(!manager.extend_budget("d/0", Ticks::new(100)), "no shrink");
        assert!(manager.extend_budget("d/0", Ticks::new(400)));
        assert_eq!(manager.status()[0].state, CampaignState::Active);
        while manager.step_wave(&mut policy).expect("wave")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Complete);
        assert_eq!(status[0].consumed, Ticks::new(400));
    }
}

//! Layer timers that live in the benchmark, not in the program: a timing
//! [`Target`] wrapper, a forwarding [`SchedulingPolicy`], the calling
//! thread's CPU clock, and CPU and memory readings from `/proc`.
//!
//! Times are thread-seconds: each wrapper reads `Instant` on the thread
//! that makes the call, so work on several threads adds up.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use cmfuzz::campaign::SliceReport;
use cmfuzz_config_model::{ConfigSpace, ConstraintSet, GuardTable, ResolvedConfig};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fleet::SchedulingPolicy;
use cmfuzz_fuzzer::{Fault, StartError, Target, TargetResponse};
use cmfuzz_protocols::{all_specs, ProtocolSpec, ProtocolTarget};

/// What the timing wrapper saw of one or more targets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetTimes {
    pub handle_ns: u64,
    pub messages: u64,
    pub faults: u64,
    pub start_ns: u64,
    pub boots: u64,
    pub export_ns: u64,
    pub import_ns: u64,
}

impl TargetTimes {
    const ZERO: TargetTimes = TargetTimes {
        handle_ns: 0,
        messages: 0,
        faults: 0,
        start_ns: 0,
        boots: 0,
        export_ns: 0,
        import_ns: 0,
    };

    /// Thread-seconds spent inside the target.
    pub fn total_s(&self) -> f64 {
        secs(self.handle_ns + self.start_ns + self.export_ns + self.import_ns)
    }

    pub fn add(&mut self, other: &TargetTimes) {
        self.handle_ns += other.handle_ns;
        self.messages += other.messages;
        self.faults += other.faults;
        self.start_ns += other.start_ns;
        self.boots += other.boots;
        self.export_ns += other.export_ns;
        self.import_ns += other.import_ns;
    }
}

/// A process-wide total that wrappers add into once, when they are
/// dropped, so the per-message path touches nothing shared.
pub struct Sink(Mutex<TargetTimes>);

impl Sink {
    const fn new() -> Self {
        Sink(Mutex::new(TargetTimes::ZERO))
    }

    fn lock(&self) -> MutexGuard<'_, TargetTimes> {
        // Every update leaves the totals valid, so a poisoned lock is safe.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns what was added since the last call and resets the total.
    pub fn take(&self) -> TargetTimes {
        std::mem::take(&mut *self.lock())
    }
}

/// Targets built by [`traced_spec`] flush here.
pub static TARGETS: Sink = Sink::new();
/// The probe target handed to `build_schedule` flushes here.
pub static SCHEDULE: Sink = Sink::new();

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Forwards every [`Target`] method to `inner`, timing the ones that do
/// work and counting boots, messages and faults.
pub struct Timed<T: Target> {
    inner: T,
    local: TargetTimes,
    sink: &'static Sink,
}

impl<T: Target> Timed<T> {
    pub fn new(inner: T, sink: &'static Sink) -> Self {
        Timed {
            inner,
            local: TargetTimes::default(),
            sink,
        }
    }
}

impl<T: Target> Drop for Timed<T> {
    fn drop(&mut self) {
        self.sink.lock().add(&self.local);
    }
}

impl<T: Target> Target for Timed<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn branch_count(&self) -> usize {
        self.inner.branch_count()
    }
    fn config_space(&self) -> ConfigSpace {
        self.inner.config_space()
    }
    fn config_constraints(&self) -> ConstraintSet {
        self.inner.config_constraints()
    }
    fn branch_guards(&self) -> GuardTable {
        self.inner.branch_guards()
    }
    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        let started = Instant::now();
        let outcome = self.inner.start(config, probe);
        self.local.start_ns += elapsed_ns(started);
        self.local.boots += 1;
        outcome
    }
    fn begin_session(&mut self) {
        self.inner.begin_session();
    }
    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        let started = Instant::now();
        let response = self.inner.handle(input);
        self.local.handle_ns += elapsed_ns(started);
        self.local.messages += 1;
        self.local.faults += u64::from(response.fault.is_some());
        response
    }
    fn handle_batch(
        &mut self,
        arena: &[u8],
        ranges: &[(u32, u32)],
        faults: &mut Vec<(usize, Fault)>,
    ) {
        let before = faults.len();
        let started = Instant::now();
        self.inner.handle_batch(arena, ranges, faults);
        self.local.handle_ns += elapsed_ns(started);
        self.local.messages += ranges.len() as u64;
        self.local.faults += (faults.len() - before) as u64;
    }
    fn export_state(&mut self) -> Vec<u8> {
        let started = Instant::now();
        let state = self.inner.export_state();
        self.local.export_ns += elapsed_ns(started);
        state
    }
    fn import_state(&mut self, state: &[u8]) {
        let started = Instant::now();
        self.inner.import_state(state);
        self.local.import_ns += elapsed_ns(started);
    }
}

fn subjects() -> &'static [ProtocolSpec] {
    static SUBJECTS: OnceLock<Vec<ProtocolSpec>> = OnceLock::new();
    SUBJECTS.get_or_init(all_specs)
}

fn traced_build<const I: usize>() -> ProtocolTarget {
    ProtocolTarget::custom(Timed::new((subjects()[I].build)(), &TARGETS))
}

/// `ProtocolSpec::build` is a plain `fn` pointer, so each subject gets its
/// own monomorphic builder.
const TRACED_BUILDERS: [fn() -> ProtocolTarget; 6] = [
    traced_build::<0>,
    traced_build::<1>,
    traced_build::<2>,
    traced_build::<3>,
    traced_build::<4>,
    traced_build::<5>,
];

/// A copy of `spec` whose targets are the shipped servers wrapped in
/// [`Timed`], flushing into [`TARGETS`].
pub fn traced_spec(spec: ProtocolSpec) -> ProtocolSpec {
    let index = subjects()
        .iter()
        .position(|s| s.name == spec.name)
        .expect("traced specs exist for the registered subjects only");
    ProtocolSpec {
        build: TRACED_BUILDERS[index],
        ..spec
    }
}

/// Forwards every [`SchedulingPolicy`] method to `inner`, timing `pick`
/// and `observe`.
pub struct TimedPolicy<P> {
    inner: P,
    pub pick_ns: u64,
    pub observe_ns: u64,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            pick_ns: 0,
            observe_ns: 0,
        }
    }
}

impl<P: SchedulingPolicy> SchedulingPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn pick(&mut self, eligible: &[usize], slots: usize) -> Vec<usize> {
        let started = Instant::now();
        let picked = self.inner.pick(eligible, slots);
        self.pick_ns += elapsed_ns(started);
        picked
    }
    fn observe(&mut self, index: usize, report: &SliceReport) {
        let started = Instant::now();
        self.inner.observe(index, report);
        self.observe_ns += elapsed_ns(started);
    }
    fn prime(&mut self, index: usize, reachable_branches: usize) {
        self.inner.prime(index, reachable_branches);
    }
}

/// Kernel clock ticks per second for `/proc/*/stat` times; 100 on every
/// Linux configuration this benchmark targets.
const CLOCK_TICKS: f64 = 100.0;

/// CPU seconds (user + system) used so far by every thread of this
/// process, exited ones included. Resolution is one clock tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS
}

fn schedstat_s(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(secs(ns))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Linux's per-thread CPU clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run, exact to the nanosecond. Time
/// the thread spent waiting for a CPU is not in it: neither waits behind
/// other threads nor, on a guest with paravirtual steal accounting, time
/// the host gave the virtual CPU to someone else. For single-threaded
/// work that never blocks, this is the wall time the work takes on a CPU
/// of its own.
pub fn thread_cpu_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // always accepts.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    if status != 0 {
        return 0.0;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// CPU nanoseconds one iteration of [`kernel`] takes at reference speed:
/// about its time, run [`KERNEL_CHUNK`] iterations at a time between units
/// of fuzzing work, on a quiet core of a 2-vCPU Xeon virtual machine at
/// 2.0 GHz.
pub const KERNEL_REF_NS: f64 = 700.0;

/// Kernel iterations per [`Calibration::run`], about 1.5 ms of CPU time.
pub const KERNEL_CHUNK: u64 = 2_000;

/// How much harder contention hits the fuzzing workloads than the
/// kernel: over repetitions on a shared host, the logarithm of a
/// workload's CPU time against that of the kernel's has a slope of
/// 1.25–1.6 (correlation 0.9–0.98, both workloads, several kernels
/// tried), so a core that runs the kernel 10% slower runs the workloads
/// about 14% slower.
pub const SLOWDOWN_EXPONENT: f64 = 1.4;

/// The calibration kernel: `iterations` byte strings of pseudo-random
/// length, each generated, hashed (FNV-1a), counted into a 16 KiB table
/// of byte-pair buckets with data-dependent branches, copied, reversed and
/// compared pairwise, all on the stack. It is the benchmark's own code and
/// touches no shared state such as the heap, so no change to the program
/// can change it, and its CPU time tracks only how fast the core runs at
/// the moment: when the host's neighbours got busy, it slowed down nearly
/// as much as the fuzzing workloads did (correlation about 0.9 between
/// repetitions), more so than a serial hash chain or random access to a
/// table alone.
pub fn kernel(iterations: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut digest = 0u64;
    let mut input = [0u8; 256];
    let mut output = [0u8; 256];
    let mut buckets = [0u32; 4096];
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 16 + (x % 200) as usize;
        for (j, byte) in input[..len].iter_mut().enumerate() {
            *byte = (x >> (j % 56)) as u8 ^ i as u8;
        }
        let input = std::hint::black_box(&input[..len]);

        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in input {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01B3);
        }
        digest ^= hash;

        let mut previous = 0usize;
        for byte in input {
            let slot = (previous << 4 ^ usize::from(*byte)) & 4095;
            buckets[slot] = buckets[slot].wrapping_add(1);
            if buckets[slot] & 3 == 0 {
                digest = digest.wrapping_add(slot as u64);
            } else {
                digest ^= u64::from(*byte);
            }
            previous = slot;
        }

        let output = &mut output[..len];
        output.copy_from_slice(input);
        output.reverse();
        let rising = output.windows(2).filter(|pair| pair[0] < pair[1]).count();
        digest = digest.wrapping_add(rising as u64) ^ u64::from(output[len / 2]);
    }
    std::hint::black_box(digest)
}

/// The calibration kernel's runs during one repetition, interleaved with
/// its units of work so that they sample the core's speed throughout.
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    /// CPU seconds of each chunk, in the order they ran.
    chunks_s: Vec<f64>,
}

impl Calibration {
    /// Runs one chunk of the kernel on the calling thread and records its
    /// CPU time.
    pub fn run(&mut self) {
        let started = thread_cpu_s();
        kernel(KERNEL_CHUNK);
        self.chunks_s.push(thread_cpu_s() - started);
    }

    /// Chunks run so far; work started now lies after chunk `chunks() - 1`.
    pub fn chunks(&self) -> usize {
        self.chunks_s.len()
    }

    /// CPU seconds of every chunk so far.
    pub fn kernel_s(&self) -> f64 {
        self.chunks_s.iter().sum()
    }

    /// CPU nanoseconds per kernel iteration over every chunk.
    pub fn ns_per_iteration(&self) -> f64 {
        ns_per_iteration(&self.chunks_s)
    }

    /// The repetition's factor, from every chunk: reference-speed seconds
    /// per CPU second measured, 1 at reference speed and below 1 while
    /// the core runs slower. A workload's CPU time times this factor is
    /// what the work would have taken at reference speed.
    pub fn factor(&self) -> f64 {
        speed_factor(&self.chunks_s)
    }

    /// The factor for work done between chunk `index` and the next one,
    /// from those two chunks: it follows a slowdown that lasts only part
    /// of the repetition.
    pub fn factor_after(&self, index: usize) -> f64 {
        let end = (index + 2).min(self.chunks_s.len());
        speed_factor(self.chunks_s.get(index..end).unwrap_or(&[]))
    }
}

fn ns_per_iteration(chunks_s: &[f64]) -> f64 {
    chunks_s.iter().sum::<f64>() * 1e9 / (chunks_s.len() as u64 * KERNEL_CHUNK).max(1) as f64
}

fn speed_factor(chunks_s: &[f64]) -> f64 {
    if chunks_s.iter().sum::<f64>() > 0.0 {
        (KERNEL_REF_NS / ns_per_iteration(chunks_s)).powf(SLOWDOWN_EXPONENT)
    } else {
        1.0
    }
}

/// CPU seconds run by the live thread of this process named `comm`
/// (thread names are truncated to 15 bytes by the kernel).
pub fn named_thread_cpu_s(comm: &str) -> Option<f64> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    for task in tasks.flatten() {
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if name.trim_end() == comm {
            return schedstat_s(&dir.join("schedstat").to_string_lossy());
        }
    }
    None
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or(0);
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz::baseline::cmfuzz_setups;
    use cmfuzz::campaign::{try_run_campaign, CampaignOptions, InstanceSetup};
    use cmfuzz::schedule::{build_schedule, ScheduleOptions};
    use cmfuzz_coverage::Ticks;
    use cmfuzz_fleet::{
        run_fleet, CoverageGradient, FleetCampaign, FleetManager, FleetOptions, WaveOutcome,
    };
    use cmfuzz_protocols::spec_by_name;
    use cmfuzz_server::result_digest;
    use cmfuzz_telemetry::Telemetry;

    fn tiny_options(seed: u64) -> CampaignOptions {
        CampaignOptions {
            instances: 2,
            budget: Ticks::new(400),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed,
            batch: 7,
            ..CampaignOptions::default()
        }
    }

    /// Exercises every `Target` method through the wrapper on one subject.
    #[test]
    fn timed_target_forwards_every_method() {
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let plain = (spec.build)();
        let mut timed = Timed::new((spec.build)(), &SCHEDULE);
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.branch_count(), plain.branch_count());
        assert_eq!(
            format!("{:?}", timed.config_space()),
            format!("{:?}", plain.config_space())
        );
        assert_eq!(
            format!("{:?}", timed.config_constraints()),
            format!("{:?}", plain.config_constraints())
        );
        assert_eq!(
            format!("{:?}", timed.branch_guards()),
            format!("{:?}", plain.branch_guards())
        );
        // Scheduling boots the probe target once per startup probe.
        let schedule = build_schedule(&mut timed, 2, &ScheduleOptions::default());
        let reference = build_schedule(&mut (spec.build)(), 2, &ScheduleOptions::default());
        assert_eq!(
            format!("{:?}", schedule.plans),
            format!("{:?}", reference.plans)
        );
        assert!(timed.local.boots > 0);
        let boots = timed.local.boots;
        timed.begin_session();
        let _ = timed.handle(b"\x10\x0c\x00\x04MQTT\x04\x02\x00\x3c\x00\x00");
        let mut faults = Vec::new();
        timed.handle_batch(b"\xc0\x00\xe0\x00", &[(0, 2), (2, 2)], &mut faults);
        assert_eq!(timed.local.messages, 3);
        let state = timed.export_state();
        timed.import_state(&state);
        assert_eq!(timed.local.boots, boots);
        let seen = timed.local;
        drop(timed);
        // Dropping flushes into the sink exactly once.
        let flushed = SCHEDULE.take();
        assert_eq!(flushed.messages, seen.messages);
        assert_eq!(flushed.boots, seen.boots);
        assert_eq!(SCHEDULE.take(), TargetTimes::default());
    }

    #[test]
    fn traced_campaign_digests_match_untraced() {
        let spec = spec_by_name("libcoap").expect("subject exists");
        let schedule = build_schedule(&mut (spec.build)(), 2, &ScheduleOptions::default());
        let setups = cmfuzz_setups(&schedule, 2);
        for options in [
            tiny_options(5),
            CampaignOptions {
                worker_pool: false,
                ..tiny_options(9)
            },
        ] {
            let plain = try_run_campaign(&spec, "cmfuzz", &setups, &options).expect("runs");
            let traced =
                try_run_campaign(&traced_spec(spec), "cmfuzz", &setups, &options).expect("runs");
            assert_eq!(result_digest(&plain), result_digest(&traced));
        }
    }

    #[test]
    fn timed_policy_forwards_and_leaves_fleet_digests_unchanged() {
        let fleet = |spec: ProtocolSpec| -> Vec<FleetCampaign> {
            (0..2)
                .map(|i| FleetCampaign {
                    id: format!("dnsmasq/{i}"),
                    spec,
                    fuzzer: "cmfuzz".into(),
                    setups: vec![InstanceSetup::default()],
                    options: CampaignOptions {
                        instances: 1,
                        worker_pool: false,
                        ..tiny_options(11 + i)
                    },
                    share_group: Some("dnsmasq".into()),
                })
                .collect()
        };
        let spec = spec_by_name("dnsmasq").expect("subject exists");
        let options = FleetOptions {
            slots: 2,
            slice: Ticks::new(100),
            total_budget: Some(Ticks::new(600)),
            share_rare_seeds: 2,
            ..FleetOptions::default()
        };
        let reference =
            run_fleet(&fleet(spec), &mut CoverageGradient::new(), &options).expect("runs");

        // Drive the manager by hand, as the fleet workload does.
        let mut policy = TimedPolicy::new(CoverageGradient::new());
        let mut manager = FleetManager::new(options, &Telemetry::disabled());
        manager
            .admit_batch(fleet(traced_spec(spec)))
            .expect("admits");
        while let WaveOutcome::Ran { progress: true, .. } =
            manager.step_wave(&mut policy).expect("steps")
        {}
        let traced = manager.finish(policy.name()).expect("finishes");
        assert_eq!(policy.name(), "coverage-gradient");
        assert!(policy.pick_ns > 0 && policy.observe_ns > 0);
        assert_eq!(traced.waves, reference.waves);
        assert_eq!(traced.seeds_shared, reference.seeds_shared);
        for (a, b) in traced.campaigns.iter().zip(&reference.campaigns) {
            assert_eq!(result_digest(&a.result()), result_digest(&b.result()));
        }
        assert!(TARGETS.take().boots > 0);
    }

    #[test]
    fn calibration_kernel_is_fixed_and_timed() {
        assert_eq!(kernel(300), kernel(300));
        assert_ne!(kernel(300), kernel(301));
        assert_eq!(Calibration::default().factor(), 1.0);
        let mut calibration = Calibration::default();
        assert_eq!(calibration.factor_after(0), 1.0);
        for _ in 0..3 {
            calibration.run();
        }
        assert_eq!(calibration.chunks(), 3);
        assert!(calibration.kernel_s() > 0.0);
        let factor = calibration.factor();
        assert!(factor > 0.0 && factor.is_finite());
        let speed = KERNEL_REF_NS / calibration.ns_per_iteration();
        assert!((factor.ln() - SLOWDOWN_EXPONENT * speed.ln()).abs() < 1e-9);
        // Work between two chunks is scaled by those two alone; work after
        // the last chunk by the last one.
        let pair = Calibration {
            chunks_s: calibration.chunks_s[1..3].to_vec(),
        };
        assert_eq!(calibration.factor_after(1), pair.factor());
        let last = Calibration {
            chunks_s: vec![calibration.chunks_s[2]],
        };
        assert_eq!(calibration.factor_after(2), last.factor());
        assert_eq!(calibration.factor_after(7), 1.0);
    }

    #[test]
    fn cpu_and_memory_readings_are_positive() {
        let before = thread_cpu_s();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let burnt = thread_cpu_s() - before;
        assert!(burnt > 0.0 && burnt <= started.elapsed().as_secs_f64());
        // Sleeping does not run the thread's clock.
        let asleep = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(thread_cpu_s() - asleep < 0.01);
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}

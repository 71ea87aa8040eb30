//! The served fleet, measured in the `fleet` workload's traced run for
//! the server and fan-out layers: the fleet as a `Submission` to an
//! in-process `ControlPlane` served on loopback with the shipped
//! `ServerOptions` limits, one slot (waves run on the engine thread). One
//! connection sends an open-loop mix of `status`, `metrics` and `result`
//! below the per-connection rate limit; a second one tails telemetry. The
//! timed window runs from the `submit` until the client sees every
//! campaign complete.
//!
//! Its request latencies are wall-clock waits across three threads and a
//! lock, so they follow whatever else the host runs; they are per-layer
//! figures, not end-to-end metrics with a bound.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{run_fleet, CoverageGradient, FleetOptions};
use cmfuzz_protocols::all_specs;
use cmfuzz_server::{
    parse_json, result_digest, serve, CampaignSubmission, ControlPlane, JsonValue, PlaneOptions,
    Request, ServerOptions, StopReason, Submission,
};

use crate::stats::{median, percentile};
use crate::trace::{named_thread_cpu_s, process_cpu_s, thread_cpu_s};
use crate::{mix, repeat, Report};

/// Each submitted campaign runs the subject's three relation-aware
/// partitions as three instances.
const INSTANCES: usize = 3;
const BUDGET: u64 = 4_000;
const SLICE: u64 = 200;
/// Requests per second on the request connection: half the shipped
/// per-connection limit of 100/s, so that even a backlog released all at
/// once after a long lock wait fits in the burst allowance of 200.
const RATE: f64 = 50.0;
/// A request unanswered this long after it was due counts as failed.
const TIMEOUT: Duration = Duration::from_secs(20);
/// The engine thread's name as the kernel keeps it (15 bytes).
const ENGINE_THREAD: &str = "cmfuzz-plane-en";

/// One campaign per subject, seeded like the first partition of the same
/// subject in the `fleet` workload.
pub fn submission(seed: u64) -> Submission {
    Submission {
        campaigns: all_specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| CampaignSubmission {
                id: format!("{}/fleet", spec.name),
                subject: spec.name.to_owned(),
                instances: INSTANCES,
                budget: BUDGET,
                sample_interval: 100,
                saturation_window: 200,
                seed: mix(seed, (i * 3) as u64),
                share_group: None,
                paused: false,
            })
            .collect(),
    }
}

fn fleet_options() -> FleetOptions {
    FleetOptions {
        slots: 1,
        slice: Ticks::new(SLICE),
        total_budget: None,
        skip_preflight: false,
        share_rare_seeds: 0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Status,
    Metrics,
    Result,
}

/// A line-oriented client on a non-blocking socket.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        let mut sent = 0;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Appends every complete line available now; `Ok(true)` at EOF.
    fn poll(&mut self, out: &mut Vec<String>) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let eof = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        while let Some(newline) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=newline).collect();
            out.push(String::from_utf8_lossy(&line).trim_end().to_owned());
        }
        Ok(eof)
    }

    /// Sends one request and waits for its single response line.
    fn call(&mut self, request: &Request) -> io::Result<JsonValue> {
        self.send(&request.to_line())?;
        let deadline = Instant::now() + TIMEOUT;
        let mut lines = Vec::new();
        loop {
            let eof = self.poll(&mut lines)?;
            if let Some(line) = lines.first() {
                return parse_json(line).map_err(|e| io::Error::other(e.to_string()));
            }
            if eof || Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

fn is_ok(response: &JsonValue) -> bool {
    response.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// `(id, state, consumed, leases)` rows of a status response.
fn status_rows(response: &JsonValue) -> Vec<(String, String, u64, u64)> {
    response
        .get("campaigns")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let text = |k: &str| {
                row.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned()
            };
            let num = |k: &str| row.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            (text("id"), text("state"), num("consumed"), num("leases"))
        })
        .collect()
}

/// What the client saw during one served fleet.
#[derive(Debug, Default)]
struct Rep {
    cpu_s: f64,
    client_s: f64,
    loop_s: f64,
    engine_s: f64,
    submit_ms: f64,
    window_s: f64,
    latencies: Vec<(Verb, f64)>,
    late_ms: Vec<f64>,
    requests: u64,
    failed: u64,
    timeouts: u64,
    rate_limited: u64,
    tail_lines: u64,
    complete: bool,
    digests: Vec<(String, String)>,
    fanout: [u64; 3],
    error: Option<String>,
}

fn rep(submission: &Submission) -> Rep {
    let cpu = process_cpu_s();
    let client = thread_cpu_s();
    let mut rep = Rep::default();
    let plane = match ControlPlane::start(PlaneOptions {
        fleet: fleet_options(),
        policy: "coverage-gradient".into(),
        ..PlaneOptions::default()
    }) {
        Ok(plane) => plane,
        Err(error) => {
            rep.error = Some(error);
            return rep;
        }
    };
    let listener = match TcpListener::bind("127.0.0.1:0").and_then(|l| Ok((l.local_addr()?, l))) {
        Ok(bound) => bound,
        Err(error) => {
            rep.error = Some(error.to_string());
            plane.shutdown();
            return rep;
        }
    };
    let (addr, listener) = listener;
    // Stops the serving loop even if the client fails before `shutdown`.
    let stop = Arc::new(AtomicBool::new(false));
    let options = ServerOptions {
        kill_override: Some(Arc::clone(&stop)),
        ..ServerOptions::default()
    };
    let served = std::thread::scope(|scope| {
        let server = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn_scoped(scope, || {
                let summary = serve(&listener, &plane, &options);
                (summary, thread_cpu_s())
            })
            .expect("spawn the serving thread");
        if let Err(error) = drive(addr, submission, &plane, &mut rep) {
            rep.error = Some(error.to_string());
        }
        stop.store(true, Ordering::Release);
        server.join()
    });
    match served {
        Ok((Ok(summary), loop_s)) => {
            rep.loop_s = loop_s;
            rep.rate_limited = summary.rate_limited;
            if summary.reason != StopReason::Requested && rep.error.is_none() {
                rep.error = Some("server stopped without a shutdown request".into());
            }
        }
        Ok((Err(error), _)) => rep.error = Some(error.to_string()),
        Err(_) => rep.error = Some("serving thread panicked".into()),
    }
    plane.shutdown();
    rep.client_s = thread_cpu_s() - client;
    rep.cpu_s = process_cpu_s() - cpu;
    rep
}

/// The client: submit, open-loop requests until every campaign is
/// complete, then the post-window queries and `shutdown`.
fn drive(
    addr: SocketAddr,
    submission: &Submission,
    plane: &ControlPlane,
    rep: &mut Rep,
) -> io::Result<()> {
    let mut requests = Conn::connect(addr)?;
    let mut tail = Conn::connect(addr)?;
    let ids: Vec<String> = submission.campaigns.iter().map(|c| c.id.clone()).collect();

    let window = Instant::now();
    let admitted = requests.call(&Request::Submit(submission.clone()))?;
    rep.submit_ms = window.elapsed().as_secs_f64() * 1000.0;
    if !is_ok(&admitted) {
        return Err(io::Error::other(format!("submit refused: {admitted:?}")));
    }
    tail.send(&Request::Tail.to_line())?;

    let period = Duration::from_secs_f64(1.0 / RATE);
    let mut next_due = Instant::now();
    let mut pending: VecDeque<(Verb, Instant)> = VecDeque::new();
    let mut scheduled: Vec<String> = Vec::new();
    let mut sent = 0usize;
    let mut finished = 0usize;
    let mut done = false;
    let mut lines = Vec::new();
    loop {
        let now = Instant::now();
        while !done && next_due <= now {
            // `result` only names a campaign a status row showed leased,
            // so that no request asks for a result that cannot exist yet.
            let verb = match sent % 3 {
                0 => Verb::Status,
                1 => Verb::Metrics,
                _ if scheduled.is_empty() => Verb::Status,
                _ => Verb::Result,
            };
            let request = match verb {
                Verb::Status => Request::Status,
                Verb::Metrics => Request::Metrics,
                Verb::Result => Request::Result {
                    id: scheduled[sent / 3 % scheduled.len()].clone(),
                },
            };
            requests.send(&request.to_line())?;
            rep.late_ms
                .push(now.duration_since(next_due).as_secs_f64() * 1000.0);
            pending.push_back((verb, next_due));
            sent += 1;
            next_due += period;
        }

        lines.clear();
        if requests.poll(&mut lines)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let now = Instant::now();
        for line in &lines {
            let Some((verb, due)) = pending.pop_front() else {
                return Err(io::Error::other("response without a request"));
            };
            rep.requests += 1;
            let response = parse_json(line).map_err(|e| io::Error::other(e.to_string()))?;
            if !is_ok(&response) {
                rep.failed += 1;
                continue;
            }
            rep.latencies
                .push((verb, now.duration_since(due).as_secs_f64() * 1000.0));
            if verb == Verb::Status {
                let rows = status_rows(&response);
                scheduled = rows
                    .iter()
                    .filter(|row| row.3 > 0)
                    .map(|row| row.0.clone())
                    .collect();
                if rows.len() == ids.len() && rows.iter().all(|row| row.1 == "complete") {
                    done = true;
                }
            }
        }

        lines.clear();
        tail.poll(&mut lines)?;
        rep.tail_lines += lines.len() as u64;
        finished += lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"campaign_finished\""))
            .count();
        if finished >= ids.len() {
            done = true;
        }
        if done && rep.window_s == 0.0 {
            rep.window_s = window.elapsed().as_secs_f64();
        }
        if let Some((_, due)) = pending.front() {
            if now.duration_since(*due) > TIMEOUT {
                rep.timeouts = pending.len() as u64;
                rep.failed += rep.timeouts;
                return Err(io::Error::new(io::ErrorKind::TimedOut, "request timed out"));
            }
        }
        if done && pending.is_empty() {
            break;
        }
        let wait = if done {
            Duration::from_micros(200)
        } else {
            next_due
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(1))
        };
        std::thread::sleep(wait);
    }

    // Outside the window: final state, fan-out counters, digests.
    let status = requests.call(&Request::Status)?;
    let rows = status_rows(&status);
    rep.complete = rows.len() == ids.len()
        && rows
            .iter()
            .all(|row| row.1 == "complete" && row.2 == BUDGET);
    let metrics = requests.call(&Request::Metrics)?;
    let metric = |group: &str, name: &str| {
        metrics
            .get("metrics")
            .and_then(|m| m.get(group))
            .and_then(|g| g.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    rep.fanout = [
        metric("counters", "fanout.events_dropped"),
        metric("counters", "fanout.subscribers_evicted"),
        metric("gauges", "fanout.subscriber_lag"),
    ];
    for id in &ids {
        let response = requests.call(&Request::Result { id: id.clone() })?;
        let digest = response
            .get("digest")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned();
        rep.digests.push((id.clone(), digest));
    }
    // The engine thread exits with the plane; read its CPU time first.
    rep.engine_s = named_thread_cpu_s(ENGINE_THREAD).unwrap_or(0.0);
    if let Some(error) = plane.last_error() {
        return Err(io::Error::other(format!("engine stopped: {error}")));
    }
    let bye = requests.call(&Request::Shutdown)?;
    if !is_ok(&bye) {
        return Err(io::Error::other("shutdown refused"));
    }
    // Drain the tail until the server closes it.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        lines.clear();
        let eof = tail.poll(&mut lines)?;
        rep.tail_lines += lines.len() as u64;
        if eof || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Serves the fleet for `seconds` after one warm-up, checks every served
/// result against an offline `run_fleet`, and sets the `serve.*` and
/// `fanout.*` per-layer metrics.
pub fn measure(report: &mut Report, seed: u64, seconds: f64) {
    let submission = submission(seed);
    let warmup = rep(&submission);
    let reps = repeat(seconds, 2, || rep(&submission));

    // Served must equal offline: `run_fleet` of the materialized
    // submission, outside every timed window.
    let offline = submission
        .materialize()
        .map_err(io::Error::other)
        .and_then(|fleet| {
            run_fleet(&fleet, &mut CoverageGradient::new(), &fleet_options())
                .map_err(|e| io::Error::other(e.to_string()))
        });
    let expected: Vec<(String, String)> = match &offline {
        Ok(result) => result
            .campaigns
            .iter()
            .map(|c| (c.id.clone(), result_digest(&c.result())))
            .collect(),
        Err(_) => Vec::new(),
    };
    report.check("offline run_fleet of the submission ran", offline.is_ok());

    let all: Vec<&Rep> = reps.iter().chain([&warmup]).collect();
    let errors: Vec<&String> = all.iter().filter_map(|r| r.error.as_ref()).collect();
    for error in errors.iter().take(3) {
        eprintln!("perfbench: serve failed: {error}");
    }
    report.check("every served fleet ran to the end", errors.is_empty());
    report.check(
        "every served campaign completed its budget",
        all.iter().all(|r| r.complete),
    );
    report.check(
        "served digests equal the offline run_fleet digests",
        all.iter().all(|r| r.digests == expected),
    );
    let requests: u64 = all.iter().map(|r| r.requests + r.timeouts).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let campaigns = (all.len() * submission.campaigns.len()) as u64;
    let failed_campaigns =
        (all.iter().filter(|r| !r.complete).count() * submission.campaigns.len()) as u64;
    report.attempted += requests + campaigns;
    report.failed += failed + failed_campaigns;
    per_layer(report, &reps);
}

fn per_layer(report: &mut Report, reps: &[Rep]) {
    let verb = |v: Verb| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| {
                r.latencies
                    .iter()
                    .filter(|(w, _)| *w == v)
                    .map(|(_, ms)| *ms)
            })
            .collect()
    };
    for (v, p50, p90) in [
        (Verb::Status, "serve.status_ms.p50", "serve.status_ms.p90"),
        (
            Verb::Metrics,
            "serve.metrics_ms.p50",
            "serve.metrics_ms.p90",
        ),
        (Verb::Result, "serve.result_ms.p50", "serve.result_ms.p90"),
    ] {
        let samples = verb(v);
        report.set(p50, median(&samples));
        report.set(p90, percentile(&samples, 90.0).unwrap_or(0.0));
    }
    let mean = |f: &dyn Fn(&Rep) -> f64| crate::mean(reps, f);
    let late: Vec<f64> = reps.iter().flat_map(|r| r.late_ms.clone()).collect();
    report.set("serve.submit_ms", mean(&|r| r.submit_ms));
    report.set("serve.window_s", mean(&|r| r.window_s));
    report.set("serve.requests", mean(&|r| r.requests as f64));
    report.set("serve.rate_limited", mean(&|r| r.rate_limited as f64));
    report.set(
        "serve.generator_late_ms.max",
        late.iter().copied().fold(0.0, f64::max),
    );
    report.set("serve.tail_lines", mean(&|r| r.tail_lines as f64));
    report.set("fanout.dropped", mean(&|r| r.fanout[0] as f64));
    report.set("fanout.evicted", mean(&|r| r.fanout[1] as f64));
    report.set("fanout.worst_lag", mean(&|r| r.fanout[2] as f64));
    let engine = mean(&|r| r.engine_s);
    let serving = mean(&|r| r.loop_s);
    let client = mean(&|r| r.client_s);
    report.set("serve.engine_s", engine);
    report.set("serve.loop_s", serving);
    report.set("serve.client_s", client);
    // The three named threads do the served fleet's work; the process's
    // CPU clock (10 ms ticks) must account for them within 10%.
    let threads_pct = (engine + serving + client) / mean(&|r| r.cpu_s).max(1e-9) * 100.0;
    report.check(
        format!("serve engine + loop + client = process CPU within 10% ({threads_pct:.1}%)"),
        (threads_pct - 100.0).abs() <= 10.0,
    );
}

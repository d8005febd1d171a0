//! The TCP load generator: one pipelined connection of point requests
//! and one closed-loop connection of scans, over two timed phases.
//!
//! * **Unthrottled**: the point connection keeps its window full; the
//!   completion rate of both connections is the capacity measurement.
//! * **Open loop**: the point connection offers requests on a fixed
//!   schedule. Each request is timed from its scheduled tick, so a stall
//!   is charged to every request it delays; a request that finds the
//!   window full is shed at the client and counted as failed. How late
//!   the generator itself sent is recorded as generator lag.
//!
//! Every reply is checked against [`Versions`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use kv_service::{KvClient, PipelinedClient, Request, Response};
use ycsb_gen::{Distribution, Operation, OperationKind, WorkloadSpec};

use crate::trace;
use crate::value::{self, Versions};

/// Violation messages kept per phase (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// Requests in flight on the point connection in the unthrottled rounds.
const UNTHROTTLED_WINDOW: usize = 64;

/// Window of the open-loop phase: deep enough that only a stall of
/// `OPEN_LOOP_WINDOW / rate` seconds sheds requests.
const OPEN_LOOP_WINDOW: usize = 1_024;

/// The point-request mix of the pipelined connection.
#[derive(Debug, Clone, Copy)]
pub struct PointMix {
    pub distribution: Distribution,
    pub read: f64,
    pub update: f64,
    pub insert: f64,
}

/// One serving run's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    pub scan_distribution: Distribution,
    pub unthrottled: Duration,
    pub open_loop: Duration,
    /// Offered point requests per second in the open-loop phase.
    pub rate: f64,
    pub seed: u64,
}

/// What one phase observed, both connections together.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    pub elapsed: Duration,
    pub attempted: u64,
    /// Requests that failed: errors, BUSY, shed at the client.
    pub failed: u64,
    /// Replies that contradicted the record of acked writes.
    pub wrong: u64,
    pub messages: Vec<String>,
    /// Requests completed, both connections.
    pub completed: u64,
    pub put_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    pub scan_ns: Vec<u64>,
    pub gen_lag_ns: Vec<u64>,
    pub puts_acked: u64,
    pub scans: u64,
    pub scan_keys: u64,
}

impl PhaseOutcome {
    fn violation(&mut self, message: String) {
        self.wrong += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn absorb(&mut self, other: PhaseOutcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for m in other.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m);
            }
        }
        self.completed += other.completed;
        self.put_ns.extend(other.put_ns);
        self.get_ns.extend(other.get_ns);
        self.scan_ns.extend(other.scan_ns);
        self.gen_lag_ns.extend(other.gen_lag_ns);
        self.puts_acked += other.puts_acked;
        self.scans += other.scans;
        self.scan_keys += other.scan_keys;
    }
}

/// An endless, seeded stream of point operations over `records`
/// preloaded keys.
pub fn point_stream(mix: PointMix, records: u64, seed: u64) -> ycsb_gen::WorkloadGenerator {
    WorkloadSpec::builder()
        .record_count(records)
        .operation_count(u64::MAX)
        .read_proportion(mix.read)
        .update_proportion(mix.update)
        .insert_proportion(mix.insert)
        .distribution(mix.distribution)
        .seed(seed)
        .build()
        .expect("valid point mix")
        .generator()
}

fn scan_stream(distribution: Distribution, records: u64, seed: u64) -> ycsb_gen::WorkloadGenerator {
    WorkloadSpec::builder()
        .record_count(records)
        .operation_count(u64::MAX)
        .update_proportion(0.0)
        .scan_proportion(1.0)
        .max_scan_length(100)
        .distribution(distribution)
        .seed(seed)
        .build()
        .expect("valid scan mix")
        .generator()
}

enum Pending {
    Put { key: u64, version: u64 },
    Get { key: u64, acked: u64 },
}

struct InFlight {
    what: Pending,
    /// Latency origin: the scheduled tick (open loop) or the send.
    origin: Instant,
}

#[derive(Clone, Copy)]
enum Pace {
    Unthrottled,
    Fixed(Duration),
}

/// Rounds per phase. Each round is timed on its own and the client's
/// figures are medians over rounds, so one disk hiccup moves one round.
pub const ROUNDS: usize = 3;

/// Runs both timed phases against the server at `addr`: the open-loop
/// rounds first, so they start from the state the set-up left (the
/// offered load, not the measured capacity, decides what they write),
/// then the unthrottled rounds. `points` is the point-operation stream;
/// it continues across rounds. Returns `(open_loop, unthrottled)`.
pub fn serve(
    addr: SocketAddr,
    versions: &Versions,
    points: &mut dyn Iterator<Item = Operation>,
    config: &ServeConfig,
    mut between: impl FnMut(),
) -> (Vec<PhaseOutcome>, Vec<PhaseOutcome>) {
    let mut rounds = |pace: Pace, window: usize, length: Duration, first: usize| {
        (first..first + ROUNDS)
            .map(|round| {
                let length = length / ROUNDS as u32;
                phase(addr, versions, points, config, pace, window, length, round)
            })
            .collect::<Vec<_>>()
    };
    let interval = Duration::from_secs_f64(1.0 / config.rate);
    let open = rounds(Pace::Fixed(interval), OPEN_LOOP_WINDOW, config.open_loop, 0);
    between();
    let unthrottled = rounds(
        Pace::Unthrottled,
        UNTHROTTLED_WINDOW,
        config.unthrottled,
        ROUNDS,
    );
    (open, unthrottled)
}

#[allow(clippy::too_many_arguments)]
fn phase(
    addr: SocketAddr,
    versions: &Versions,
    points: &mut dyn Iterator<Item = Operation>,
    config: &ServeConfig,
    pace: Pace,
    window: usize,
    length: Duration,
    round: usize,
) -> PhaseOutcome {
    let scan_seed = config.seed.wrapping_mul(31).wrapping_add(round as u64);
    let mut scans =
        scan_stream(config.scan_distribution, versions.frontier(), scan_seed).run_phase();
    let start = Instant::now();
    let deadline = start + length;
    let mut outcome = std::thread::scope(|scope| {
        let scan_thread = std::thread::Builder::new()
            .name("bench-scan".to_owned())
            .spawn_scoped(scope, || scan_loop(addr, versions, &mut scans, deadline))
            .expect("spawning the scan connection");
        let mut points_outcome = point_loop(addr, versions, points, pace, window, start, deadline);
        points_outcome.absorb(scan_thread.join().expect("scan connection panicked"));
        points_outcome
    });
    outcome.elapsed = start.elapsed();
    outcome
}

fn point_loop(
    addr: SocketAddr,
    versions: &Versions,
    points: &mut dyn Iterator<Item = Operation>,
    pace: Pace,
    window: usize,
    start: Instant,
    deadline: Instant,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    let mut client = match PipelinedClient::connect(addr, window) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.violation(format!("point connection failed: {e}"));
            return out;
        }
    };
    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    let mut tick: u64 = 0;
    loop {
        let now = Instant::now();
        let due = match pace {
            Pace::Unthrottled => now,
            Pace::Fixed(interval) => start + interval * tick as u32,
        };
        if due >= deadline || now >= deadline {
            break;
        }
        // Hand out completions as they arrive while waiting for the tick.
        loop {
            while let Ok(Some((seq, response))) = client.try_completion() {
                complete(&mut out, versions, inflight.remove(&seq), response);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            match client.wait_completion(due - now) {
                Ok(Some((seq, response))) => {
                    complete(&mut out, versions, inflight.remove(&seq), response);
                }
                Ok(None) => {}
                Err(e) => {
                    out.violation(format!("connection lost: {e}"));
                    break;
                }
            }
        }
        tick += 1;
        let op = points.next().expect("endless point stream");
        let key = op.key;
        let (request, what) = match op.kind {
            OperationKind::Read => (
                Request::Get {
                    key: value::key_bytes(key),
                },
                Pending::Get {
                    key,
                    acked: versions.acked(key),
                },
            ),
            _ => {
                let version = versions.send_write(key);
                (
                    Request::Put {
                        key: value::key_bytes(key),
                        value: value::encode(key, version),
                    },
                    Pending::Put { key, version },
                )
            }
        };
        out.attempted += 1;
        let sent = match pace {
            Pace::Unthrottled => client.submit(&request).map(Some),
            Pace::Fixed(_) => client.try_submit(&request),
        };
        match sent {
            Ok(Some(seq)) => {
                let origin = match pace {
                    Pace::Unthrottled => Instant::now(),
                    Pace::Fixed(_) => {
                        out.gen_lag_ns
                            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                        due
                    }
                };
                inflight.insert(seq, InFlight { what, origin });
            }
            Ok(None) => out.failed += 1, // shed at the client
            Err(e) => {
                out.failed += 1;
                out.violation(format!("submit failed: {e}"));
                break;
            }
        }
    }
    match client.drain() {
        Ok(done) => {
            for (seq, response) in done {
                complete(&mut out, versions, inflight.remove(&seq), response);
            }
        }
        Err(e) => out.violation(format!("drain failed: {e}")),
    }
    // Whatever never completed failed.
    out.failed += inflight.len() as u64;
    out
}

fn complete(
    out: &mut PhaseOutcome,
    versions: &Versions,
    pending: Option<InFlight>,
    response: Response,
) {
    let Some(InFlight { what, origin }) = pending else {
        out.violation("completion for an unknown request".to_owned());
        return;
    };
    let now = Instant::now();
    let latency = now.saturating_duration_since(origin).as_nanos() as u64;
    match (what, response) {
        (Pending::Put { key, version }, Response::Ok) => {
            versions.ack_write(key, version);
            out.completed += 1;
            out.puts_acked += 1;
            out.put_ns.push(latency);
            trace::record("client", "put", origin, now);
        }
        (Pending::Get { key, acked }, reply @ (Response::Value(_) | Response::NotFound)) => {
            let value = match &reply {
                Response::Value(v) => Some(v.as_slice()),
                _ => None,
            };
            match versions.check_read(key, value, acked) {
                Ok(()) => {
                    out.completed += 1;
                    out.get_ns.push(latency);
                }
                Err(message) => {
                    out.failed += 1;
                    out.violation(message);
                }
            }
            trace::record("client", "get", origin, now);
        }
        (_, Response::Busy) => out.failed += 1,
        (_, other) => {
            out.failed += 1;
            out.violation(format!("unexpected reply {other:?}"));
        }
    }
}

fn scan_loop(
    addr: SocketAddr,
    versions: &Versions,
    scans: &mut (dyn Iterator<Item = Operation> + Send),
    deadline: Instant,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    let mut client = match KvClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.violation(format!("scan connection failed: {e}"));
            return out;
        }
    };
    while Instant::now() < deadline {
        let op = scans.next().expect("endless scan stream");
        let (start, len) = (op.key, u64::from(op.scan_len));
        let acked = versions.acked_range(start, len);
        out.attempted += 1;
        let sent = Instant::now();
        let result: Result<Vec<(Vec<u8>, Vec<u8>)>, _> =
            match client.scan_u64(start..start + len, op.scan_len) {
                Ok(stream) => stream.collect(),
                Err(e) => Err(e),
            };
        let done = Instant::now();
        trace::record("client", "scan", sent, done);
        match result {
            Ok(pairs) => match check_scan(versions, start, len, &acked, &pairs) {
                Ok(()) => {
                    out.completed += 1;
                    out.scans += 1;
                    out.scan_keys += pairs.len() as u64;
                    out.scan_ns
                        .push(done.duration_since(sent).as_nanos() as u64);
                }
                Err(message) => {
                    out.failed += 1;
                    out.violation(message);
                }
            },
            Err(e) => {
                out.failed += 1;
                out.violation(format!("scan failed: {e}"));
                break;
            }
        }
    }
    out
}

/// A scan of `[start, start + len)` with limit `len` must return, in
/// ascending order and within bounds, every key acked before it was
/// sent, each with a valid value.
fn check_scan(
    versions: &Versions,
    start: u64,
    len: u64,
    acked: &[u64],
    pairs: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), String> {
    if pairs.len() as u64 > len {
        return Err(format!(
            "scan from {start}: {} keys past limit {len}",
            pairs.len()
        ));
    }
    let mut previous: Option<u64> = None;
    let mut seen = vec![false; acked.len()];
    for (key, val) in pairs {
        let key = value::key_of(key)?;
        if key < start || key >= start + len {
            return Err(format!(
                "scan [{start}, {}): key {key} out of bounds",
                start + len
            ));
        }
        if previous.is_some_and(|p| p >= key) {
            return Err(format!("scan from {start}: key {key} out of order"));
        }
        previous = Some(key);
        let slot = (key - start) as usize;
        seen[slot] = true;
        versions.check_read(key, Some(val), acked[slot])?;
    }
    match acked.iter().zip(&seen).position(|(&a, &s)| a > 0 && !s) {
        Some(missing) => Err(format!(
            "scan from {start}: acked key {} missing",
            start + missing as u64
        )),
        None => Ok(()),
    }
}

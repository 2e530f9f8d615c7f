//! The `serve-mix` workload: an in-process counter-service daemon on
//! loopback, driven by closed-loop client connections with a seeded
//! request sequence over class-S MG, CG and IS jobs.

use crate::digest::Fnv;
use crate::{host, Out};
use bgp_arch::events::CoreEvent;
use bgp_arch::rng::SimRng;
use bgp_core::dump::NodeDump;
use bgp_core::WHOLE_PROGRAM_SET;
use bgp_nas::{Class, Kernel};
use bgp_postproc::Frame;
use bgp_serve::load::{str_member, u64_member};
use bgp_serve::proto::{result_payload, SubmitReq};
use bgp_serve::server::unhex;
use bgp_serve::{Client, Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon worker threads (each job runs on one simulator thread).
const WORKERS: usize = 2;
/// Closed-loop client connections.
const CONNECTIONS: usize = 2;
/// One request in this many introduces a key the daemon has not seen.
const MISS_EVERY: u64 = 50;
/// Daemon start-ups timed per run; the last one serves the load.
const SETUP_REPS: usize = 25;
/// Backpressure retries before a request counts as refused.
const MAX_RETRIES: u32 = 50;
const KERNELS: [Kernel; 3] = [Kernel::Mg, Kernel::Cg, Kernel::Is];
/// Every sequence opens with these keys (clean and fault-seeded runs of
/// each kernel); their served bytes are the workload's committed digest.
const PROBES: [(Kernel, u64); 6] = [
    (Kernel::Mg, 0),
    (Kernel::Cg, 0),
    (Kernel::Is, 0),
    (Kernel::Mg, 1),
    (Kernel::Cg, 1),
    (Kernel::Is, 1),
];

fn request(kernel: Kernel, seed: u64) -> SubmitReq {
    SubmitReq {
        kernel,
        class: Class::S,
        seed,
        ..SubmitReq::default()
    }
}

/// The request sequence: a pure function of the workload seed and the
/// request's position, whichever connection sends it.
struct Sequence {
    rng: SimRng,
    keys: Vec<SubmitReq>,
}

impl Sequence {
    fn new(seed: u64) -> Sequence {
        Sequence {
            rng: SimRng::seed_from_u64(seed),
            keys: Vec::new(),
        }
    }

    fn next(&mut self) -> SubmitReq {
        if let Some(&(k, s)) = PROBES.get(self.keys.len()) {
            self.keys.push(request(k, s));
        } else if self.rng.gen_range(0..MISS_EVERY) == 0 {
            let kernel = KERNELS[self.rng.gen_range(0..KERNELS.len())];
            // Fault seeds above the probes' keep new keys new.
            let seed = self.rng.gen_range(2..u64::MAX);
            self.keys.push(request(kernel, seed));
        } else {
            return self.keys[self.rng.gen_range(0..self.keys.len())];
        }
        *self.keys.last().expect("just pushed")
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    Joined,
    Failed,
}

struct Sample {
    outcome: Outcome,
    /// From the first send to the terminal response, retries included.
    secs: f64,
}

/// What the connections share: the sequence, the first payload served
/// for each key, and the backpressure rejections absorbed by retrying.
struct Shared {
    seq: Mutex<Sequence>,
    first: Mutex<HashMap<String, String>>,
    rejects: AtomicU64,
}

/// Daemon spawn to its first reply (a `ping`), returning the live daemon.
fn start() -> Result<(ServerHandle, Duration), String> {
    let t = Instant::now();
    let server = Server::spawn(ServerConfig {
        workers: WORKERS,
        quiet: true,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let reply = Client::connect(server.addr())
        .and_then(|mut c| c.request("{\"op\":\"ping\",\"v\":2}"))
        .map_err(|e| format!("ping: {e}"))?;
    let elapsed = t.elapsed();
    if !reply.contains("\"pong\":true") {
        return Err(format!("ping answered {reply}"));
    }
    Ok((server, elapsed))
}

/// One closed-loop connection: send the next request after the last
/// answer, until the deadline.
fn connection(server: &ServerHandle, shared: &Shared, deadline: Instant) -> Vec<Sample> {
    let mut samples = Vec::new();
    let Ok(mut client) = Client::connect(server.addr()) else {
        samples.push(Sample {
            outcome: Outcome::Failed,
            secs: f64::INFINITY,
        });
        return samples;
    };
    while Instant::now() < deadline {
        let req = shared.seq.lock().expect("sequence lock").next();
        let line = req.encode();
        let started = Instant::now();
        let mut outcome = Outcome::Failed;
        for _ in 0..=MAX_RETRIES {
            let Ok(resp) = client.request(&line) else {
                samples.push(Sample {
                    outcome: Outcome::Failed,
                    secs: f64::INFINITY,
                });
                return samples;
            };
            match str_member(&resp, "cache") {
                Some(cache) => {
                    outcome = match cache {
                        "hit" => Outcome::Hit,
                        "miss" => Outcome::Miss,
                        _ => Outcome::Joined,
                    };
                    if !audit(shared, &resp) {
                        outcome = Outcome::Failed;
                    }
                    break;
                }
                None if str_member(&resp, "error") == Some("backpressure") => {
                    shared.rejects.fetch_add(1, Ordering::Relaxed);
                    let wait = u64_member(&resp, "retry_after_ms").unwrap_or(50);
                    std::thread::sleep(Duration::from_millis(wait.clamp(5, 2_000)));
                }
                None => break,
            }
        }
        let secs = match outcome {
            Outcome::Failed => f64::INFINITY,
            _ => started.elapsed().as_secs_f64(),
        };
        samples.push(Sample { outcome, secs });
    }
    samples
}

/// Record the first payload served for a key, and check every later one
/// against it byte for byte.
fn audit(shared: &Shared, resp: &str) -> bool {
    let (Some(key), Some(payload)) = (str_member(resp, "key"), result_payload(resp)) else {
        return false;
    };
    let mut first = shared.first.lock().expect("payload lock");
    first
        .entry(key.to_string())
        .or_insert_with(|| payload.to_string())
        == payload
}

/// Simulated instructions the served dumps of one result observed.
fn observed_instructions(payload: &str) -> Option<u64> {
    let list = payload.split_once("\"dumps\":[")?.1.split_once(']')?.0;
    let dumps: Vec<NodeDump> = list
        .split(',')
        .map(|h| unhex(h.trim_matches('"')).and_then(|b| bgp_core::dump::decode(&b).ok()))
        .collect::<Option<_>>()?;
    let frame = Frame::from_dumps(&dumps, WHOLE_PROGRAM_SET).ok()?;
    Some(
        (0..bgp_arch::CORES_PER_NODE)
            .map(|c| frame.sum(CoreEvent::InstrCompleted.id(c)))
            .sum(),
    )
}

/// Run the load for `seconds` against a fresh daemon and report.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Out {
    let mut out = Out::default();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        match start() {
            Ok((s, d)) => {
                setups.push(d.as_secs_f64());
                if let Some(old) = server.replace(s) {
                    ServerHandle::shutdown(old);
                }
            }
            Err(e) => {
                out.text("error", &e);
                return out;
            }
        }
    }
    let server = server.expect("at least one start-up");

    let shared = Shared {
        seq: Mutex::new(Sequence::new(seed)),
        first: Mutex::new(HashMap::new()),
        rejects: AtomicU64::new(0),
    };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| connection(&server, &shared, deadline)))
            .collect();
        conns
            .into_iter()
            .flat_map(|c| c.join().expect("connection thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let rss_mb = host::peak_rss_mb();
    let stats = traced
        .then(|| Client::connect(server.addr()).and_then(|mut c| c.request("{\"op\":\"stats\"}")));
    server.shutdown();

    let by = |o: Outcome| {
        samples
            .iter()
            .filter(|s| s.outcome == o)
            .map(|s| s.secs)
            .collect::<Vec<_>>()
    };
    let (hits, misses, joined) = (by(Outcome::Hit), by(Outcome::Miss), by(Outcome::Joined));
    let failed = samples.len() - hits.len() - misses.len() - joined.len();
    let first = shared.first.into_inner().expect("payload lock");
    let mut h = Fnv::new();
    for (k, s) in PROBES {
        let key = request(k, s).cache_key(1, false).hex();
        h.blob(first.get(&key).map_or(&b""[..], |p| p.as_bytes()));
    }
    let mut instructions = 0u64;
    let mut undecodable = 0u64;
    for payload in first.values() {
        match observed_instructions(payload) {
            Some(n) => instructions += n,
            None => undecodable += 1,
        }
    }
    if failed > 0 || undecodable > 0 || samples.len() < PROBES.len() {
        out.text(
            "error",
            &format!(
                "{failed} requests errored, were refused or differed from the first \
                 answer for their key; {undecodable} results undecodable; {} sent",
                samples.len()
            ),
        );
    }
    out.text("digest", &h.hex());
    out.list("setup_s", &setups);
    out.list(
        "latency_s",
        &samples.iter().map(|s| s.secs).collect::<Vec<_>>(),
    );
    out.list("miss_s", &misses);
    out.list("hit_s", &hits);
    out.num("requests", samples.len() as f64);
    out.num("failed", failed as f64);
    out.num("hits", hits.len() as f64);
    out.num("misses", misses.len() as f64);
    out.num("joined", joined.len() as f64);
    out.num("rejects", shared.rejects.into_inner() as f64);
    out.num("wall_s", wall_s);
    out.num("cpu_s", cpu_s);
    out.num("rss_mb", rss_mb);
    out.num("instructions", instructions as f64);
    if let Some(stats) = stats {
        match stats.ok().and_then(|s| u64_member(&s, "latency_p99_ms")) {
            Some(p99) => out.num("server_p99_ms", p99 as f64),
            None => out.text("error", "stats op gave no latency_p99_ms"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_a_function_of_the_seed_and_opens_with_the_probes() {
        let take = |seed| {
            let mut s = Sequence::new(seed);
            (0..5_000).map(|_| s.next()).collect::<Vec<_>>()
        };
        let a = take(7);
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        for (i, &(k, s)) in PROBES.iter().enumerate() {
            assert_eq!(a[i], request(k, s));
        }
        let mut distinct = a.clone();
        distinct.sort_by_key(|r| (r.kernel.name(), r.seed));
        distinct.dedup();
        // About one request in fifty introduces a key.
        let new = distinct.len() - PROBES.len();
        assert!((60..140).contains(&new), "{new} new keys in 5000 requests");
    }
}

//! End-to-end service tests over real loopback sockets: the daemon's
//! whole contract — miss→hit byte identity, in-flight coalescing,
//! backpressure, drain semantics, streamed updates, and cache
//! persistence across a server restart.

use bgp_serve::load::{str_member, u64_member};
use bgp_nas::Kernel;
use bgp_serve::proto::{result_payload, Request, SubmitReq};
use bgp_serve::{request_once, Client, QueueConfig, Server, ServerConfig, ServerHandle};

fn quiet_cfg() -> ServerConfig {
    ServerConfig { quiet: true, ..ServerConfig::default() }
}

fn spawn(cfg: ServerConfig) -> ServerHandle {
    Server::spawn(cfg).expect("bind loopback")
}

fn submit(client: &mut Client, req: &SubmitReq) -> String {
    client.request(&req.encode()).expect("submit round-trip")
}

#[test]
fn miss_then_hit_is_byte_identical() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SubmitReq { seed: 7, ..SubmitReq::default() };

    let first = submit(&mut client, &req);
    assert_eq!(str_member(&first, "cache"), Some("miss"), "{first}");
    let key = str_member(&first, "key").expect("key in envelope").to_string();
    let payload = result_payload(&first).expect("result spliced").to_string();
    assert!(payload.contains("\"verified\":true"), "{payload}");
    assert!(payload.contains("\"seed\":7"));
    assert!(payload.contains("\"spec_hash\":"));

    // Replay: served from the store, byte-for-byte the same result.
    let second = submit(&mut client, &req);
    assert_eq!(str_member(&second, "cache"), Some("hit"), "{second}");
    assert_eq!(str_member(&second, "key"), Some(key.as_str()));
    assert_eq!(result_payload(&second), Some(payload.as_str()));

    // A different seed is a different key and a different result.
    let other = submit(&mut client, &SubmitReq { seed: 8, ..req });
    assert_eq!(str_member(&other, "cache"), Some("miss"));
    assert_ne!(str_member(&other, "key"), Some(key.as_str()));
    assert_ne!(result_payload(&other), Some(payload.as_str()));

    // Status sees the completed key; stats counted one hit.
    let status = client
        .request(&Request::Status { key: bgp_snapshot::CacheKey::parse_hex(&key).unwrap() }.encode())
        .unwrap();
    assert_eq!(str_member(&status, "state"), Some("done"), "{status}");
    let stats = client.request(&Request::Stats.encode()).unwrap();
    assert_eq!(u64_member(&stats, "hits"), Some(1), "{stats}");
    assert_eq!(u64_member(&stats, "misses"), Some(2));
    assert_eq!(u64_member(&stats, "completed"), Some(2));

    // Service-latency percentiles cover the two completed jobs, and the
    // quantiles are ordered.
    assert_eq!(u64_member(&stats, "latency_samples"), Some(2), "{stats}");
    let p50 = u64_member(&stats, "latency_p50_ms").unwrap();
    let p90 = u64_member(&stats, "latency_p90_ms").unwrap();
    let p99 = u64_member(&stats, "latency_p99_ms").unwrap();
    assert!(p50 <= p90 && p90 <= p99, "quantiles ordered: {stats}");

    server.shutdown();
}

#[test]
fn concurrent_identical_submits_run_once() {
    // One worker, four simultaneous submissions of one key: exactly one
    // job may run; everyone gets identical bytes.
    let server = spawn(ServerConfig { workers: 1, ..quiet_cfg() });
    let addr = server.addr();
    let req = SubmitReq { seed: 42, ..SubmitReq::default() };

    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let req = &req;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    submit(&mut c, req)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let payloads: Vec<&str> =
        responses.iter().map(|r| result_payload(r).expect("result")).collect();
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "all responses identical");
    let misses = responses
        .iter()
        .filter(|r| str_member(r, "cache") == Some("miss"))
        .count();
    assert!(misses <= 1, "at most one submission runs the job");

    let stats = request_once(addr, &Request::Stats.encode()).unwrap();
    assert_eq!(u64_member(&stats, "completed"), Some(1), "job ran once: {stats}");
    server.shutdown();
}

#[test]
fn zero_capacity_queue_rejects_with_retry_after() {
    let server = spawn(ServerConfig {
        queue: QueueConfig { capacity: 0, ..QueueConfig::default() },
        ..quiet_cfg()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = submit(&mut client, &SubmitReq::default());
    assert_eq!(str_member(&resp, "error"), Some("backpressure"), "{resp}");
    assert!(u64_member(&resp, "retry_after_ms").unwrap() >= 10);
    let stats = client.request(&Request::Stats.encode()).unwrap();
    assert_eq!(u64_member(&stats, "rejected_backpressure"), Some(1));
    server.shutdown();
}

#[test]
fn drain_serves_hits_but_rejects_new_work() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SubmitReq { seed: 3, ..SubmitReq::default() };
    let first = submit(&mut client, &req);
    assert_eq!(str_member(&first, "cache"), Some("miss"));

    let drain = client.request(&Request::Drain.encode()).unwrap();
    assert_eq!(str_member(&drain, "error"), None, "{drain}");

    // Cached work still flows; new work is refused.
    let hit = submit(&mut client, &req);
    assert_eq!(str_member(&hit, "cache"), Some("hit"), "{hit}");
    assert_eq!(result_payload(&hit), result_payload(&first));
    let rejected = submit(&mut client, &SubmitReq { seed: 4, ..req });
    assert_eq!(str_member(&rejected, "error"), Some("draining"), "{rejected}");

    server.shutdown();
}

#[test]
fn streamed_submit_sees_updates_before_the_result() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SubmitReq { seed: 99, stream: true, ..SubmitReq::default() };
    let mut updates = Vec::new();
    let resp = client
        .request_with_updates(&req.encode(), |u| updates.push(u.to_string()))
        .unwrap();
    assert_eq!(str_member(&resp, "cache"), Some("miss"), "{resp}");
    assert!(!updates.is_empty(), "a pending miss streams at least one update");
    for u in &updates {
        assert!(u.starts_with("{\"update\""), "{u}");
        let state = str_member(u, "state").expect("update carries a state");
        assert!(state == "queued" || state == "running", "{u}");
    }
    // A streamed hit needs no updates: the bytes are already there.
    let mut updates2 = Vec::new();
    let resp2 = client
        .request_with_updates(&req.encode(), |u| updates2.push(u.to_string()))
        .unwrap();
    assert_eq!(str_member(&resp2, "cache"), Some("hit"));
    assert!(updates2.is_empty());
    server.shutdown();
}

#[test]
fn persistent_cache_survives_restart() {
    let dir = std::env::temp_dir().join(format!("bgp-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let req = SubmitReq { seed: 5, ..SubmitReq::default() };

    let payload = {
        let server = spawn(ServerConfig { cache_dir: Some(dir.clone()), ..quiet_cfg() });
        let mut client = Client::connect(server.addr()).unwrap();
        let resp = submit(&mut client, &req);
        assert_eq!(str_member(&resp, "cache"), Some("miss"));
        let payload = result_payload(&resp).unwrap().to_string();
        server.shutdown();
        payload
    };

    // A fresh daemon over the same store serves the key as a hit
    // without running anything.
    let server = spawn(ServerConfig { cache_dir: Some(dir.clone()), ..quiet_cfg() });
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = submit(&mut client, &req);
    assert_eq!(str_member(&resp, "cache"), Some("hit"), "{resp}");
    assert_eq!(result_payload(&resp), Some(payload.as_str()));
    let stats = client.request(&Request::Stats.encode()).unwrap();
    assert_eq!(u64_member(&stats, "completed"), Some(0), "no job ran");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_envelope_runs_all_jobs_and_replays_as_hits() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    // Job 1 shares job 0's seed but runs a different kernel — same
    // hardware, different experiment, so it must get its own key
    // (the workload tag keeps them apart in the spec fingerprint).
    let jobs = vec![
        SubmitReq { seed: 11, ..SubmitReq::default() },
        SubmitReq { seed: 11, kernel: Kernel::Cg, ..SubmitReq::default() },
        SubmitReq { seed: 11, ..SubmitReq::default() }, // duplicate of job 0
    ];
    assert_ne!(jobs[0].cache_key(1, false), jobs[1].cache_key(1, false));
    let resp = client.request(&Request::Batch(jobs.clone()).encode()).unwrap();
    assert_eq!(u64_member(&resp, "jobs"), Some(3), "{resp}");
    assert!(resp.contains("\"results\":["), "{resp}");
    // Every job completed and verified; the duplicate coalesced or hit
    // rather than running twice.
    assert_eq!(resp.matches("\"verified\":true").count(), 3, "{resp}");
    let stats = client.request(&Request::Stats.encode()).unwrap();
    assert_eq!(u64_member(&stats, "batches"), Some(1), "{stats}");
    assert_eq!(u64_member(&stats, "completed"), Some(2), "duplicate ran once: {stats}");

    // Replaying the envelope is pure cache traffic.
    let replay = client.request(&Request::Batch(jobs).encode()).unwrap();
    assert_eq!(replay.matches("\"cache\":\"hit\"").count(), 3, "{replay}");
    server.shutdown();
}

#[test]
fn subscribe_attaches_without_submitting() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SubmitReq { seed: 21, ..SubmitReq::default() };
    let key = req.cache_key(1, false);

    // Subscribing to a key the server has never seen enqueues nothing.
    let unknown = client
        .request(&Request::Subscribe { key, stream: false }.encode())
        .unwrap();
    assert_eq!(str_member(&unknown, "error"), Some("unknown-key"), "{unknown}");

    // After a submit resolves the key, a subscribe serves the same
    // bytes without running anything.
    let first = submit(&mut client, &req);
    let payload = result_payload(&first).unwrap().to_string();
    let sub = client
        .request(&Request::Subscribe { key, stream: false }.encode())
        .unwrap();
    assert_eq!(str_member(&sub, "cache"), Some("hit"), "{sub}");
    assert_eq!(result_payload(&sub), Some(payload.as_str()));
    let stats = client.request(&Request::Stats.encode()).unwrap();
    assert_eq!(u64_member(&stats, "subscribes"), Some(2), "{stats}");
    assert_eq!(u64_member(&stats, "completed"), Some(1), "subscribe never runs jobs");
    server.shutdown();
}

#[test]
fn old_clients_get_a_structured_version_error() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    // A v1 client (no "v") reaching for a v2 op.
    let resp = client
        .request("{\"op\":\"batch\",\"jobs\":[{\"kernel\":\"mg\"}]}")
        .unwrap();
    assert_eq!(str_member(&resp, "error"), Some("unsupported-version"), "{resp}");
    assert_eq!(u64_member(&resp, "requested"), Some(1));
    assert_eq!(u64_member(&resp, "supported"), Some(2));
    // A client from the future.
    let resp = client.request("{\"op\":\"ping\",\"v\":9}").unwrap();
    assert_eq!(str_member(&resp, "error"), Some("unsupported-version"), "{resp}");
    assert_eq!(u64_member(&resp, "requested"), Some(9));
    // The connection survives both rejects.
    let pong = client.request(&Request::Ping.encode()).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");
    server.shutdown();
}

#[test]
fn bad_requests_do_not_kill_the_connection() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    let bad = client.request("{\"op\":\"fly\"}").unwrap();
    assert_eq!(str_member(&bad, "error"), Some("bad-request"), "{bad}");
    // Same connection keeps working.
    let pong = client.request(&Request::Ping.encode()).unwrap();
    assert_eq!(str_member(&pong, "error"), None, "{pong}");
    assert!(pong.contains("\"pong\":true"));
    server.shutdown();
}

#[test]
fn deeply_nested_request_is_rejected_and_the_daemon_survives() {
    let server = spawn(quiet_cfg());
    let mut client = Client::connect(server.addr()).unwrap();
    // 200 KB of `[` used to overflow the connection thread's stack in
    // the recursive JSON parser and abort the whole daemon.
    let bad = client.request(&"[".repeat(200_000)).unwrap();
    assert_eq!(str_member(&bad, "error"), Some("bad-request"), "{bad}");
    assert!(bad.contains("nesting deeper than 128 levels at byte 128"), "{bad}");
    let pong = client.request(&Request::Ping.encode()).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");
    // A fresh connection is served too.
    let mut other = Client::connect(server.addr()).unwrap();
    let pong = other.request(&Request::Ping.encode()).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");
    server.shutdown();
}

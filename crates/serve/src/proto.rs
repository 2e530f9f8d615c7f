//! The service wire protocol: newline-delimited JSON over TCP.
//!
//! One JSON object per line, both directions. A connection may carry
//! any number of requests in sequence; each request produces exactly
//! one **terminal** response line (`"ok"` present), preceded — for
//! streamed submits — by zero or more **update** lines (`"update"`
//! present, no `"ok"`). Everything rides the workspace's hand-rolled
//! [`bgp_trace::json`] layer; no external dependency, no `f64` funnel
//! for 64-bit cycle counts.
//!
//! ## Requests
//!
//! ```json
//! {"op":"ping"}
//! {"op":"submit","kernel":"mg","class":"s","ranks":4,"mode":"vnm",
//!  "seed":0,"priority":1,"stream":false}
//! {"op":"status","key":"<32 hex digits>"}
//! {"op":"stats"}
//! {"op":"drain"}
//! {"op":"shutdown"}
//! {"op":"batch","v":2,"jobs":[{"kernel":"mg"},{"kernel":"ft","seed":3}]}
//! {"op":"subscribe","v":2,"key":"<32 hex digits>","stream":true}
//! ```
//!
//! ## Versioning
//!
//! Every request may carry a `"v"` member declaring the protocol
//! version it speaks; absent means **1** (the original protocol, kept
//! wire-compatible). The server speaks up to [`PROTO_VERSION`]. Ops
//! introduced at v2 — `batch` (one envelope, many jobs) and
//! `subscribe` (attach to a key without submitting work) — require the
//! client to declare `"v":2`; a v1 client reaching for them, or any
//! client declaring a version this server does not speak, gets the
//! structured reject
//! `{"ok":false,"error":"unsupported-version","requested":N,"supported":2,…}`
//! instead of a generic parse failure, so old clients can detect the
//! mismatch programmatically.
//!
//! ## Terminal responses
//!
//! * Completed submit:
//!   `{"ok":true,"cache":"hit"|"miss"|"joined","key":"…",
//!    "queue_ms":N,"result":{…}}` — the `result` member is spliced
//!   **byte-for-byte** from the content-addressed store, so two
//!   responses for one key always carry identical result bytes.
//! * Backpressure reject (the 429 path):
//!   `{"ok":false,"error":"backpressure","retry_after_ms":N}` — also the
//!   one line a connection beyond [`MAX_CONNECTIONS`] gets before it is
//!   closed.
//! * Drain reject: `{"ok":false,"error":"draining"}`
//! * Failed job: `{"ok":false,"error":"job-failed","detail":"…"}`
//! * Malformed request: `{"ok":false,"error":"bad-request","detail":"…"}`
//! * Request line over [`MAX_REQUEST_BYTES`]:
//!   `{"ok":false,"error":"request-too-large","limit":N,"detail":"…"}` —
//!   sent as soon as the limit is passed; the rest of the line is
//!   discarded and the connection stays usable.
//! * Completed batch: `{"ok":true,"jobs":N,"results":[…]}` — one
//!   element per job in submission order, each the terminal object the
//!   equivalent lone submit would have produced (including per-job
//!   failures, which do not fail the envelope).
//! * Subscribe to an unknown key: `{"ok":false,"error":"unknown-key"}`
//! * Version mismatch:
//!   `{"ok":false,"error":"unsupported-version","requested":N,"supported":2}`

use bgp_arch::OpMode;
use bgp_faults::{FaultPlan, FaultSpec};
use bgp_mpi::JobSpec;
use bgp_nas::{Class, Kernel};
use bgp_snapshot::CacheKey;
use bgp_trace::json::{self, Value};
use bgp_trace::TraceConfig;

/// Highest protocol version this build speaks (see the module docs).
pub const PROTO_VERSION: u64 = 2;
/// Cap on the bytes of one request line (its newline excluded). A
/// batch at [`MAX_BATCH_JOBS`] needs a few tens of KB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;
/// Cap on client connections served at once (one handler thread each).
pub const MAX_CONNECTIONS: usize = 64;
/// Cap on jobs per `batch` envelope (keeps one request line from
/// monopolizing the admission queue).
pub const MAX_BATCH_JOBS: usize = 64;

/// Straggler probability applied when a submit carries a nonzero seed.
const SEEDED_STRAGGLER_RATE: f64 = 0.4;
/// Straggler penalty (cycles per messaging boundary) for seeded jobs.
const SEEDED_STRAGGLER_PENALTY: u64 = 800;

/// One job submission: the client-controllable slice of a [`JobSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitReq {
    /// NAS kernel to run.
    pub kernel: Kernel,
    /// Problem class.
    pub class: Class,
    /// Requested MPI ranks (clamped to the kernel's legal counts).
    pub ranks: usize,
    /// Node operating mode.
    pub mode: OpMode,
    /// Fault seed: 0 = clean machine; nonzero = a deterministic
    /// straggler plan derived from the seed (part of the cache key).
    pub seed: u64,
    /// Scheduling priority: 0 = high, larger = lower. Queued jobs age
    /// toward priority 0, so no priority can starve.
    pub priority: u8,
    /// Stream `update` lines while the job is queued/running.
    pub stream: bool,
}

impl Default for SubmitReq {
    fn default() -> SubmitReq {
        SubmitReq {
            kernel: Kernel::Mg,
            class: Class::S,
            ranks: 4,
            mode: OpMode::VirtualNode,
            seed: 0,
            priority: 1,
            stream: false,
        }
    }
}

impl SubmitReq {
    /// Expand into the full [`JobSpec`] the worker pool runs.
    /// `sim_threads` and tracing are server policy, not client input —
    /// both are excluded from, respectively cosmetic to, the cache key
    /// only when they genuinely cannot change results (`sim_threads`
    /// is; tracing is outcome-relevant and therefore server-global so
    /// every cached entry was produced under one policy).
    pub fn job_spec(&self, sim_threads: usize, trace: bool) -> JobSpec {
        let ranks = self.kernel.clamp_ranks(self.ranks.max(1), self.class);
        let mut spec = JobSpec::new(ranks, self.mode);
        spec.workload = Some(self.kernel.workload_tag(self.class));
        spec.sim_threads = Some(sim_threads.max(1));
        if trace {
            spec.trace = Some(TraceConfig::default());
        }
        if self.seed != 0 {
            let nodes = spec.nodes();
            spec.faults = Some(std::sync::Arc::new(FaultPlan::new(
                FaultSpec {
                    straggler_rate: SEEDED_STRAGGLER_RATE,
                    straggler_penalty_cycles: SEEDED_STRAGGLER_PENALTY,
                    ..FaultSpec::none()
                },
                self.seed,
                nodes,
            )));
        }
        spec
    }

    /// The content-address of this submission's result under the given
    /// server policy: `(spec fingerprint, seed)`.
    pub fn cache_key(&self, sim_threads: usize, trace: bool) -> CacheKey {
        CacheKey { spec: self.job_spec(sim_threads, trace).fingerprint(), seed: self.seed }
    }

    /// Append this request's job members to `obj` (shared between the
    /// `submit` line and each element of a `batch` envelope).
    fn members(&self, obj: json::Obj) -> json::Obj {
        obj.field_str("kernel", self.kernel.token())
            .field_str("class", self.class.token())
            .field_u64("ranks", self.ranks as u64)
            .field_str("mode", self.mode.token())
            .field_u64("seed", self.seed)
            .field_u64("priority", self.priority as u64)
            .field_bool("stream", self.stream)
    }

    /// Serialize as a submit request line (no trailing newline).
    pub fn encode(&self) -> String {
        self.members(json::Obj::new().field_str("op", "submit")).finish()
    }
}

/// Why a request line was refused (split so the server can answer
/// version mismatches with a structured, machine-readable reject).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Bad JSON or a bad member — answered as `bad-request`.
    Malformed(String),
    /// The client declared (or implied, by omitting `"v"`) a protocol
    /// version this server cannot serve for the requested op —
    /// answered as `unsupported-version`.
    UnsupportedVersion {
        /// What the client spoke (1 when `"v"` was absent).
        requested: u64,
        /// Why it is insufficient.
        detail: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(msg) => f.write_str(msg),
            ParseError::UnsupportedVersion { requested, detail } => {
                write!(f, "unsupported protocol version {requested}: {detail}")
            }
        }
    }
}

impl From<String> for ParseError {
    fn from(msg: String) -> ParseError {
        ParseError::Malformed(msg)
    }
}

impl From<&str> for ParseError {
    fn from(msg: &str) -> ParseError {
        ParseError::Malformed(msg.into())
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run (or fetch) a job.
    Submit(SubmitReq),
    /// Query a key without submitting work.
    Status {
        /// The `(spec, seed)` key in its 32-hex-digit form.
        key: CacheKey,
    },
    /// Service counters: queue depth, cache hit rate, worker state.
    Stats,
    /// Stop admitting new jobs; keep serving hits and queued work.
    Drain,
    /// Drain, finish queued jobs, then exit the accept loop.
    Shutdown,
    /// Submit many jobs in one envelope; one terminal response with a
    /// per-job `results` array, in submission order (protocol v2).
    Batch(Vec<SubmitReq>),
    /// Attach to a key's result without submitting work: cache hits
    /// answer immediately, in-flight jobs are awaited, unknown keys
    /// are refused (protocol v2).
    Subscribe {
        /// The `(spec, seed)` key in its 32-hex-digit form.
        key: CacheKey,
        /// Stream `update` lines while the key is queued/running.
        stream: bool,
    },
}

/// Parse the submit-shaped members of `v` (a `submit` line or one
/// element of a `batch` envelope) over the defaults.
fn parse_submit_members(v: &Value) -> Result<SubmitReq, String> {
    let mut req = SubmitReq::default();
    if let Some(k) = v.get("kernel") {
        let k = k.as_str().ok_or("\"kernel\" must be a string")?;
        req.kernel = k.parse()?;
    }
    if let Some(c) = v.get("class") {
        let c = c.as_str().ok_or("\"class\" must be a string")?;
        req.class = c.parse()?;
    }
    if let Some(r) = v.get("ranks") {
        let r = r.as_u64().ok_or("\"ranks\" must be a positive integer")?;
        if r == 0 || r > 4096 {
            return Err(format!("ranks {r} outside 1..=4096"));
        }
        req.ranks = r as usize;
    }
    if let Some(m) = v.get("mode") {
        let m = m.as_str().ok_or("\"mode\" must be a string")?;
        req.mode = m.parse()?;
    }
    if let Some(s) = v.get("seed") {
        req.seed = s.as_u64().ok_or("\"seed\" must be a u64")?;
    }
    if let Some(p) = v.get("priority") {
        let p = p.as_u64().ok_or("\"priority\" must be a small integer")?;
        if p > 7 {
            return Err(format!("priority {p} outside 0..=7"));
        }
        req.priority = p as u8;
    }
    if let Some(s) = v.get("stream") {
        req.stream = match s {
            Value::Bool(b) => *b,
            _ => return Err("\"stream\" must be a boolean".into()),
        };
    }
    Ok(req)
}

/// Parse a key member in its 32-hex-digit form.
fn parse_key_member(v: &Value, op: &str) -> Result<CacheKey, String> {
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{op} needs a \"key\" string"))?;
    CacheKey::parse_hex(key).ok_or_else(|| "\"key\" must be 32 hex digits".into())
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    /// [`ParseError::Malformed`] with a human-readable message for the
    /// first problem found (returned to the client as a `bad-request`
    /// response), or [`ParseError::UnsupportedVersion`] when version
    /// negotiation fails (returned as `unsupported-version`).
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let v = json::parse(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
        let version = match v.get("v") {
            None => 1,
            Some(val) => val.as_u64().ok_or("\"v\" must be a positive integer")?,
        };
        if version == 0 || version > PROTO_VERSION {
            return Err(ParseError::UnsupportedVersion {
                requested: version,
                detail: format!("this server speaks protocol versions 1..={PROTO_VERSION}"),
            });
        }
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing string member \"op\"")?;
        if matches!(op, "batch" | "subscribe") && version < 2 {
            return Err(ParseError::UnsupportedVersion {
                requested: version,
                detail: format!("op {op:?} requires protocol v2; declare \"v\":2"),
            });
        }
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            "status" => Ok(Request::Status { key: parse_key_member(&v, op)? }),
            "submit" => Ok(Request::Submit(parse_submit_members(&v)?)),
            "subscribe" => {
                let key = parse_key_member(&v, op)?;
                let stream = match v.get("stream") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(_) => return Err("\"stream\" must be a boolean".into()),
                };
                Ok(Request::Subscribe { key, stream })
            }
            "batch" => {
                let jobs = v
                    .get("jobs")
                    .and_then(Value::as_array)
                    .ok_or("batch needs a \"jobs\" array")?;
                if jobs.is_empty() {
                    return Err("batch \"jobs\" must not be empty".into());
                }
                if jobs.len() > MAX_BATCH_JOBS {
                    return Err(format!(
                        "batch carries {} jobs, cap is {MAX_BATCH_JOBS}",
                        jobs.len()
                    )
                    .into());
                }
                let jobs = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, j)| {
                        parse_submit_members(j).map_err(|e| format!("jobs[{i}]: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch(jobs))
            }
            other => Err(format!("unknown op {other:?}").into()),
        }
    }

    /// Serialize as a request line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => json::Obj::new().field_str("op", "ping").finish(),
            Request::Stats => json::Obj::new().field_str("op", "stats").finish(),
            Request::Drain => json::Obj::new().field_str("op", "drain").finish(),
            Request::Shutdown => json::Obj::new().field_str("op", "shutdown").finish(),
            Request::Status { key } => json::Obj::new()
                .field_str("op", "status")
                .field_str("key", &key.hex())
                .finish(),
            Request::Submit(req) => req.encode(),
            Request::Subscribe { key, stream } => json::Obj::new()
                .field_str("op", "subscribe")
                .field_u64("v", PROTO_VERSION)
                .field_str("key", &key.hex())
                .field_bool("stream", *stream)
                .finish(),
            Request::Batch(jobs) => {
                let mut arr = json::Arr::new();
                for job in jobs {
                    arr = arr.push_raw(&job.members(json::Obj::new()).finish());
                }
                json::Obj::new()
                    .field_str("op", "batch")
                    .field_u64("v", PROTO_VERSION)
                    .field_raw("jobs", &arr.finish())
                    .finish()
            }
        }
    }
}

/// How a completed submit was satisfied (the `cache` member).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the content-addressed store; no machine ran.
    Hit,
    /// This submission ran the job.
    Miss,
    /// Attached to an identical job already queued or running.
    Joined,
}

impl CacheOutcome {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Joined => "joined",
        }
    }

    /// Parse the wire token.
    pub fn parse(s: &str) -> Option<CacheOutcome> {
        Some(match s {
            "hit" => CacheOutcome::Hit,
            "miss" => CacheOutcome::Miss,
            "joined" => CacheOutcome::Joined,
            _ => return None,
        })
    }
}

/// Extract the raw `result` bytes from a terminal submit response line.
///
/// The server splices cached result bytes verbatim as the **last**
/// member, so the payload is exactly the text between `"result":` and
/// the envelope's closing brace — no reparse, no reformatting, byte
/// comparisons between responses are meaningful.
pub fn result_payload(line: &str) -> Option<&str> {
    let line = line.trim_end();
    let idx = line.find("\"result\":")? + "\"result\":".len();
    line.get(idx..line.len().checked_sub(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let req = SubmitReq {
            kernel: Kernel::Cg,
            class: Class::W,
            ranks: 16,
            mode: OpMode::Dual,
            seed: 99,
            priority: 2,
            stream: true,
        };
        let line = Request::Submit(req).encode();
        assert_eq!(Request::parse(&line).unwrap(), Request::Submit(req));
    }

    #[test]
    fn defaults_fill_missing_members() {
        let r = Request::parse(r#"{"op":"submit"}"#).unwrap();
        assert_eq!(r, Request::Submit(SubmitReq::default()));
    }

    #[test]
    fn admin_ops_round_trip() {
        for op in [Request::Ping, Request::Stats, Request::Drain, Request::Shutdown] {
            assert_eq!(Request::parse(&op.encode()).unwrap(), op);
        }
        let key = CacheKey { spec: 0xabc, seed: 7 };
        let st = Request::Status { key };
        assert_eq!(Request::parse(&st.encode()).unwrap(), st);
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("{", "bad JSON"),
            (r#"{"ok":true}"#, "op"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"submit","kernel":"zz"}"#, "unknown kernel"),
            (r#"{"op":"submit","ranks":0}"#, "ranks"),
            (r#"{"op":"submit","priority":9}"#, "priority"),
            (r#"{"op":"status","key":"xyz"}"#, "hex"),
            (r#"{"op":"batch","v":2}"#, "jobs"),
            (r#"{"op":"batch","v":2,"jobs":[]}"#, "empty"),
            (r#"{"op":"batch","v":2,"jobs":[{"ranks":0}]}"#, "jobs[0]"),
            (r#"{"op":"subscribe","v":2}"#, "key"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(matches!(err, ParseError::Malformed(_)), "{line} -> {err}");
            assert!(err.to_string().contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn batch_and_subscribe_round_trip() {
        let jobs = vec![
            SubmitReq::default(),
            SubmitReq { kernel: Kernel::Ft, seed: 3, ..SubmitReq::default() },
        ];
        let batch = Request::Batch(jobs);
        assert_eq!(Request::parse(&batch.encode()).unwrap(), batch);
        let sub = Request::Subscribe {
            key: CacheKey { spec: 0xfeed, seed: 9 },
            stream: true,
        };
        assert_eq!(Request::parse(&sub.encode()).unwrap(), sub);
    }

    #[test]
    fn version_negotiation() {
        // Declaring the current version on a v1 op is fine.
        let r = Request::parse(r#"{"op":"ping","v":2}"#).unwrap();
        assert_eq!(r, Request::Ping);
        // A future version is refused with the structured error...
        let err = Request::parse(r#"{"op":"ping","v":3}"#).unwrap_err();
        assert_eq!(
            err,
            ParseError::UnsupportedVersion {
                requested: 3,
                detail: "this server speaks protocol versions 1..=2".into(),
            }
        );
        // ...and so are v2 ops from clients that never declared v2
        // (the "old client" path: structured, not a parse failure).
        for line in [
            r#"{"op":"batch","jobs":[{"kernel":"mg"}]}"#,
            r#"{"op":"subscribe","key":"00000000000000000000000000000000"}"#,
            r#"{"op":"batch","v":1,"jobs":[{"kernel":"mg"}]}"#,
        ] {
            match Request::parse(line).unwrap_err() {
                ParseError::UnsupportedVersion { requested: 1, detail } => {
                    assert!(detail.contains("requires protocol v2"), "{line} -> {detail}");
                }
                other => panic!("{line} -> {other:?}"),
            }
        }
    }

    #[test]
    fn batch_job_cap_is_enforced() {
        let one = r#"{"kernel":"mg"}"#;
        let jobs = vec![one; MAX_BATCH_JOBS + 1].join(",");
        let line = format!(r#"{{"op":"batch","v":2,"jobs":[{jobs}]}}"#);
        let err = Request::parse(&line).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        let jobs = vec![one; MAX_BATCH_JOBS].join(",");
        let line = format!(r#"{{"op":"batch","v":2,"jobs":[{jobs}]}}"#);
        assert!(Request::parse(&line).is_ok());
    }

    #[test]
    fn cache_key_ignores_sim_threads_but_sees_seed_and_spec() {
        let a = SubmitReq::default();
        assert_eq!(a.cache_key(1, false), a.cache_key(8, false));
        let mut b = a;
        b.seed = 1;
        assert_ne!(a.cache_key(1, false), b.cache_key(1, false));
        let mut c = a;
        c.ranks = 8;
        assert_ne!(a.cache_key(1, false).spec, c.cache_key(1, false).spec);
        // Tracing is outcome-relevant, so it must move the key too.
        assert_ne!(a.cache_key(1, false), a.cache_key(1, true));
        // The kernel and class only reach the spec through the workload
        // tag — without it, MG and CG on identical hardware would share
        // a key and a CG submit would replay MG's cached bytes.
        let mut kernel = a;
        kernel.kernel = Kernel::Cg;
        assert_ne!(a.cache_key(1, false), kernel.cache_key(1, false));
        let mut class = a;
        class.class = Class::W;
        assert_ne!(a.cache_key(1, false), class.cache_key(1, false));
    }

    #[test]
    fn result_payload_is_byte_exact() {
        let cached = r#"{"job_cycles":37719054,"dumps":["00ff"]}"#;
        let line = format!(
            "{{\"ok\":true,\"cache\":\"hit\",\"result\":{cached}}}\n"
        );
        assert_eq!(result_payload(&line), Some(cached));
        assert_eq!(result_payload("{\"ok\":false}"), None);
    }
}

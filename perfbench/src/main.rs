//! `perfbench` — the repository's benchmark: simulator jobs and the
//! counter service, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload for about `S` seconds and prints, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every job runs in a process of its own (this binary,
//! re-run with `--job`), so each job's peak memory is its own. Every
//! job's output is checked against the digest committed in
//! `digests.txt`; any failure makes `correct` false and the exit code 1.
//! See `README.md` for the workloads and how to read the metrics.

mod digest;
mod host;
mod serve;
mod sim;
mod stats;

use stats::{median, Metric};
use std::collections::HashMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Simulator worker threads for every job (the reference host's CPU
/// count; fixed so that results from larger hosts stay comparable).
pub const SIM_THREADS: usize = 2;
/// Simulator jobs per run, however long they take.
const MIN_JOBS: usize = 3;

const USAGE: &str = "usage: perfbench --workload mg-a16-mux|is-a16-ddr|fullmachine-73k|serve-mix \
--seed N --seconds S --trace 0|1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MgMux,
    IsDdr,
    FullMachine,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MgMux,
        Workload::IsDdr,
        Workload::FullMachine,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MgMux => "mg-a16-mux",
            Workload::IsDdr => "is-a16-ddr",
            Workload::FullMachine => "fullmachine-73k",
            Workload::ServeMix => "serve-mix",
        }
    }

    fn sim(self) -> Option<sim::Sim> {
        match self {
            Workload::MgMux => Some(sim::Sim::MgMux),
            Workload::IsDdr => Some(sim::Sim::IsDdr),
            Workload::FullMachine => Some(sim::Sim::FullMachine),
            Workload::ServeMix => None,
        }
    }
}

/// `key value` lines a job process writes for its parent.
#[derive(Default)]
pub struct Out(Vec<(&'static str, String)>);

impl Out {
    pub fn num(&mut self, key: &'static str, v: f64) {
        self.0.push((key, format!("{v:?}")));
    }

    pub fn text(&mut self, key: &'static str, v: &str) {
        self.0.push((key, v.replace('\n', " ")));
    }

    pub fn list(&mut self, key: &'static str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        self.0.push((key, items.join(" ")));
    }
}

/// A job process's report, read back by the parent.
struct Fields(HashMap<String, String>);

impl Fields {
    fn parse(text: &str) -> Fields {
        Fields(
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// A number; NaN when absent, so a missing value cannot pass for 0.
    fn num(&self, key: &str) -> f64 {
        self.text(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    fn list(&self, key: &str) -> Vec<f64> {
        self.text(key).map_or_else(Vec::new, |v| {
            v.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one job in this process (the parent's child mode).
    job: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let known = ["--workload", "--job", "--seed", "--seconds", "--trace"];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let job = flags.contains_key("--job");
    let name = flags
        .get("--workload")
        .or(flags.get("--job"))
        .ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == *name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<f64, String> {
        let v = flags
            .get(flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        v.parse::<f64>()
            .map_err(|_| format!("{flag} {v} is not a number"))
    };
    let seed = flags
        .get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flags.get("--trace").copied() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        job,
    })
}

/// One job process's outcome as the parent sees it.
struct Job {
    traced: bool,
    fields: Fields,
    /// Why the job failed, if it did.
    failure: Option<String>,
}

impl Job {
    /// Operations attempted and failed: the requests of a service load,
    /// or the job itself. A failure no request accounts for (a crash, a
    /// digest mismatch) counts once.
    fn tally(&self) -> (u64, u64) {
        let requests = self.fields.num("requests");
        let attempted = if requests >= 1.0 { requests as u64 } else { 1 };
        let failed = match self.fields.num("failed") {
            f if f >= 1.0 => f as u64,
            _ => u64::from(self.failure.is_some()),
        };
        (attempted, failed.min(attempted))
    }
}

/// Run one job in a child process and check its digest.
fn run_job(w: Workload, seed: u64, seconds: f64, traced: bool) -> Job {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let output = Command::new(exe)
        .args([
            "--job",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let (fields, mut failure) = match output {
        Ok(o) if o.status.success() => (Fields::parse(&String::from_utf8_lossy(&o.stdout)), None),
        Ok(o) => (
            Fields(HashMap::new()),
            Some(format!("job process ended with {}", o.status)),
        ),
        Err(e) => (
            Fields(HashMap::new()),
            Some(format!("job process did not start: {e}")),
        ),
    };
    if failure.is_none() {
        failure = fields.text("error").map(str::to_string);
    }
    let got = fields.text("digest").unwrap_or("none");
    match digest::committed(w.name()) {
        Some(want) if want == got => {}
        want => {
            failure.get_or_insert_with(|| {
                format!(
                    "digest {got} differs from committed {}",
                    want.unwrap_or("(none)")
                )
            });
        }
    }
    Job {
        traced,
        fields,
        failure,
    }
}

/// Median of a per-job quantity over `jobs`.
fn med(jobs: &[&Job], f: impl Fn(&Fields) -> f64) -> f64 {
    median(&jobs.iter().map(|j| f(&j.fields)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `serve_p99_ms` source: p99 when the sample supports it (ten samples
/// beyond), else the highest percentile it supports, else the maximum.
fn tail_ms(xs: &[f64]) -> (f64, String) {
    match stats::tail(xs) {
        Some(t) if t.pct >= 99.0 => {
            let p99 = stats::percentile(xs, 99.0).unwrap_or(f64::NAN);
            (p99 * 1e3, format!("p99 of {}", t.n))
        }
        Some(t) => (
            t.value * 1e3,
            format!("p{} of {} (too few samples for p99)", t.pct, t.n),
        ),
        None => {
            let max = xs.iter().copied().fold(f64::NAN, f64::max);
            (max * 1e3, format!("max of {}", xs.len()))
        }
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// End-to-end metrics of the simulator workloads: a job is one request
/// of a closed loop with one client.
fn sim_end_to_end(plain: &[&Job]) -> (Vec<Metric>, String) {
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|j| j.fields.list("setup_s"))
        .collect();
    let walls: Vec<f64> = plain.iter().map(|j| j.fields.num("wall_s")).collect();
    let (p99, p99_src) = tail_ms(&walls);
    let metrics = vec![
        metric("setup_s", "s", median(&setups).unwrap_or(f64::NAN)),
        metric("job_wall_s", "s", med(plain, |f| f.num("wall_s"))),
        metric("job_cpu_s", "s", med(plain, |f| f.num("cpu_s"))),
        metric(
            "sim_minstr_per_s",
            "Minstr/s",
            med(plain, |f| f.num("instructions") / f.num("wall_s") / 1e6),
        ),
        metric("peak_rss_mb", "MB", med(plain, |f| f.num("rss_mb"))),
        metric(
            "serve_rps",
            "1/s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
        ),
        metric(
            "serve_p50_ms",
            "ms",
            median(&walls).unwrap_or(f64::NAN) * 1e3,
        ),
        metric("serve_p99_ms", "ms", p99),
    ];
    (
        metrics,
        format!(
            "{} jobs, {} set-ups, serve_p99_ms = {p99_src}",
            walls.len(),
            setups.len()
        ),
    )
}

/// End-to-end metrics of `serve-mix` from its one load process.
fn serve_end_to_end(job: &Job) -> (Vec<Metric>, String) {
    let f = &job.fields;
    let lat = f.list("latency_s");
    let (p99, p99_src) = tail_ms(&lat);
    let metrics = vec![
        metric(
            "setup_s",
            "s",
            median(&f.list("setup_s")).unwrap_or(f64::NAN),
        ),
        metric(
            "job_wall_s",
            "s",
            median(&f.list("miss_s")).unwrap_or(f64::NAN),
        ),
        metric("job_cpu_s", "s", f.num("cpu_s") / f.num("misses")),
        metric(
            "sim_minstr_per_s",
            "Minstr/s",
            f.num("instructions") / f.num("wall_s") / 1e6,
        ),
        metric("peak_rss_mb", "MB", f.num("rss_mb")),
        metric(
            "serve_rps",
            "1/s",
            (f.num("requests") - f.num("failed")) / f.num("wall_s"),
        ),
        metric("serve_p50_ms", "ms", median(&lat).unwrap_or(f64::NAN) * 1e3),
        metric("serve_p99_ms", "ms", p99),
    ];
    let note = format!(
        "{} requests, {} hits, {} misses, {} joined, serve_p99_ms = {p99_src}",
        f.num("requests"),
        f.num("hits"),
        f.num("misses"),
        f.num("joined")
    );
    (metrics, note)
}

/// Per-layer metrics, in `BENCHMARK.json` order. Layers a workload does
/// not reach through the benchmark's calls read 0.
fn per_layer(
    w: Workload,
    traced: &[&Job],
    plain: &[&Job],
    calib: &host::Calibration,
) -> Vec<Metric> {
    let sim = w.sim().is_some();
    let sim_layer = |f: &dyn Fn(&Fields) -> f64| if sim { med(traced, f) } else { 0.0 };
    let serve_layer = |f: &dyn Fn(&Fields) -> f64| if sim { 0.0 } else { med(traced, f) };
    let engine = |f: &Fields| f.num("workers") * f.num("run_s") - f.num("poll_s");
    let wall = |jobs: &[&Job]| match w {
        Workload::ServeMix => med(jobs, |f| median(&f.list("miss_s")).unwrap_or(f64::NAN)),
        _ => med(jobs, |f| f.num("wall_s")),
    };
    vec![
        metric("nas.poll_s", "s", sim_layer(&|f| f.num("poll_s"))),
        metric(
            "nas.poll_ns_per_access",
            "ns",
            sim_layer(&|f| ratio(f.num("poll_s") * 1e9, f.num("accesses"))),
        ),
        metric(
            "nas.poll_max_rank_s",
            "s",
            sim_layer(&|f| f.num("poll_max_rank_s")),
        ),
        metric("mpi.run_s", "s", sim_layer(&|f| f.num("run_s"))),
        metric("mpi.engine_s", "s", sim_layer(&engine)),
        metric(
            "mpi.engine_us_per_phase",
            "us",
            sim_layer(&|f| engine(f) * 1e6 / f.num("phases")),
        ),
        metric("mpi.polls", "count", sim_layer(&|f| f.num("polls"))),
        metric("mpi.phases", "count", sim_layer(&|f| f.num("phases"))),
        metric("mpi.rank_wait_s", "s", sim_layer(&|f| f.num("rank_wait_s"))),
        metric(
            "mpi.mux_rotations",
            "count",
            sim_layer(&|f| f.num("mux_rotations")),
        ),
        metric("core.dumps_s", "s", sim_layer(&|f| f.num("dumps_s"))),
        metric(
            "core.dump_bytes",
            "bytes",
            sim_layer(&|f| f.num("dump_bytes")),
        ),
        metric("postproc.frame_s", "s", sim_layer(&|f| f.num("frame_s"))),
        metric("postproc.derive_s", "s", sim_layer(&|f| f.num("derive_s"))),
        metric(
            "postproc.validate_s",
            "s",
            sim_layer(&|f| f.num("validate_s")),
        ),
        metric("mem.accesses", "count", sim_layer(&|f| f.num("accesses"))),
        metric(
            "mem.l1d_miss_ratio",
            "ratio",
            sim_layer(&|f| ratio(f.num("l1d_misses"), f.num("accesses"))),
        ),
        metric(
            "mem.l2_prefetch_useful_ratio",
            "ratio",
            sim_layer(&|f| ratio(f.num("l2_prefetch_hits"), f.num("l2_prefetches"))),
        ),
        metric(
            "mem.l3_miss_ratio",
            "ratio",
            sim_layer(&|f| ratio(f.num("l3_misses"), f.num("l3_hits") + f.num("l3_misses"))),
        ),
        metric("mem.ddr_bytes", "bytes", sim_layer(&|f| f.num("ddr_bytes"))),
        metric(
            "node.instructions",
            "count",
            sim_layer(&|f| f.num("instructions")),
        ),
        metric(
            "node.stall_mem_cycles",
            "cycles",
            sim_layer(&|f| f.num("stall_mem")),
        ),
        metric("fpu.flops", "count", sim_layer(&|f| f.num("flops"))),
        metric(
            "net.torus_bytes",
            "bytes",
            sim_layer(&|f| f.num("torus_bytes")),
        ),
        metric(
            "net.torus_hops",
            "count",
            sim_layer(&|f| f.num("torus_hops")),
        ),
        metric(
            "net.coll_packets",
            "count",
            sim_layer(&|f| f.num("coll_packets")),
        ),
        metric(
            "sim.job_cycles",
            "cycles",
            sim_layer(&|f| f.num("job_cycles")),
        ),
        metric(
            "serve.hit_p50_us",
            "us",
            serve_layer(&|f| median(&f.list("hit_s")).unwrap_or(f64::NAN) * 1e6),
        ),
        metric(
            "serve.miss_p50_ms",
            "ms",
            serve_layer(&|f| median(&f.list("miss_s")).unwrap_or(f64::NAN) * 1e3),
        ),
        metric(
            "serve.server_p99_ms",
            "ms",
            serve_layer(&|f| f.num("server_p99_ms")),
        ),
        metric("serve.hits", "count", serve_layer(&|f| f.num("hits"))),
        metric("serve.misses", "count", serve_layer(&|f| f.num("misses"))),
        metric("serve.joined", "count", serve_layer(&|f| f.num("joined"))),
        metric("serve.rejects", "count", serve_layer(&|f| f.num("rejects"))),
        metric(
            "serve.hit_ratio",
            "ratio",
            serve_layer(&|f| ratio(f.num("hits"), f.num("requests"))),
        ),
        metric(
            "bench.trace_overhead_frac",
            "ratio",
            wall(traced) / wall(plain) - 1.0,
        ),
        metric("host.calib_int_ns", "ns", calib.int_ns),
        metric("host.calib_chase_ns", "ns", calib.chase_ns),
    ]
}

fn parent(a: &Args) -> ExitCode {
    let prov = host::provenance();
    let calib = host::calibrate();
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"sim_threads\": {SIM_THREADS}, \
         \"calib_int_ns\": {:.4}, \"calib_chase_ns\": {:.2}, \"calib_buffer_mb\": {:.0}}}}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        prov.git_rev,
        prov.source_digest,
        prov.nproc,
        calib.int_ns,
        calib.chase_ns,
        calib.buffer_mb
    );

    let started = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    match a.workload {
        Workload::ServeMix if a.trace => {
            jobs.push(run_job(a.workload, a.seed, a.seconds / 2.0, false));
            jobs.push(run_job(a.workload, a.seed, a.seconds / 2.0, true));
        }
        Workload::ServeMix => jobs.push(run_job(a.workload, a.seed, a.seconds, false)),
        _ => loop {
            // A traced pass alternates traced and plain jobs, traced first.
            let elapsed = started.elapsed().as_secs_f64();
            let per_job = elapsed / jobs.len().max(1) as f64;
            if jobs.len() >= MIN_JOBS && elapsed + per_job > a.seconds {
                break;
            }
            let traced = a.trace && jobs.len().is_multiple_of(2);
            let job = run_job(a.workload, a.seed, a.seconds, traced);
            let failed = job.failure.is_some();
            jobs.push(job);
            if failed {
                break;
            }
        },
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, j) in jobs.iter().enumerate() {
        let (n, bad) = j.tally();
        attempted += n;
        failed += bad;
        println!(
            "job {i}: {}, wall {:.3} s, cpu {:.3} s, peak {:.1} MB, {}",
            if j.traced { "traced" } else { "plain" },
            j.fields.num("wall_s"),
            j.fields.num("cpu_s"),
            j.fields.num("rss_mb"),
            j.failure.as_deref().unwrap_or("digest ok")
        );
    }

    let ok: Vec<&Job> = jobs.iter().filter(|j| j.failure.is_none()).collect();
    let plain: Vec<&Job> = ok.iter().copied().filter(|j| !j.traced).collect();
    let traced: Vec<&Job> = ok.iter().copied().filter(|j| j.traced).collect();
    let metrics = if a.trace {
        per_layer(a.workload, &traced, &plain, &calib)
    } else {
        let (metrics, note) = match (a.workload, plain.first()) {
            (Workload::ServeMix, Some(j)) => serve_end_to_end(j),
            (Workload::ServeMix, None) => (Vec::new(), "no load completed".into()),
            _ => sim_end_to_end(&plain),
        };
        println!(
            "{note}; fail_frac {}",
            ratio(failed as f64, attempted as f64)
        );
        metrics
    };
    if let Some(bad) = metrics.iter().find(|m| !stats::valid_metric_name(m.name)) {
        eprintln!("perfbench: invalid metric name {:?}", bad.name);
        return ExitCode::from(2);
    }
    let correct = failed == 0 && !ok.is_empty();
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.job {
        return parent(&args);
    }
    let out = match args.workload.sim() {
        Some(s) => sim::job(s, args.trace),
        None => serve::run(args.seed, args.seconds, args.trace),
    };
    let mut stdout = std::io::stdout().lock();
    for (k, v) in &out.0 {
        writeln!(stdout, "{k} {v}").expect("write job report");
    }
    stdout.flush().expect("flush job report");
    // Skip tearing down a possibly huge machine: the process is done.
    std::process::exit(0);
}

//! `bgpc-dump` — inspect the per-node binary counter dumps the interface
//! library writes (the command-line face of the paper's post-processing
//! tools).
//!
//! ```text
//! bgpc-dump <dir-or-file> [--set N] [--csv out.csv] [--all] [--top K] [--report] [--json]
//! ```
//!
//! * default: summary per node + across-node statistics of the set's
//!   busiest counters,
//! * `--set N`: select an instrumentation set (default 0),
//! * `--all`: print every observed counter (the paper's "statistics of
//!   all the 512 counters" option),
//! * `--top K`: how many counters the summary shows (default 20),
//! * `--csv PATH`: also write the statistics as CSV,
//! * `--report`: print the one-page human-readable report instead of the
//!   raw counter table,
//! * `--json`: emit the node summaries, warnings, and statistics as one
//!   JSON document on stdout (machine-readable, shares the toolchain
//!   with `bgpc-run --trace` timelines).
//!
//! Dumps produced under `CounterPolicy::Multiplexed` carry synthetic
//! sets next to each user set: four per-mode blocks and one schedule
//! set recording the rotation's per-mode cycle/phase weights. Set
//! listings label them (`mux[set.mN]`, `sched[set]`) instead of
//! printing the raw high-bit ids, and `--json` adds a `mux_schedule`
//! object (weights pooled across nodes) plus the counter `policy`
//! recorded in `run.json` when present.

use bgp_arch::cli::ArgParser;
use bgp_arch::events::{EventId, NUM_MODES};
use bgp_core::dump::NodeDump;
use bgp_postproc::{stats_csv, EventStats, Frame};
use bgp_trace::json::escape;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    input: PathBuf,
    set: u32,
    csv: Option<PathBuf>,
    all: bool,
    report: bool,
    json: bool,
    top: usize,
}

const USAGE: &str =
    "usage: bgpc-dump <dir-or-file> [--set N] [--csv out.csv] [--all] [--top K] [--report] [--json]";

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let mut set = 0;
    let mut csv = None;
    let mut all = false;
    let mut report = false;
    let mut json = false;
    let mut top = 20;
    let mut p = ArgParser::from_env(USAGE);
    while let Some(a) = p.next_flag()? {
        match a.as_str() {
            "--set" => set = p.parse(&a)?,
            "--csv" => csv = Some(p.path(&a)?),
            "--all" => all = true,
            "--report" => report = true,
            "--json" => json = true,
            "--top" => top = p.parse(&a)?,
            flag if flag.starts_with('-') => return Err(p.unexpected(flag)),
            path if input.is_none() => input = Some(PathBuf::from(path)),
            other => return Err(p.unexpected(other)),
        }
    }
    Ok(Args {
        input: input.ok_or("missing input path (a .bgpc file or a directory of them)")?,
        set,
        csv,
        all,
        report,
        json,
        top,
    })
}

/// Run metadata `bgpc-run` records next to the dumps in `run.json`:
/// the `(spec-hash, seed)` cache identity — the same key the counter
/// service (`bgpc-serve`) addresses results by, so a dump directory
/// can be matched to its cache entry — and the counter policy the job
/// ran under, when recorded.
struct RunMeta {
    spec: String,
    seed: u64,
    policy: Option<String>,
}

fn run_meta(input: &Path) -> Option<RunMeta> {
    let text = std::fs::read_to_string(input.join("run.json")).ok()?;
    let v = bgp_trace::json::parse(&text).ok()?;
    let spec = v.get("spec_hash")?.as_str()?.to_string();
    let seed = v.get("seed").and_then(bgp_trace::json::Value::as_u64).unwrap_or(0);
    let policy = v.get("policy").and_then(|p| p.as_str()).map(str::to_string);
    Some(RunMeta { spec, seed, policy })
}

/// Human-readable label for a set id: user sets print as plain
/// numbers, synthetic multiplexing sets as `mux[set.mN]`, rotation
/// schedule sets as `sched[set]`.
fn set_label(id: u32) -> String {
    if let Some((user, mode)) = bgp_core::dump::mux_set_parts(id) {
        format!("mux[{user}.m{mode}]")
    } else if bgp_core::dump::is_mux_sched(id) {
        format!("sched[{}]", id & !bgp_core::dump::MUX_SCHED_BASE)
    } else {
        id.to_string()
    }
}

/// Rotation-schedule weights for `set`, pooled over every node that
/// carries a schedule set (multiplexed dumps only).
fn pooled_schedule(dumps: &[NodeDump], set: u32) -> Option<([u64; NUM_MODES], [u64; NUM_MODES])> {
    let sched_id = bgp_core::dump::mux_sched_id(set);
    let mut cycles = [0u64; NUM_MODES];
    let mut phases = [0u64; NUM_MODES];
    let mut seen = false;
    for d in dumps {
        if let Some(s) = d.set(sched_id) {
            seen = true;
            for m in 0..NUM_MODES {
                cycles[m] += s.counts.get(m).copied().unwrap_or(0);
                phases[m] += s.counts.get(NUM_MODES + m).copied().unwrap_or(0);
            }
        }
    }
    seen.then_some((cycles, phases))
}

/// Render dumps + statistics as one JSON document (stable key order).
fn render_json(
    dumps: &[NodeDump],
    frame: &Frame,
    set: u32,
    meta: Option<&RunMeta>,
    stats: &[(EventId, EventStats)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"set\": {set},");
    if let Some(m) = meta {
        let _ = writeln!(out, "  \"spec_hash\": {},", escape(&m.spec));
        let _ = writeln!(out, "  \"seed\": {},", m.seed);
        if let Some(policy) = &m.policy {
            let _ = writeln!(out, "  \"policy\": {},", escape(policy));
        }
    }
    if let Some((cycles, phases)) = pooled_schedule(dumps, set) {
        let join = |w: &[u64]| {
            w.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
        };
        let _ = writeln!(
            out,
            "  \"mux_schedule\": {{\"cycles\": [{}], \"phases\": [{}]}},",
            join(&cycles),
            join(&phases)
        );
    }
    out.push_str("  \"nodes\": [\n");
    for (i, d) in dumps.iter().enumerate() {
        let sets: Vec<String> = d
            .sets
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"label\": {}, \"records\": {}}}",
                    s.id,
                    escape(&set_label(s.id)),
                    s.records
                )
            })
            .collect();
        let _ = write!(
            out,
            "    {{\"node\": {}, \"mode\": {}, \"sets\": [{}]}}",
            d.node,
            escape(&d.mode.to_string()),
            sets.join(", ")
        );
        out.push_str(if i + 1 < dumps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"warnings\": [");
    let warnings: Vec<String> =
        frame.anomalies().iter().map(|a| escape(&a.to_string())).collect();
    out.push_str(&warnings.join(", "));
    out.push_str("],\n  \"counters\": [\n");
    for (i, (ev, s)) in stats.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"event\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"nodes\": {}}}",
            escape(&ev.name()),
            s.min,
            s.max,
            s.mean,
            s.nodes
        );
        out.push_str(if i + 1 < stats.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn load(input: &Path) -> Result<Vec<NodeDump>, String> {
    if input.is_dir() {
        bgp_core::read_dumps(input).map_err(|e| e.to_string())
    } else {
        let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
        Ok(vec![bgp_core::dump::decode(&bytes).map_err(|e| e.to_string())?])
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let dumps = match load(&args.input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bgpc-dump: {e}");
            return ExitCode::FAILURE;
        }
    };

    let frame = match Frame::from_dumps(&dumps, args.set) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bgpc-dump: {e}");
            return ExitCode::FAILURE;
        }
    };

    let meta = args.input.is_dir().then(|| run_meta(&args.input)).flatten();

    if args.json {
        let mut stats = frame.all_stats();
        if !args.all {
            stats.sort_by_key(|(_, s)| std::cmp::Reverse(s.sum));
            stats.truncate(args.top);
        }
        print!("{}", render_json(&dumps, &frame, args.set, meta.as_ref(), &stats));
        if let Some(path) = args.csv {
            if let Err(e) = stats_csv(&frame).write(&path) {
                eprintln!("bgpc-dump: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    println!("{} node dump(s)", dumps.len());
    if let Some(m) = &meta {
        println!("cache key: spec {}, seed {}", m.spec, m.seed);
        if let Some(policy) = &m.policy {
            println!("counter policy: {policy}");
        }
    }
    for d in &dumps {
        let sets: Vec<String> = d
            .sets
            .iter()
            .map(|s| format!("{} ({} records)", set_label(s.id), s.records))
            .collect();
        println!("  node {:>5}  {}  sets: [{}]", d.node, d.mode, sets.join(", "));
    }
    if let Some((cycles, phases)) = pooled_schedule(&dumps, args.set) {
        println!("mux schedule (pooled): cycles {cycles:?}, phases {phases:?}");
    }
    for a in frame.anomalies() {
        println!("warning: {a}");
    }

    if args.report {
        println!("\n{}", bgp_postproc::render_report(&dumps, &frame));
        return ExitCode::SUCCESS;
    }

    let mut stats = frame.all_stats();
    if !args.all {
        stats.sort_by_key(|(_, s)| std::cmp::Reverse(s.sum));
        stats.truncate(args.top);
    }
    println!(
        "\nset {} — {} counters{}:",
        args.set,
        stats.len(),
        if args.all { "" } else { " (by total, use --all for every slot)" }
    );
    println!("{:<32} {:>14} {:>14} {:>16} {:>6}", "event", "min", "max", "mean", "nodes");
    for (ev, s) in &stats {
        println!(
            "{:<32} {:>14} {:>14} {:>16.1} {:>6}",
            ev.name(),
            s.min,
            s.max,
            s.mean,
            s.nodes
        );
    }

    if let Some(path) = args.csv {
        if let Err(e) = stats_csv(&frame).write(&path) {
            eprintln!("bgpc-dump: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nstatistics written to {}", path.display());
    }
    ExitCode::SUCCESS
}

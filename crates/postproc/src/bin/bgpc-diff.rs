//! `bgpc-diff` — compare the counter dumps of two runs ("when users
//! execute multiple experiments, this adds an extra dimension of
//! complexity" — §II; this tool is the across-experiment view).
//!
//! ```text
//! bgpc-diff <dir-a> <dir-b> [--set N] [--threshold PCT]
//! ```
//!
//! Prints every event whose across-node mean changed by more than the
//! threshold (default 5%), sorted by relative change; useful for
//! before/after comparisons of a flag, cache size, or mode switch.

use bgp_arch::cli::ArgParser;
use bgp_postproc::Frame;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bgpc-diff <dir-a> <dir-b> [--set N] [--threshold PCT]";

struct Args {
    dirs: [PathBuf; 2],
    set: u32,
    threshold: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut dirs = Vec::new();
    let mut set = 0u32;
    let mut threshold = 5.0f64;
    let mut p = ArgParser::from_env(USAGE);
    while let Some(a) = p.next_flag()? {
        match a.as_str() {
            "--set" => set = p.parse(&a)?,
            "--threshold" => threshold = p.parse(&a)?,
            flag if flag.starts_with('-') => return Err(p.unexpected(flag)),
            dir if dirs.len() < 2 => dirs.push(PathBuf::from(dir)),
            other => return Err(p.unexpected(other)),
        }
    }
    let dirs = <[PathBuf; 2]>::try_from(dirs).map_err(|_| p.missing("<dir-a> <dir-b>"))?;
    Ok(Args { dirs, set, threshold })
}

fn main() -> ExitCode {
    let Args { dirs, set, threshold } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let frames: Vec<Frame> = match dirs
        .iter()
        .map(|p| {
            bgp_core::read_dumps(p)
                .and_then(|d| Frame::from_dumps(&d, set))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bgpc-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (a, b) = (&frames[0], &frames[1]);

    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for (ev, sa) in a.all_stats() {
        let mb = b.mean(ev);
        let ma = sa.mean;
        if ma == 0.0 && mb == 0.0 {
            continue;
        }
        let change = if ma == 0.0 {
            f64::INFINITY
        } else {
            (mb - ma) / ma * 100.0
        };
        if change.abs() >= threshold {
            rows.push((ev.name(), ma, mb, change));
        }
    }
    rows.sort_by(|x, y| y.3.abs().partial_cmp(&x.3.abs()).expect("no NaNs here"));

    if rows.is_empty() {
        println!("no event changed by more than {threshold}% (set {set})");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<32} {:>16} {:>16} {:>10}",
        "event", "mean A", "mean B", "change"
    );
    for (name, ma, mb, change) in rows {
        println!("{name:<32} {ma:>16.1} {mb:>16.1} {change:>+9.1}%");
    }
    ExitCode::SUCCESS
}

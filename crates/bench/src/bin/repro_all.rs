//! `repro_all` — regenerate tables, figures and `BENCH_*.json` records
//! by name.
//!
//! ```text
//! repro_all [NAME...] [--quick|--paper] [--gate]
//! ```
//!
//! Each `NAME` is a figure's CSV stem (`fig11_l3_sweep`,
//! `fig_ext_snapshot`, ...; see `bgp_bench::figures::FIGURES`). With no
//! names it runs the full paper-and-extensions sweep. CSVs go to
//! `results/` (or `$BGP_RESULTS_DIR`), records to the repository root
//! (or `$BGP_BENCH_DIR`). `--gate` turns each figure's acceptance
//! criteria into the exit code. An unknown name or flag is an error.

use bgp_arch::cli::ArgParser;
use bgp_bench::figures::{figure, FIGURES};
use bgp_bench::report::{run_figure, Figure};
use bgp_bench::Scale;
use std::process::ExitCode;

const USAGE: &str = "usage: repro_all [NAME...] [--quick|--paper] [--gate]";

fn parse_args() -> Result<(Vec<&'static Figure>, Scale, bool), String> {
    let mut figures = Vec::new();
    let mut scale = None;
    let mut gate = false;
    let mut p = ArgParser::from_env(USAGE);
    while let Some(a) = p.next_flag()? {
        match a.as_str() {
            "--quick" | "--paper" if scale.is_some() => {
                return Err(format!("{a}: only one of --quick / --paper\n{USAGE}"));
            }
            "--quick" => scale = Some(Scale::Quick),
            "--paper" => scale = Some(Scale::Paper),
            "--gate" => gate = true,
            flag if flag.starts_with('-') => return Err(p.unexpected(flag)),
            name => figures.push(figure(name).ok_or_else(|| format!("unknown figure {name}"))?),
        }
    }
    if figures.is_empty() {
        figures = FIGURES.iter().filter(|f| f.in_all).collect();
    }
    Ok((figures, scale.unwrap_or(Scale::Default), gate))
}

fn main() -> ExitCode {
    let (figures, scale, gate) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            eprintln!("{e}\nfigures: {}", names.join(" "));
            return ExitCode::FAILURE;
        }
    };
    eprintln!("[repro_all] scale: {scale:?}");
    let mut held = true;
    for fig in figures {
        held &= run_figure(fig, scale, gate);
        eprintln!("[repro_all] {} done", fig.name);
    }
    if held {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

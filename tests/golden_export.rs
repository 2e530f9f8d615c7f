//! Committed golden oracle: every observable surface of a fixed job
//! matrix, hashed and compared against `tests/golden/digests.txt`.
//!
//! The matrix is all 8 NAS kernels × {clean, faulted, traced,
//! multiplexed} at class S on 8 VNM ranks. Each line of the digest file
//! names one job and carries the [`bgp::arch::wire::checksum`] of its
//! concatenated node dumps, its `job_cycles`, and — for the traced
//! variant — the checksums of its Perfetto `trace.json` and
//! `phases.csv`. An engine rewrite that claims "same bytes" must leave
//! the file untouched; a deliberate behaviour change replaces it (the
//! failure message prints the complete new file) and says why in
//! CHANGES.md.

use bgp::arch::events::CounterMode;
use bgp::arch::wire::checksum;
use bgp::arch::OpMode;
use bgp::counters::run_instrumented;
use bgp::faults::{FaultPlan, FaultSpec};
use bgp::mpi::CounterPolicy;
use bgp::nas::{Class, Kernel};
use bgp::trace::TraceConfig;
use bgp::{JobSpec, Machine};
use std::sync::Arc;

const KERNELS: [Kernel; 8] = [
    Kernel::Mg,
    Kernel::Ft,
    Kernel::Ep,
    Kernel::Cg,
    Kernel::Is,
    Kernel::Lu,
    Kernel::Sp,
    Kernel::Bt,
];

const VARIANTS: [&str; 4] = ["clean", "faulted", "traced", "mux"];

/// Run one job of the matrix and return its digest line.
fn digest_line(kernel: Kernel, variant: &str) -> String {
    let mut spec = JobSpec::new(8, OpMode::VirtualNode);
    spec.sim_threads = Some(1);
    match variant {
        "clean" => {}
        "faulted" => {
            let nodes = spec.nodes();
            spec.faults = Some(Arc::new(FaultPlan::new(
                FaultSpec {
                    straggler_rate: 0.5,
                    straggler_penalty_cycles: 5_000,
                    link_degrade_rate: 0.5,
                    link_slowdown: 3,
                    ..Default::default()
                },
                42,
                nodes,
            )));
        }
        "traced" => {
            spec.trace = Some(TraceConfig {
                sample_every: 8,
                sample_slots: vec![0, 1, 2],
                ..Default::default()
            });
        }
        "mux" => {
            spec.counter_policy =
                CounterPolicy::Multiplexed { first: CounterMode::Mode0, base_dwell: 4 };
        }
        other => unreachable!("unknown variant {other}"),
    }
    let machine = Machine::new(spec);
    let (out, lib) = run_instrumented(&machine, move |ctx| kernel.exec(Class::S, ctx));
    assert!(out.iter().all(|r| r.verified), "{kernel} {variant} failed verification");
    let mut dump = Vec::new();
    for n in 0..machine.num_nodes() {
        dump.extend(lib.encoded_dump(n).expect("node finalized"));
    }
    let mut line =
        format!("{kernel} {variant} dump={:016x} cycles={}", checksum(&dump), machine.job_cycles());
    if let Some(trace) = machine.job_trace() {
        line += &format!(
            " trace={:016x} phases={:016x}",
            checksum(trace.chrome_json().as_bytes()),
            checksum(trace.phase_metrics_csv().as_bytes())
        );
    }
    line
}

#[test]
fn golden_digests_match_committed_oracle() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.txt");
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    // One host thread per kernel; each job stays single-threaded, so the
    // lines come out identical regardless of host parallelism.
    let actual: String = std::thread::scope(|s| {
        let per_kernel: Vec<_> = KERNELS
            .iter()
            .map(|&k| {
                s.spawn(move || {
                    VARIANTS.iter().map(|&v| digest_line(k, v) + "\n").collect::<String>()
                })
            })
            .collect();
        per_kernel.into_iter().map(|h| h.join().expect("golden job panicked")).collect()
    });
    if actual != expected {
        let diverged: Vec<&str> =
            actual.lines().filter(|l| !expected.lines().any(|e| e == *l)).collect();
        panic!(
            "golden digests diverge from {path}\n\
             diverging jobs:\n  {}\n\
             If the behaviour change is deliberate, replace the file with:\n{actual}",
            diverged.join("\n  ")
        );
    }
}

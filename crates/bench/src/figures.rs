//! One function per table/figure of the paper and of the extensions,
//! and the registry ([`FIGURES`]) `repro_all` selects them from by
//! name.

use crate::report::{csv_rows, Bench, Figure, Gate, Report};
use crate::{measure_cores, measure_memory, measure_with_truth, RunConfig, Scale};
use bgp_arch::events::{CoreEvent, CounterMode, NUM_MODES};
use bgp_arch::{modes::OpMode, CORE_CLOCK_HZ};
use bgp_compiler::{CompileOpts, QArch};
use bgp_core::dump::NodeDump;
use bgp_core::{
    run_instrumented, Session, INIT_CYCLES, START_CYCLES, STOP_CYCLES, TOTAL_OVERHEAD_CYCLES,
    WHOLE_PROGRAM_SET,
};
use bgp_mpi::{CounterPolicy, SemOp};
use bgp_nas::Kernel;
use bgp_postproc::{
    ddr_traffic_bytes_per_node, fp_mix, l3_miss_ratio, mflops_per_chip, Csv, MixCategory,
    NodeTruth, ValidationReport,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fig. 3: the modes-of-operation table.
pub fn fig03() -> Csv {
    let mut csv = Csv::new(["mode", "processes_per_node", "threads_per_process"]);
    for m in OpMode::ALL {
        csv.row([
            m.label().to_string(),
            m.processes_per_node().to_string(),
            m.threads_per_process().to_string(),
        ]);
    }
    csv
}

/// §IV overhead table: the interface-library call costs in cycles,
/// measured against the Time Base exactly like the paper (and the
/// constants they decompose into).
pub fn tab_overhead() -> Csv {
    // Measure: instrument an empty snippet on a 1-rank machine.
    let mut spec = bgp_mpi::JobSpec::new(1, OpMode::Smp1);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let machine = bgp_mpi::Machine::new(spec);
    let measured = machine.run(|mut ctx| async move {
        let ctx = &mut ctx;
        let t0 = ctx.cycles();
        let s = Session::builder(ctx).build().expect("init");
        let s = s.start(0).expect("start");
        let s = s.stop().expect("stop");
        let t_total = s.cycles() - t0;
        // Marginal start/stop pair for an already-initialized unit.
        let t1 = s.cycles();
        let s = s.start(1).expect("start");
        let s = s.stop().expect("stop");
        let t_pair = s.cycles() - t1;
        s.finalize().expect("finalize");
        (t_total, t_pair)
    })[0];
    let mut csv = Csv::new(["quantity", "cycles"]);
    csv.row(["measured initialize+start+stop".into(), measured.0.to_string()]);
    csv.row(["measured marginal start+stop pair".into(), measured.1.to_string()]);
    csv.row(["model BGP_Initialize".into(), INIT_CYCLES.to_string()]);
    csv.row(["model BGP_Start".into(), START_CYCLES.to_string()]);
    csv.row(["model BGP_Stop".into(), STOP_CYCLES.to_string()]);
    csv.row(["paper total (196)".into(), TOTAL_OVERHEAD_CYCLES.to_string()]);
    csv
}

/// Fig. 6: dynamic FP instruction mix of all eight kernels
/// (VNM, `-O5 -qarch=440d`, the paper's configuration).
pub fn fig06(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "ranks",
        "single add-sub",
        "single mult",
        "single FMA",
        "single div",
        "SIMD add-sub",
        "SIMD FMA",
        "SIMD mult",
    ]);
    for kernel in Kernel::ALL {
        let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        let m = measure_cores(&cfg);
        let mix = fp_mix(&m.frame);
        let mut row = vec![kernel.name().to_string(), cfg.ranks.to_string()];
        for cat in MixCategory::ALL {
            row.push(format!("{:.4}", mix.fraction(cat)));
        }
        csv.row(row);
    }
    csv
}

/// Figs. 7/8: SIMD instruction counts of one kernel across compiler
/// builds, ±`-qarch=440d`.
pub fn fig_simd_sweep(kernel: Kernel, scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "build",
        "SIMD add-sub",
        "SIMD FMA",
        "SIMD mult",
        "quadload",
        "quadstore",
        "total FP instr",
    ]);
    let mut builds: Vec<CompileOpts> = Vec::new();
    for base in CompileOpts::paper_sweep() {
        builds.push(base.with_qarch(QArch::Ppc440));
        builds.push(base.with_qarch(QArch::Ppc440d));
    }
    for compile in builds {
        let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        cfg.compile = compile;
        let m = measure_cores(&cfg);
        let mix = fp_mix(&m.frame);
        let quadload: u64 = (0..4).map(|c| m.frame.sum(CoreEvent::Quadload.id(c))).sum();
        let quadstore: u64 = (0..4).map(|c| m.frame.sum(CoreEvent::Quadstore.id(c))).sum();
        csv.row([
            compile.label(),
            mix.count(MixCategory::SimdAddSub).to_string(),
            mix.count(MixCategory::SimdFma).to_string(),
            mix.count(MixCategory::SimdMult).to_string(),
            quadload.to_string(),
            quadstore.to_string(),
            mix.total().to_string(),
        ]);
    }
    csv
}

/// Figs. 9/10: execution time (cycles and seconds) of a set of kernels
/// across the four builds of the paper's sweep; `norm_vs_baseline`
/// column shows the fraction of baseline time.
pub fn fig_exec_time(kernels: &[Kernel], scale: Scale) -> Csv {
    let mut csv = Csv::new(["kernel", "build", "cycles", "seconds", "norm_vs_baseline"]);
    for &kernel in kernels {
        let mut baseline = None;
        for compile in CompileOpts::paper_sweep() {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
            cfg.compile = compile;
            let m = measure_cores(&cfg);
            let cycles = m.job_cycles;
            let base = *baseline.get_or_insert(cycles);
            csv.row([
                kernel.name().to_string(),
                compile.label(),
                cycles.to_string(),
                format!("{:.6}", cycles as f64 / CORE_CLOCK_HZ as f64),
                format!("{:.4}", cycles as f64 / base as f64),
            ]);
        }
    }
    csv
}

/// Fig. 11: DDR traffic per node vs L3 size (0–8 MB in 2 MB steps).
pub fn fig11(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "l3_mb",
        "ddr_traffic_bytes_per_node",
        "l3_miss_ratio",
        "norm_vs_no_l3",
    ]);
    for kernel in Kernel::ALL {
        let mut no_l3 = None;
        for mb in [0usize, 2, 4, 6, 8] {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
            cfg.machine = cfg.machine.with_l3_bytes(mb << 20);
            let m = measure_memory(&cfg);
            let traffic = ddr_traffic_bytes_per_node(&m.frame);
            let base = *no_l3.get_or_insert(traffic);
            csv.row([
                kernel.name().to_string(),
                mb.to_string(),
                format!("{traffic:.0}"),
                format!("{:.4}", l3_miss_ratio(&m.frame)),
                format!("{:.4}", traffic / base.max(1.0)),
            ]);
        }
    }
    csv
}

/// One kernel's VNM-vs-SMP/1 comparison (feeds Figs. 12, 13 and 14).
pub struct ModeRow {
    /// Kernel.
    pub kernel: Kernel,
    /// DDR traffic per chip, Virtual Node Mode (4 ranks/chip).
    pub vnm_traffic: f64,
    /// DDR traffic per chip, SMP/1 with the 2 MB fairness L3.
    pub smp_traffic: f64,
    /// Job cycles, VNM.
    pub vnm_cycles: u64,
    /// Job cycles, SMP/1.
    pub smp_cycles: u64,
    /// Achieved MFLOPS per chip, VNM.
    pub vnm_mflops: f64,
    /// Achieved MFLOPS per chip, SMP/1.
    pub smp_mflops: f64,
}

/// Run the §VIII comparison for every kernel: the same ranks packed
/// 4-per-chip (VNM) versus 1-per-chip (SMP/1, L3 limited to 2 MB per the
/// paper's fairness boot option).
pub fn mode_comparison(scale: Scale) -> Vec<ModeRow> {
    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let vnm = RunConfig::new(kernel, scale.class(), scale.ranks());
        let mut smp = vnm.clone();
        smp.mode = OpMode::Smp1;
        smp.machine = smp.machine.with_l3_bytes(2 << 20);

        let vnm_mem = measure_memory(&vnm);
        let smp_mem = measure_memory(&smp);
        let vnm_core = measure_cores(&vnm);
        let smp_core = measure_cores(&smp);
        rows.push(ModeRow {
            kernel,
            vnm_traffic: ddr_traffic_bytes_per_node(&vnm_mem.frame),
            smp_traffic: ddr_traffic_bytes_per_node(&smp_mem.frame),
            vnm_cycles: vnm_mem.job_cycles,
            smp_cycles: smp_mem.job_cycles,
            vnm_mflops: mflops_per_chip(&vnm_core.frame, 4),
            smp_mflops: mflops_per_chip(&smp_core.frame, 1),
        });
    }
    rows
}

/// Fig. 12: per-chip DDR-traffic ratio, VNM ÷ SMP/1.
pub fn fig12(rows: &[ModeRow]) -> Csv {
    let mut csv = Csv::new(["kernel", "vnm_bytes_per_chip", "smp_bytes_per_chip", "ratio"]);
    let mut sum = 0.0;
    for r in rows {
        let ratio = r.vnm_traffic / r.smp_traffic.max(1.0);
        sum += ratio;
        csv.row([
            r.kernel.name().to_string(),
            format!("{:.0}", r.vnm_traffic),
            format!("{:.0}", r.smp_traffic),
            format!("{ratio:.3}"),
        ]);
    }
    csv.row([
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.3}", sum / rows.len() as f64),
    ]);
    csv
}

/// Fig. 13: execution-time increase per node, VNM vs SMP/1 (percent).
pub fn fig13(rows: &[ModeRow]) -> Csv {
    let mut csv = Csv::new(["kernel", "vnm_cycles", "smp_cycles", "increase_percent"]);
    let mut sum = 0.0;
    for r in rows {
        let inc = (r.vnm_cycles as f64 / r.smp_cycles as f64 - 1.0) * 100.0;
        sum += inc;
        csv.row([
            r.kernel.name().to_string(),
            r.vnm_cycles.to_string(),
            r.smp_cycles.to_string(),
            format!("{inc:.2}"),
        ]);
    }
    csv.row([
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.2}", sum / rows.len() as f64),
    ]);
    csv
}

/// Fig. 14: achieved MFLOPS per chip, VNM vs SMP/1.
pub fn fig14(rows: &[ModeRow]) -> Csv {
    let mut csv = Csv::new(["kernel", "vnm_mflops_per_chip", "smp_mflops_per_chip", "ratio"]);
    let mut sum = 0.0;
    for r in rows {
        let ratio = r.vnm_mflops / r.smp_mflops.max(1e-9);
        sum += ratio;
        csv.row([
            r.kernel.name().to_string(),
            format!("{:.1}", r.vnm_mflops),
            format!("{:.1}", r.smp_mflops),
            format!("{ratio:.3}"),
        ]);
    }
    csv.row([
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.3}", sum / rows.len() as f64),
    ]);
    csv
}

/// Extension (§IX future work): sweep the L2 prefetch depth and observe
/// execution time and DDR traffic for the streaming kernels.
pub fn fig_ext_prefetch(scale: Scale) -> Csv {
    let mut csv = Csv::new(["kernel", "prefetch_depth", "cycles", "ddr_traffic_bytes_per_node"]);
    for kernel in [Kernel::Mg, Kernel::Cg] {
        for depth in [0usize, 2, 8] {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
            cfg.machine = cfg.machine.with_l2_prefetch_depth(depth);
            let m = measure_memory(&cfg);
            csv.row([
                kernel.name().to_string(),
                depth.to_string(),
                m.job_cycles.to_string(),
                format!("{:.0}", ddr_traffic_bytes_per_node(&m.frame)),
            ]);
        }
    }
    csv
}

/// Extension: all four operating modes of Fig. 3 running the same MPI
/// job (threads beyond one per process idle, as for any MPI-only code).
pub fn fig_ext_modes(scale: Scale) -> Csv {
    let mut csv = Csv::new(["kernel", "mode", "nodes", "cycles", "mflops_per_chip"]);
    for kernel in [Kernel::Cg, Kernel::Mg] {
        for mode in OpMode::ALL {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks() / 2);
            cfg.mode = mode;
            let m = measure_cores(&cfg);
            let spec_nodes = cfg.ranks.div_ceil(mode.processes_per_node());
            csv.row([
                kernel.name().to_string(),
                mode.label().to_string(),
                spec_nodes.to_string(),
                m.job_cycles.to_string(),
                format!("{:.1}", mflops_per_chip(&m.frame, mode.processes_per_node())),
            ]);
        }
    }
    csv
}

/// Extension: the §IV even/odd-node trick — 512 events in one run versus
/// two fixed-mode runs.
pub fn fig_ext_512events(scale: Scale) -> Csv {
    let kernel = Kernel::Cg;
    let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
    // One run, even/odd policy.
    let eo = measure_cores(&cfg);
    let eo_events = eo.frame.all_stats().len();
    // Two runs, fixed policies.
    let m0 = crate::measure(&cfg, CounterPolicy::Fixed(CounterMode::Mode0));
    let m1 = crate::measure(&cfg, CounterPolicy::Fixed(CounterMode::Mode1));
    let fixed_events = m0.frame.all_stats().len() + m1.frame.all_stats().len();
    let mut csv = Csv::new(["strategy", "runs", "events_observed"]);
    csv.row(["even/odd nodes (the paper's)".into(), "1".into(), eo_events.to_string()]);
    csv.row(["two fixed-mode runs".into(), "2".into(), fixed_events.to_string()]);
    csv
}

/// Extension (robustness): sweep fault-injection rates on an MG run and
/// watch collection coverage and the degraded-mode DDR-traffic metric
/// drift against the fault-free baseline. Every row uses the same seed,
/// so the sweep is reproducible bit-for-bit.
pub fn fig_ext_faults(scale: Scale) -> Csv {
    use bgp_core::collect::{collect_dumps, RetryPolicy};
    use bgp_faults::{FaultPlan, FaultSpec};
    use bgp_postproc::{AggregateOptions, DegradedFrame};
    use std::sync::Arc;

    let kernel = Kernel::Mg;
    let class = scale.class();
    let ranks = kernel.clamp_ranks(scale.ranks(), class);
    let mut csv = Csv::new([
        "node_loss_rate",
        "nodes",
        "nodes_delivered",
        "collection_coverage",
        "frame_coverage",
        "retry_backoff_cycles",
        "ddr_traffic_bytes_per_node",
        "deviation_pct_vs_clean",
        "sanity_flags",
    ]);
    let mut clean_metric: Option<f64> = None;
    for loss in [0.0, 0.05, 0.10, 0.20] {
        // Dump corruption, counter damage, and collection timeouts all
        // scale with the node-loss level; the first row is fault-free.
        let fspec = if loss == 0.0 {
            FaultSpec::none()
        } else {
            FaultSpec {
                node_loss_rate: loss,
                straggler_rate: loss,
                straggler_penalty_cycles: 2_000,
                collection_timeout_rate: 0.15,
                counter_bitflip_rate: loss / 2.0,
                counter_saturate_rate: loss / 4.0,
                dump_truncate_rate: loss / 4.0,
                dump_byteflip_rate: loss / 4.0,
                dump_missing_rate: loss / 8.0,
                ..FaultSpec::none()
            }
        };
        let mut spec = bgp_mpi::JobSpec::new(ranks, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode2);
        let nodes = spec.nodes();
        let plan = Arc::new(FaultPlan::new(fspec, 0xFA17_5EED, nodes));
        spec.faults = Some(Arc::clone(&plan));
        let machine = bgp_mpi::Machine::new(spec);
        let (_, lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
        let coll = collect_dumps(&lib, &plan, &RetryPolicy::default());
        let frame = DegradedFrame::from_dumps(
            &coll.dumps,
            WHOLE_PROGRAM_SET,
            AggregateOptions::fixed(CounterMode::Mode2, nodes),
        );
        let metric = frame
            .reliable_frame()
            .map_or(f64::NAN, |f| ddr_traffic_bytes_per_node(&f));
        let clean = *clean_metric.get_or_insert(metric);
        let deviation =
            if clean > 0.0 { (metric - clean) / clean * 100.0 } else { 0.0 };
        csv.row([
            format!("{loss:.2}"),
            nodes.to_string(),
            coll.dumps.len().to_string(),
            format!("{:.3}", coll.coverage()),
            format!("{:.3}", frame.coverage()),
            coll.total_backoff_cycles().to_string(),
            format!("{metric:.0}"),
            format!("{deviation:.2}"),
            frame.sanity().len().to_string(),
        ]);
    }
    csv
}

/// Timing repetitions per configuration at a scale.
fn timing_reps(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 5,
        Scale::Default => 3,
        Scale::Paper => 1,
    }
}

/// One configuration's host times over the reps of [`min_of_reps`].
struct Reps<T> {
    /// The fastest rep (ms).
    min_ms: f64,
    /// Slowest minus fastest rep (ms): how far to trust `min_ms`.
    spread_ms: f64,
    /// The last rep's payload.
    payload: T,
}

/// Best-of-`reps` host time of each of `n` configurations, with the
/// spread across the reps: one untimed warm-up run of the first (cold
/// caches, allocator growth), then the reps interleave the
/// configurations round-robin so host drift hits all of them equally.
/// `run(i)` times its own job, so setup outside the timed region stays
/// out, and returns `(ms, payload)`.
fn min_of_reps<T>(reps: usize, n: usize, mut run: impl FnMut(usize) -> (f64, T)) -> Vec<Reps<T>> {
    run(0);
    let mut best: Vec<Option<(f64, f64, T)>> = (0..n).map(|_| None).collect();
    for _ in 0..reps.max(1) {
        for (i, slot) in best.iter_mut().enumerate() {
            let (ms, payload) = run(i);
            let (min, max) = slot.as_ref().map_or((ms, ms), |&(lo, hi, _)| (lo.min(ms), hi.max(ms)));
            *slot = Some((min, max, payload));
        }
    }
    best.into_iter()
        .map(|s| {
            let (min_ms, max_ms, payload) = s.expect("at least one rep");
            Reps { min_ms, spread_ms: max_ms - min_ms, payload }
        })
        .collect()
}

/// Slowdown of `ms` over `base_ms`, percent, clamped at 0 (host timing
/// noise can make an instrumented run *faster*).
fn overhead_pct(ms: f64, base_ms: f64) -> f64 {
    ((ms - base_ms) / base_ms * 100.0).max(0.0)
}

/// Extension (parallel engine): wall-clock scaling of the phase-based
/// deterministic scheduler on an MG job, threads ∈ {1,2,4,8}, with a
/// byte-identity column proving results never depend on thread count.
/// Recorded in `BENCH_parallel.json`.
pub fn fig_ext_scaling(scale: Scale) -> Report {
    let kernel = Kernel::Mg;
    let class = scale.class();
    // SMP/1: one rank per node, so Default scale is a 16-node MG and
    // every frontier rank is a parallelism opportunity.
    let ranks = kernel.clamp_ranks(scale.ranks(), class);
    let mut serial: Option<(Vec<Vec<u8>>, u64, f64)> = None;
    let mut csv = Csv::new([
        "sim_threads",
        "wall_ms",
        "speedup_vs_serial",
        "job_cycles",
        "dumps_identical_to_serial",
    ]);
    for threads in [1usize, 2, 4, 8] {
        let mut spec = bgp_mpi::JobSpec::new(ranks, OpMode::Smp1);
        spec.sim_threads = Some(threads);
        let machine = bgp_mpi::Machine::new(spec);
        let t0 = Instant::now();
        let (_, lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let dumps: Vec<Vec<u8>> = (0..machine.num_nodes())
            .map(|n| lib.encoded_dump(n).expect("node finalized"))
            .collect();
        let job_cycles = machine.job_cycles();
        let (base_dumps, base_cycles, base_ms) =
            serial.get_or_insert((dumps.clone(), job_cycles, wall_ms));
        let identical = dumps == *base_dumps && job_cycles == *base_cycles;
        assert!(identical, "parallel dumps diverged from serial at {threads} threads");
        csv.row([
            threads.to_string(),
            format!("{wall_ms:.1}"),
            format!("{:.2}", *base_ms / wall_ms),
            job_cycles.to_string(),
            identical.to_string(),
        ]);
    }
    // Host CPUs matter for reading the sweep: with fewer CPUs than
    // simulation threads the engine can only pipeline blocked ranks,
    // not overlap compute.
    let bench = Bench::new(
        "BENCH_parallel.json",
        "fig_ext_scaling (MG, SMP/1, phase-based parallel engine)",
        scale,
    )
    .cell("serial_baseline_prev_engine_ms", "19900")
    .str("serial_baseline_prev_engine_commit", "beab573")
    .str(
        "note",
        "speedup requires host_cpus >= sim_threads; on a 1-CPU host the sweep verifies \
         determinism and overhead, not parallel speedup",
    )
    .rows("sweep", csv_rows(&csv));
    Report::from(csv).with_bench(bench)
}

/// Acceptance threshold: installed-but-disabled tracing must cost less
/// than this slowdown (percent) over no tracing at all.
const TRACE_GATE_PCT: f64 = 1.0;

/// Extension (tracing): cost of the deterministic trace layer on an MG
/// job — tracing absent (`off`), installed but switched off
/// (`disabled`), and fully enabled with counter sampling on slots 0–2
/// (`enabled`). Wall time is min-of-reps. The gate watches the
/// `disabled` row, because that is the cost every untraced run pays
/// for the instrumentation hooks. Recorded in `BENCH_trace.json`.
pub fn fig_ext_trace_overhead(scale: Scale) -> Report {
    use bgp_trace::TraceConfig;

    let kernel = Kernel::Mg;
    let class = scale.class();
    let ranks = kernel.clamp_ranks(scale.ranks(), class);
    let configs: [(&str, Option<TraceConfig>); 3] = [
        ("off", None),
        ("disabled", Some(TraceConfig { enabled: false, ..TraceConfig::default() })),
        ("enabled", Some(TraceConfig { sample_slots: vec![0, 1, 2], ..TraceConfig::default() })),
    ];
    let best = min_of_reps(timing_reps(scale), configs.len(), |i| {
        let mut spec = bgp_mpi::JobSpec::new(ranks, OpMode::VirtualNode);
        spec.trace = configs[i].1.clone();
        let machine = bgp_mpi::Machine::new(spec);
        let t0 = Instant::now();
        let (_, _lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let counts =
            machine.job_trace().map_or((0, 0), |t| (t.total_events() as u64, t.total_dropped()));
        (wall_ms, counts)
    });
    let mut csv = Csv::new([
        "trace_config",
        "wall_ms",
        "spread_ms",
        "overhead_pct",
        "events_recorded",
        "events_dropped",
    ]);
    let mut disabled_pct = 0.0;
    for ((label, _), rep) in configs.iter().zip(&best) {
        let pct = overhead_pct(rep.min_ms, best[0].min_ms);
        let (events, dropped) = rep.payload;
        if *label == "disabled" {
            disabled_pct = pct;
        }
        csv.row([
            label.to_string(),
            format!("{:.1}", rep.min_ms),
            format!("{:.1}", rep.spread_ms),
            format!("{pct:.2}"),
            events.to_string(),
            dropped.to_string(),
        ]);
    }
    let bench = Bench::new("BENCH_trace.json", "fig_ext_trace_overhead (MG, VNM, min-of-reps)", scale)
        .str("gate", &format!("disabled overhead_pct < {TRACE_GATE_PCT}"))
        .str(
            "note",
            "timestamps are simulated cycles, so the trace itself is deterministic; only host \
             wall-clock varies between reps",
        )
        .rows("configs", csv_rows(&csv));
    let gate = Gate::new(format!("disabled tracing costs {disabled_pct:.2}% (< {TRACE_GATE_PCT}%)"))
        .require(disabled_pct < TRACE_GATE_PCT, || {
            format!("disabled tracing costs {disabled_pct:.2}% (limit {TRACE_GATE_PCT}%)")
        })
        .noisy("attempt_overhead_pcts", format!("{disabled_pct:.2}"));
    Report::from(csv).with_bench(bench).with_gate(gate)
}

/// Acceptance threshold: snapshots every 64 phases must cost less than
/// this slowdown (percent) over no checkpointing at all.
const SNAPSHOT_GATE_PCT: f64 = 5.0;

/// Extension (checkpointing): wall-clock cost of snapshotting an MG job
/// every 64 phases versus never, plus the measured cost of one real
/// resume (load the newest snapshot, replay to its phase, go live,
/// finish the job). Recorded in `BENCH_snapshot.json`.
pub fn fig_ext_snapshot(scale: Scale) -> Report {
    use bgp_mpi::machine::CheckpointConfig;
    use bgp_snapshot::SnapshotStore;

    let kernel = Kernel::Mg;
    let class = scale.class();
    let ranks = kernel.clamp_ranks(scale.ranks(), class);
    let dir = std::env::temp_dir().join(format!("bgp-snapbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec_for = |checkpointed: bool| {
        let mut spec = bgp_mpi::JobSpec::new(ranks, OpMode::VirtualNode);
        if checkpointed {
            spec.checkpoint = Some(CheckpointConfig { every: 64, dir: dir.clone(), retain: 2 });
        }
        spec
    };
    let best = min_of_reps(timing_reps(scale), 2, |i| {
        let machine = bgp_mpi::Machine::new(spec_for(i == 1));
        let t0 = Instant::now();
        let (results, _lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(results.iter().all(|r| r.verified), "MG verification failed");
        (wall_ms, machine.snapshot_stats())
    });

    // One real resume from the newest snapshot the sweep left behind.
    let spec = spec_for(true);
    let outcome = SnapshotStore::new(&dir, 2)
        .load_latest_valid(spec.fingerprint())
        .expect("snapshot store readable");
    let (snap, _) = outcome.snapshot.expect("sweep wrote snapshots");
    let resume_phase = snap.phase;
    let machine = bgp_mpi::Machine::new(spec);
    machine.resume(snap).expect("snapshot accepted");
    let t0 = Instant::now();
    let (results, _lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(results.iter().all(|r| r.verified), "resumed MG verification failed");
    let _ = std::fs::remove_dir_all(&dir);

    let mut csv = Csv::new([
        "config",
        "wall_ms",
        "spread_ms",
        "overhead_pct",
        "snapshots",
        "mean_bytes",
        "save_ms",
    ]);
    let pct = overhead_pct(best[1].min_ms, best[0].min_ms);
    for (label, rep) in ["off", "every64"].into_iter().zip(&best) {
        let stats = &rep.payload;
        csv.row([
            label.to_string(),
            format!("{:.1}", rep.min_ms),
            format!("{:.1}", rep.spread_ms),
            format!("{:.2}", overhead_pct(rep.min_ms, best[0].min_ms)),
            stats.written.to_string(),
            (stats.bytes / stats.written.max(1)).to_string(),
            format!("{:.1}", stats.save_nanos as f64 / 1e6),
        ]);
    }
    let configs = csv_rows(&csv);
    csv.row([
        "resume".to_string(),
        format!("{resume_ms:.1}"),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
    ]);
    let bench = Bench::new("BENCH_snapshot.json", "fig_ext_snapshot (MG, VNM, min-of-reps)", scale)
        .str("gate", &format!("every64 overhead_pct < {SNAPSHOT_GATE_PCT}"))
        .cell("resume_ms", &format!("{resume_ms:.1}"))
        .raw("resume_phase", resume_phase.to_string())
        .str(
            "note",
            "snapshot bytes and counts are deterministic; only host wall-clock varies between \
             attempts",
        )
        .rows("configs", configs);
    let gate =
        Gate::new(format!("checkpointing every 64 phases costs {pct:.2}% (< {SNAPSHOT_GATE_PCT}%)"))
            .require(pct < SNAPSHOT_GATE_PCT, || {
                format!("checkpointing every 64 phases costs {pct:.2}% (limit {SNAPSHOT_GATE_PCT}%)")
            })
            .noisy("attempt_overhead_pcts", format!("{pct:.2}"));
    Report::from(csv).with_bench(bench).with_gate(gate)
}

/// Acceptance threshold: `Node::mem_ops` must beat the per-op
/// `Node::mem_op` walk by at least this factor on the mixed
/// stride/random stream. Steady state measures ~1.9× — the cache-core
/// optimizations (recency-ordered sets, membership filter) speed up
/// *both* engines, so the ratio is floored by the shared miss
/// machinery. The gate sits below typical with a noise margin: it is a
/// regression alarm, not an aspiration, and being a ratio of two
/// engines it is host-independent.
const MEM_GATE_SPEEDUP: f64 = 1.5;

/// Extension (performance): simulator throughput of the batched memory
/// engine vs. the per-op scalar walk, plus the end-to-end MG wall time.
/// The same access stream is driven through [`bgp_node::Node::mem_op`]
/// — icache probe, hierarchy walk, retirement and counter sync per
/// access — and through [`bgp_node::Node::mem_ops`] in quantum-sized
/// slices. The batched leg translates each slice and tallies its
/// classes inside the timer, as the rank context does at issue time,
/// so both legs time the same work. The stream mirrors the NAS mix —
/// three unit-stride double sweeps for every random-footprint burst — so
/// the same-line run memoization is exercised at its real duty cycle,
/// not a best case. Recorded in `BENCH_mem.json`.
pub fn fig_ext_memthroughput(scale: Scale) -> Report {
    use bgp_arch::events::CounterMode as CMode;
    use bgp_arch::{MachineConfig, NodeId};
    use bgp_mem::MemAccess;
    use bgp_node::{MemRetire, MemWidth, Node};

    let n_accesses = match scale {
        Scale::Quick => 1usize << 20,
        _ => 1 << 22,
    };
    // The kernels' dominant pattern: a 5-point stencil sweeping three
    // fields (u read with spatial reuse, rhs streamed, res written) —
    // mostly L1 hits with unit-stride runs, as in the MG/LU/SP inner
    // loops — broken up by scattered accesses (index vectors,
    // histograms) at roughly their NAS duty cycle. Every access is a
    // double of process 0 at its virtual address.
    let mut stream = Vec::with_capacity(n_accesses + 8);
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    const NX: u64 = 512;
    const U: u64 = 0;
    const RHS: u64 = 16 << 20;
    const RES: u64 = 32 << 20;
    let mut idx = NX + 1;
    while stream.len() < n_accesses {
        for _ in 0..16 {
            let p = (idx % (1 << 20)) * 8;
            for off in [p - NX * 8, p - 8, p, p + 8, p + NX * 8] {
                stream.push(MemAccess { addr: U + off, write: false });
            }
            stream.push(MemAccess { addr: RHS + p, write: false });
            stream.push(MemAccess { addr: RES + p, write: true });
            idx += 1;
        }
        for _ in 0..14 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            stream.push(MemAccess { addr: ((x >> 9) % (8 << 20)) & !7, write: x & 7 == 0 });
        }
    }
    stream.truncate(n_accesses);
    const SLICE: usize = 2048;

    // Both engines see the identical stream on a fresh node.
    let engines = min_of_reps(timing_reps(scale), 2, |batched| {
        let mut node =
            Node::new(NodeId(0), &MachineConfig::default(), OpMode::VirtualNode, CMode::Mode2);
        node.upc_mut().set_enabled(true);
        // Process 0's physical base; opaque so the add is not folded.
        let phys_base = std::hint::black_box(0u64);
        let mut slice = Vec::with_capacity(SLICE);
        let t0 = Instant::now();
        if batched == 1 {
            for c in stream.chunks(SLICE) {
                slice.clear();
                let mut retire = MemRetire::default();
                for a in c {
                    retire.add(MemWidth::Double, a.write, 1);
                    slice.push(MemAccess { addr: phys_base + a.addr, write: a.write });
                }
                node.mem_ops(0, &slice, &retire);
            }
        } else {
            for a in &stream {
                node.mem_op(0, 0, a.addr, MemWidth::Double, a.write);
            }
        }
        std::hint::black_box(node.core(0).cycles());
        (t0.elapsed().as_secs_f64() * 1e3, ())
    });
    let scalar_maps = n_accesses as f64 / engines[0].min_ms / 1e3;
    let batched_maps = n_accesses as f64 / engines[1].min_ms / 1e3;
    let speedup = batched_maps / scalar_maps;

    // End-to-end: the acceptance job (MG class A on 16 VNM ranks at
    // Default scale) on the batched engine.
    let kernel = Kernel::Mg;
    let class = scale.class();
    let ranks = kernel.clamp_ranks(scale.ranks(), class);
    let mg_reps = match scale {
        Scale::Quick => 3,
        _ => 2,
    };
    let mg = min_of_reps(mg_reps, 1, |_| {
        let machine = bgp_mpi::Machine::new(bgp_mpi::JobSpec::new(ranks, OpMode::VirtualNode));
        let t0 = Instant::now();
        let (out, _lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
        assert!(out.iter().all(|r| r.verified), "MG failed verification");
        (t0.elapsed().as_secs_f64() * 1e3, ())
    });

    let mut csv = Csv::new(["measure", "value"]);
    csv.row(["scalar_maccesses_per_s".into(), format!("{scalar_maps:.1}")]);
    csv.row(["batched_maccesses_per_s".into(), format!("{batched_maps:.1}")]);
    csv.row(["scalar_spread_ms".into(), format!("{:.1}", engines[0].spread_ms)]);
    csv.row(["batched_spread_ms".into(), format!("{:.1}", engines[1].spread_ms)]);
    csv.row(["batch_speedup".into(), format!("{speedup:.2}")]);
    csv.row(["mg_class".into(), format!("{class:?}")]);
    csv.row(["mg_ranks".into(), ranks.to_string()]);
    csv.row(["mg_wall_ms".into(), format!("{:.0}", mg[0].min_ms)]);
    csv.row(["mg_spread_ms".into(), format!("{:.0}", mg[0].spread_ms)]);
    let bench = Bench::new(
        "BENCH_mem.json",
        "fig_ext_memthroughput (mixed stride/random stream + MG end-to-end, min-of-reps)",
        scale,
    )
    .str("gate", &format!("batch_speedup >= {MEM_GATE_SPEEDUP}"))
    .str(
        "note",
        "both engines produce byte-identical dumps, traces and MemStats (see \
         crates/mem/tests/batch_differential.rs); only host wall-clock differs",
    )
    .pairs(&csv);
    let gate = Gate::new(format!(
        "batched engine is {speedup:.2}x the scalar walk (>= {MEM_GATE_SPEEDUP}x)"
    ))
    .require(speedup >= MEM_GATE_SPEEDUP, || {
        format!("batched engine only {speedup:.2}x the scalar walk (limit {MEM_GATE_SPEEDUP}x)")
    })
    .noisy("attempt_batch_speedups", format!("{speedup:.2}"));
    Report::from(csv).with_bench(bench).with_gate(gate)
}

/// FP charges per rank in the full-machine probe kernel.
const FULLMACHINE_FP: u64 = 32;
/// Collective participations per rank (one allreduce, one barrier).
const FULLMACHINE_COLLS: u64 = 2;
/// Per-rank peak-RSS budget (KB). The probe kernel keeps every
/// simulated cache cold, so anything above this is runtime overhead.
const RANK_RSS_BUDGET_KB: f64 = 10.0;

/// Read the process peak resident set (`VmHWM`) in bytes; 0 where
/// `/proc/self/status` is unavailable (non-Linux hosts).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The probe rank body: pure FP plus collectives, **no array traffic**,
/// so every node's caches stay in their cold (unmaterialized) state and
/// the sweep measures the runtime's true per-rank overhead.
async fn fullmachine_rank(mut ctx: bgp_mpi::RankCtx) -> bool {
    for _ in 0..FULLMACHINE_FP {
        ctx.fp1(SemOp::MulAdd);
    }
    let n = ctx.size() as f64;
    let sum = ctx.allreduce_sum_f64(&[ctx.rank() as f64]).await;
    ctx.barrier().await;
    sum[0] == n * (n - 1.0) / 2.0
}

/// Extension (scale): VNM jobs from 1k nodes up to the 73,728-node /
/// 294,912-rank Blue Gene/P full machine (72 racks), every rank a
/// resumable state machine over the fixed worker pool — never one OS
/// thread per rank. `--quick` stops at 4,096 nodes. The per-rank RSS
/// column feeds the ≤ 10 KB idle-rank overhead gate. Recorded in
/// `BENCH_fullmachine.json`.
pub fn fig_ext_fullmachine(scale: Scale) -> Report {
    let node_counts: &[usize] = match scale {
        Scale::Quick => &[1024, 4096],
        _ => &[1024, 4096, 16384, 73_728],
    };
    let mut csv = Csv::new([
        "nodes",
        "ranks",
        "wall_ms",
        "peak_rss_mb",
        "rss_per_rank_kb",
        "events_per_sec",
        "job_cycles",
        "verified",
    ]);
    let mut last_kb = 0.0;
    let mut last_ranks = 0;
    for &nodes in node_counts {
        let ranks = nodes * OpMode::VirtualNode.processes_per_node();
        let mut spec = bgp_mpi::JobSpec::new(ranks, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
        let t0 = Instant::now();
        let machine = bgp_mpi::Machine::new(spec);
        let out = machine.run(fullmachine_rank);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let verified = out.iter().all(|&ok| ok);
        assert!(verified, "rank-sum verification failed at {ranks} ranks");
        let peak = peak_rss_bytes();
        let events = ranks as u64 * (FULLMACHINE_FP + FULLMACHINE_COLLS);
        // VmHWM is a process-lifetime high-water mark; the sweep
        // ascends, so the final (largest) point dominates it and the
        // gate is an upper bound on that run's true footprint.
        last_kb = peak as f64 / ranks as f64 / 1024.0;
        last_ranks = ranks;
        csv.row([
            nodes.to_string(),
            ranks.to_string(),
            format!("{wall_ms:.0}"),
            format!("{:.1}", peak as f64 / 1e6),
            format!("{last_kb:.2}"),
            format!("{:.0}", events as f64 / (wall_ms / 1e3)),
            machine.job_cycles().to_string(),
            verified.to_string(),
        ]);
    }
    let bench = Bench::new(
        "BENCH_fullmachine.json",
        "fig_ext_fullmachine (VNM, FP+collective probe, multiplexed rank runtime)",
        scale,
    )
    .raw("rank_rss_budget_kb", RANK_RSS_BUDGET_KB.to_string())
    .str(
        "note",
        "ranks are resumable state machines over a fixed worker pool; the probe kernel keeps \
         simulated caches cold so rss_per_rank_kb measures runtime overhead, not workload state",
    )
    .rows("sweep", csv_rows(&csv));
    let gate = Gate::new(format!(
        "peak RSS {last_kb:.2} KB/rank at {last_ranks} ranks (<= {RANK_RSS_BUDGET_KB} KB)"
    ))
    .require(last_kb <= RANK_RSS_BUDGET_KB, || {
        format!(
            "per-rank peak RSS {last_kb:.2} KB exceeds the {RANK_RSS_BUDGET_KB} KB budget at \
             {last_ranks} ranks"
        )
    });
    Report::from(csv).with_bench(bench).with_gate(gate)
}

/// Base dwell settings (phases per rotation quantum) swept per kernel
/// by [`fig_ext_multiplex`].
const MUX_DWELLS: [u32; 3] = [4, 8, 16];

/// One exact run per counter mode (`Fixed(m)` × 4), the classical way
/// to cover all 1024 events: the dumps per mode, the ground truth, and
/// the summed job cycles. Determinism makes the four runs views of the
/// same execution, so one run's truth stands for all.
fn exact_runs(cfg: &RunConfig) -> ([Vec<NodeDump>; NUM_MODES], Vec<NodeTruth>, u64) {
    let mut exact: [Vec<NodeDump>; NUM_MODES] = Default::default();
    let mut truth = None;
    let mut cycles = 0u64;
    for (m, slot) in exact.iter_mut().enumerate() {
        let mode = CounterMode::from_index(m).expect("mode index");
        let r = measure_with_truth(cfg, CounterPolicy::Fixed(mode), None, None);
        cycles += r.job_cycles;
        match &truth {
            None => truth = Some(r.truth),
            Some(t) => assert_eq!(t.len(), r.truth.len(), "fixed runs must see the same machine"),
        }
        *slot = r.dumps;
    }
    (exact, truth.expect("four exact runs"), cycles)
}

/// Extension: **adaptive multiplexing coverage/cost**. Compares
/// re-running the application once per counter mode against a single
/// run under `CounterPolicy::Multiplexed`, across base dwell settings:
/// rotation statistics (rotations, interrupt-driven dwell extensions,
/// early rotates from derivative collapse), occupancy balance across
/// the four modes, and reconstruction quality against simulator ground
/// truth.
pub fn fig_ext_multiplex(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "base_dwell",
        "runs_needed",
        "cycles_fixed_total",
        "cycles_mux",
        "rotations",
        "irq_extends",
        "early_rotates",
        "irq_drained",
        "occ_mode0",
        "occ_mode1",
        "occ_mode2",
        "occ_mode3",
        "coverage",
        "mux_median_err",
    ]);
    for kernel in [Kernel::Mg, Kernel::Cg] {
        let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        let (exact, truth, cycles_fixed_total) = exact_runs(&cfg);
        for dwell in MUX_DWELLS {
            let policy =
                CounterPolicy::Multiplexed { first: CounterMode::Mode0, base_dwell: dwell };
            let mux = measure_with_truth(&cfg, policy, None, None);
            let summary = mux.mux.expect("multiplexed run has a summary");
            let label = format!("{kernel} dwell {dwell}");
            let report =
                ValidationReport::build(&label, &truth, &exact, &mux.dumps, None, WHOLE_PROGRAM_SET);
            csv.row([
                kernel.name().to_string(),
                dwell.to_string(),
                format!("{NUM_MODES}"),
                cycles_fixed_total.to_string(),
                mux.job_cycles.to_string(),
                summary.rotations.to_string(),
                summary.irq_extends.to_string(),
                summary.early_rotates.to_string(),
                summary.irq_drained.to_string(),
                summary.occupancy[0].to_string(),
                summary.occupancy[1].to_string(),
                summary.occupancy[2].to_string(),
                summary.occupancy[3].to_string(),
                format!("{:.4}", report.coverage),
                format!("{:.4}", report.mux_median_err),
            ]);
        }
    }
    csv
}

/// Median relative reconstruction error allowed over significant
/// events by the validation gate.
const VALIDATION_GATE_MUX_MEDIAN: f64 = 0.05;

/// Extension: **ground-truth event validation**. For MG and CG, run
/// each counter mode exactly, once under the adaptive multiplexing
/// policy (pinned to 1 and to 4 simulator threads), and once
/// multiplexed with injected counter faults — then check every
/// derivable event against the simulator's independent bookkeeping
/// (`bgp-fpu` flop classes, per-core instruction counts, `MemStats`
/// cache/DDR families, the node's always-on network mirror). The
/// per-event accuracy tables land in `fig_ext_validation_{mg,cg}.csv`
/// and the record in `BENCH_validation.json`.
///
/// The gate: every exact-run event matches truth bit-for-bit, and the
/// multiplexed dumps are byte-identical between 1 and 4 threads. At
/// Default/Paper scale also the multiplexed reconstruction's median
/// relative error over significant events stays within 5 % and the
/// rotation covers all 1024 events. Quick runs are too short for the
/// rotation to sample every mode meaningfully, so reconstruction
/// quality is reported but not gated there.
pub fn fig_ext_validation(scale: Scale) -> Report {
    use bgp_faults::{FaultPlan, FaultSpec};
    use std::sync::Arc;

    let full = scale != Scale::Quick;
    let mux_policy = CounterPolicy::multiplexed();
    let mut csv = Csv::new([
        "kernel",
        "exact_checked",
        "exact_matches",
        "mux_median_err",
        "mux_max_err",
        "coverage",
        "rotations",
        "thread_invariant",
        "fixed_mode_cycles",
        "mux_cycles",
    ]);
    let mut extra = Vec::new();
    let mut reports = Vec::new();
    let mut gate = Gate::new(if full {
        format!(
            "exact events 0% error, mux median error within {VALIDATION_GATE_MUX_MEDIAN}, full \
             coverage, thread-invariant dumps"
        )
    } else {
        "exact events 0% error, thread-invariant dumps (reconstruction quality gated at Default \
         scale)"
            .to_string()
    });
    for kernel in [Kernel::Mg, Kernel::Cg] {
        let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        let (exact, truth, fixed_cycles) = exact_runs(&cfg);
        let mux1 = measure_with_truth(&cfg, mux_policy, None, Some(1));
        let mux4 = measure_with_truth(&cfg, mux_policy, None, Some(4));
        let thread_invariant = mux1.encoded == mux4.encoded;
        // Fault-degraded leg: every node suffers a counter bit flip as
        // its window closes.
        let fault_spec = FaultSpec { counter_bitflip_rate: 1.0, ..FaultSpec::none() };
        let plan = Arc::new(FaultPlan::new(fault_spec, 7, mux1.dumps.len()));
        let degraded = measure_with_truth(&cfg, mux_policy, Some(plan), None);

        let label = format!("{} class {:?} x {} ranks", kernel, cfg.class, cfg.ranks);
        let r = ValidationReport::build(
            &label,
            &truth,
            &exact,
            &mux1.dumps,
            Some(&degraded.dumps),
            WHOLE_PROGRAM_SET,
        );
        csv.row([
            format!("{kernel}"),
            r.exact_checked.to_string(),
            r.exact_matches.to_string(),
            format!("{:.4}", r.mux_median_err),
            format!("{:.4}", r.mux_max_err),
            format!("{:.4}", r.coverage),
            mux1.mux.as_ref().map_or(0, |s| s.rotations).to_string(),
            thread_invariant.to_string(),
            (fixed_cycles / NUM_MODES as u64).to_string(),
            mux1.job_cycles.to_string(),
        ]);
        gate = gate
            .require(r.exact_ok(), || {
                format!(
                    "{kernel}: {}/{} exact events diverge from ground truth",
                    r.exact_checked - r.exact_matches,
                    r.exact_checked
                )
            })
            .require(thread_invariant, || {
                format!("{kernel}: multiplexed dumps differ between 1 and 4 sim threads")
            })
            .require(!full || r.mux_median_err <= VALIDATION_GATE_MUX_MEDIAN, || {
                format!(
                    "{kernel}: mux median error {:.4} (limit {VALIDATION_GATE_MUX_MEDIAN})",
                    r.mux_median_err
                )
            })
            .require(!full || r.coverage >= 1.0, || {
                format!("{kernel}: rotation covered {:.1}% of events", r.coverage * 100.0)
            });
        extra.push((format!("fig_ext_validation_{}", kernel.name().to_lowercase()), r.to_csv()));
        reports.push(r.to_json());
    }
    let rows = csv_rows(&csv).into_iter().zip(&reports).map(|(o, r)| o.field_raw("report", r));
    let bench = Bench::new(
        "BENCH_validation.json",
        "fig_ext_validation (exact / multiplexed-reconstructed / fault-degraded counts vs \
         simulator ground truth)",
        scale,
    )
    .str(
        "gate",
        &format!(
            "exact events 0% error; mux median relative error <= {VALIDATION_GATE_MUX_MEDIAN}; \
             full coverage; thread-invariant dumps"
        ),
    )
    .rows("kernels", rows);
    Report { extra, ..Report::from(csv) }.with_bench(bench).with_gate(gate)
}

/// Load shape of [`fig_ext_service`] at a scale:
/// `(requests, distinct keys, concurrency, workers)`.
fn service_shape(scale: Scale) -> (u64, u64, usize, usize) {
    match scale {
        // CI smoke: small but still far more requests than keys.
        Scale::Quick => (2_000, 8, 8, 4),
        // The committed BENCH_serve.json: >= 10k requests.
        Scale::Default => (12_000, 16, 8, 4),
        Scale::Paper => (20_000, 32, 16, 8),
    }
}

/// Extension: the counter service under load — jobs as traffic,
/// deterministic results as cache hits. Spawns an in-process
/// `bgp-serve` daemon on loopback and drives the request mix through
/// the real TCP protocol with `bgp_serve::run_load`. Latency and
/// throughput are host-dependent and recorded in `BENCH_serve.json`,
/// not gated. The gate is the service contract: every request
/// satisfied, none lost or duplicated; every repeat response
/// byte-identical to the first for its key; rejects only via the
/// backpressure path; and exactly one job run per distinct key
/// (coalescing plus the write-once store mean `misses == distinct`,
/// everything else is hits/joins).
pub fn fig_ext_service(scale: Scale) -> Report {
    use bgp_serve::{run_load, LoadConfig, QueueConfig, Server, ServerConfig};
    use std::time::Duration;

    let (requests, distinct, concurrency, workers) = service_shape(scale);
    let server = Server::spawn(ServerConfig {
        workers,
        queue: QueueConfig { capacity: 64, age_to_boost: Duration::from_millis(500) },
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let cfg =
        LoadConfig { requests, concurrency, distinct, ..LoadConfig::standard(server.addr()) };
    let report = run_load(&cfg).expect("load run against in-process server");
    server.shutdown();

    let mut csv = Csv::new(["metric", "value"]);
    for (metric, value) in [
        ("requests", report.requests.to_string()),
        ("satisfied", report.satisfied.to_string()),
        ("hits", report.hits.to_string()),
        ("misses", report.misses.to_string()),
        ("joined", report.joined.to_string()),
        ("rejects", report.rejects.to_string()),
        ("hit_rate", format!("{:.4}", report.hit_rate())),
        ("throughput_rps", format!("{:.0}", report.throughput_rps)),
        ("p50_us", report.p50_us.to_string()),
        ("p90_us", report.p90_us.to_string()),
        ("p99_us", report.p99_us.to_string()),
        ("wall_ms", report.wall_ms.to_string()),
    ] {
        csv.row([metric.to_string(), value]);
    }
    let bench = Bench::new(
        "BENCH_serve.json",
        "fig_ext_service (bgpc-serve loopback, MG class S submissions)",
        scale,
    )
    .str(
        "gate",
        "contract_held (all satisfied, byte-identical replays, backpressure-only rejects) and \
         misses == distinct_keys",
    )
    .raw("workers", workers.to_string())
    .raw("concurrency", concurrency.to_string())
    .raw("report", report.to_json());
    let gate = Gate::new(format!(
        "{} requests satisfied, byte-identical replays, one run per key ({} misses)",
        report.satisfied, report.misses
    ))
    .require(report.contract_held() && report.misses == report.distinct, || {
        format!(
            "satisfied {}/{}, failures {}, byte_identical {}, misses {} (want exactly {} \
             distinct keys)",
            report.satisfied,
            report.requests,
            report.failures,
            report.byte_identical,
            report.misses,
            report.distinct
        )
    });
    Report::from(csv).with_bench(bench).with_gate(gate)
}

/// [`mode_comparison`] memoized per scale, so Figs. 12–14 in one
/// process share one set of runs.
fn mode_rows(scale: Scale) -> Arc<Vec<ModeRow>> {
    static CACHE: Mutex<Vec<(Scale, Arc<Vec<ModeRow>>)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().expect("no figure panicked while caching mode rows");
    if let Some((_, rows)) = cache.iter().find(|(s, _)| *s == scale) {
        return Arc::clone(rows);
    }
    let rows = Arc::new(mode_comparison(scale));
    cache.push((scale, Arc::clone(&rows)));
    rows
}

/// Every table and figure `repro_all` can regenerate, in the order a
/// bare `repro_all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure { name: "fig03_modes", run: |_| fig03().into(), in_all: true },
    Figure { name: "tab_overhead", run: |_| tab_overhead().into(), in_all: true },
    Figure { name: "fig06_instr_mix", run: |s| fig06(s).into(), in_all: true },
    Figure { name: "fig07_ft_simd", run: |s| fig_simd_sweep(Kernel::Ft, s).into(), in_all: true },
    Figure { name: "fig08_mg_simd", run: |s| fig_simd_sweep(Kernel::Mg, s).into(), in_all: true },
    Figure {
        name: "fig09_exec_time",
        run: |s| fig_exec_time(&[Kernel::Mg, Kernel::Ft, Kernel::Ep, Kernel::Cg], s).into(),
        in_all: true,
    },
    Figure {
        name: "fig10_exec_time",
        run: |s| fig_exec_time(&[Kernel::Is, Kernel::Lu, Kernel::Sp, Kernel::Bt], s).into(),
        in_all: true,
    },
    Figure { name: "fig11_l3_sweep", run: |s| fig11(s).into(), in_all: true },
    Figure { name: "fig12_ddr_ratio", run: |s| fig12(&mode_rows(s)).into(), in_all: true },
    Figure { name: "fig13_time_increase", run: |s| fig13(&mode_rows(s)).into(), in_all: true },
    Figure { name: "fig14_mflops_chip", run: |s| fig14(&mode_rows(s)).into(), in_all: true },
    Figure { name: "fig_ext_prefetch", run: |s| fig_ext_prefetch(s).into(), in_all: true },
    Figure { name: "fig_ext_modes_all4", run: |s| fig_ext_modes(s).into(), in_all: true },
    Figure { name: "fig_ext_512events", run: |s| fig_ext_512events(s).into(), in_all: true },
    Figure { name: "fig_ext_faults", run: |s| fig_ext_faults(s).into(), in_all: true },
    Figure { name: "fig_ext_scaling", run: fig_ext_scaling, in_all: true },
    Figure { name: "fig_ext_trace_overhead", run: fig_ext_trace_overhead, in_all: true },
    Figure { name: "fig_ext_memthroughput", run: fig_ext_memthroughput, in_all: true },
    Figure { name: "fig_ext_fullmachine", run: fig_ext_fullmachine, in_all: true },
    Figure { name: "fig_ext_multiplex", run: |s| fig_ext_multiplex(s).into(), in_all: false },
    Figure { name: "fig_ext_validation", run: fig_ext_validation, in_all: false },
    Figure { name: "fig_ext_service", run: fig_ext_service, in_all: false },
    Figure { name: "fig_ext_snapshot", run: fig_ext_snapshot, in_all: false },
];

/// Look a figure up by its CSV stem.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique_and_cover_every_mapped_csv() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate figure name");

        // Every CSV scripts/fill_experiments.py pastes into
        // EXPERIMENTS.md must be one `repro_all` can regenerate.
        let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/fill_experiments.py");
        let text = std::fs::read_to_string(script).expect("read fill_experiments.py");
        let mapped: Vec<&str> = text
            .split('"')
            .filter_map(|s| s.strip_suffix(".csv"))
            .filter(|s| !s.is_empty() && !s.contains(char::is_whitespace))
            .collect();
        assert!(mapped.len() >= 13, "found only {mapped:?} in {script}");
        for stem in mapped {
            assert!(figure(stem).is_some(), "{stem}.csv has no figure in the registry");
        }
    }

    #[test]
    fn bare_repro_all_runs_the_default_sweep() {
        let all: Vec<&str> = FIGURES.iter().filter(|f| f.in_all).map(|f| f.name).collect();
        assert_eq!(all.len(), 19);
        assert_eq!(all[0], "fig03_modes");
        assert_eq!(all[18], "fig_ext_fullmachine");
    }
}

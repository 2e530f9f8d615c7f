//! The simulator workloads. One call of [`job`] is one job: a fresh
//! `Machine` (so simulated caches start empty), the kernel under
//! whole-program instrumentation, dump collection, the counter frame,
//! derived metrics, and their verification.

use crate::digest::Fnv;
use crate::{host, Out, SIM_THREADS};
use bgp_arch::events::{CounterMode, NetEvent};
use bgp_arch::OpMode;
use bgp_core::dump::NodeDump;
use bgp_core::{run_instrumented, CounterLibrary, WHOLE_PROGRAM_SET};
use bgp_mpi::{CounterPolicy, JobSpec, Machine, RankCtx, SemOp};
use bgp_nas::{Class, Kernel};
use bgp_postproc::{Frame, ValidationReport};
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Baseline dwell of the multiplexed MG job: the value the repository's
/// validation suite gates its reconstruction error at.
const MUX_DWELL: u32 = 12;
/// The Blue Gene/P full machine: 72 racks of 1,024 nodes.
const FULL_MACHINE_NODES: usize = 73_728;
/// FP charges per rank in the full-machine probe.
const PROBE_FP: usize = 32;
/// Median reconstruction error the multiplexed job must stay within.
const MUX_MAX_MEDIAN_ERR: f64 = 0.05;
/// Set-ups faster than this are repeated after the job, so the median
/// rests on more than a handful of microsecond-scale samples.
const SETUP_REPEAT_BELOW: Duration = Duration::from_millis(10);
const SETUP_REPEATS: usize = 49;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sim {
    MgMux,
    IsDdr,
    FullMachine,
}

impl Sim {
    fn spec(self) -> JobSpec {
        let (ranks, policy) = match self {
            Sim::MgMux => (
                16,
                CounterPolicy::Multiplexed {
                    first: CounterMode::Mode0,
                    base_dwell: MUX_DWELL,
                },
            ),
            Sim::IsDdr => (16, CounterPolicy::Fixed(CounterMode::Mode2)),
            Sim::FullMachine => (
                FULL_MACHINE_NODES * OpMode::VirtualNode.processes_per_node(),
                CounterPolicy::Fixed(CounterMode::Mode0),
            ),
        };
        let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
        spec.counter_policy = policy;
        spec.sim_threads = Some(SIM_THREADS);
        spec
    }
}

/// Per-rank host time, filled in by [`Timed`] when a rank finishes.
struct Probe {
    busy_ns: Vec<AtomicU64>,
    wait_ns: Vec<AtomicU64>,
    polls: Vec<AtomicU64>,
}

impl Probe {
    fn new(ranks: usize) -> Probe {
        let zeros = || (0..ranks).map(|_| AtomicU64::new(0)).collect();
        Probe {
            busy_ns: zeros(),
            wait_ns: zeros(),
            polls: zeros(),
        }
    }

    fn total(v: &[AtomicU64]) -> u64 {
        v.iter().map(|x| x.load(Ordering::Relaxed)).sum()
    }
}

/// Wraps one rank's kernel future and times it from the outside: host
/// time inside its polls, and time between a suspension and the next
/// poll. Everything the rank simulates runs synchronously inside a
/// poll, so the wrapper sees it all without touching program code.
struct Timed<F> {
    inner: Pin<Box<F>>,
    probe: Arc<Probe>,
    rank: usize,
    busy: Duration,
    wait: Duration,
    polls: u64,
    parked: Option<Instant>,
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        let start = Instant::now();
        if let Some(parked) = this.parked.take() {
            this.wait += start - parked;
        }
        let out = this.inner.as_mut().poll(cx);
        let end = Instant::now();
        this.busy += end - start;
        this.polls += 1;
        match out {
            Poll::Pending => this.parked = Some(end),
            Poll::Ready(_) => {
                let p = &this.probe;
                p.busy_ns[this.rank].store(this.busy.as_nanos() as u64, Ordering::Relaxed);
                p.wait_ns[this.rank].store(this.wait.as_nanos() as u64, Ordering::Relaxed);
                p.polls[this.rank].store(this.polls, Ordering::Relaxed);
            }
        }
        out
    }
}

/// Run `kernel` under whole-program instrumentation, each rank wrapped
/// in [`Timed`] when `probe` is given.
fn execute<R, F, Fut>(
    machine: &Arc<Machine>,
    probe: Option<&Arc<Probe>>,
    kernel: F,
) -> (Vec<R>, Arc<CounterLibrary>)
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: Future<Output = (RankCtx, R)> + Send,
{
    match probe {
        None => run_instrumented(machine, kernel),
        Some(p) => run_instrumented(machine, |ctx| Timed {
            probe: Arc::clone(p),
            rank: ctx.rank(),
            inner: Box::pin(kernel(ctx)),
            busy: Duration::ZERO,
            wait: Duration::ZERO,
            polls: 0,
            parked: None,
        }),
    }
}

/// The full-machine probe: FP work, one allreduce and one barrier per
/// rank, and no array traffic, so the memory hierarchy stays cold.
async fn full_machine_rank(mut ctx: RankCtx) -> (RankCtx, bool) {
    for _ in 0..PROBE_FP {
        ctx.fp1(SemOp::MulAdd);
    }
    let n = ctx.size() as f64;
    let sum = ctx.allreduce_sum_f64(&[ctx.rank() as f64]).await;
    ctx.barrier().await;
    (ctx, sum[0] == n * (n - 1.0) / 2.0)
}

/// Deterministic counts read through public getters after the run.
#[derive(Default)]
struct Counts {
    accesses: u64,
    l1d_misses: u64,
    l2_prefetch_hits: u64,
    l2_prefetches: u64,
    l3_hits: u64,
    l3_misses: u64,
    ddr_bytes: u64,
    instructions: u64,
    stall_mem: u64,
    flops: u64,
    torus_bytes: u64,
    torus_hops: u64,
    coll_packets: u64,
}

impl Counts {
    fn read(m: &Machine) -> Counts {
        let net = |ev: NetEvent| ev.id().slot().0 as usize;
        let mut c = Counts::default();
        for i in 0..m.num_nodes() {
            m.with_node(i, |n| {
                let s = n.mem_stats();
                c.accesses += s.total_accesses();
                c.l1d_misses += s.l1d_misses;
                c.l2_prefetch_hits += s.l2_prefetch_hits;
                c.l2_prefetches += s.l2_prefetches_issued;
                c.l3_hits += s.l3_hits;
                c.l3_misses += s.l3_misses;
                c.ddr_bytes += s.ddr_traffic_bytes();
                for core in 0..bgp_arch::CORES_PER_NODE {
                    let k = n.core(core);
                    c.instructions += k.instructions();
                    c.stall_mem += k.stall_mem();
                    c.flops += k.fpu().flops();
                }
                let t = n.net_truth();
                c.torus_bytes += t[net(NetEvent::TorusBytesSent)];
                c.torus_hops += t[net(NetEvent::TorusHops)];
                c.coll_packets += t[net(NetEvent::CollPktSent)];
            });
        }
        c
    }

    fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("accesses", self.accesses),
            ("l1d_misses", self.l1d_misses),
            ("l2_prefetch_hits", self.l2_prefetch_hits),
            ("l2_prefetches", self.l2_prefetches),
            ("l3_hits", self.l3_hits),
            ("l3_misses", self.l3_misses),
            ("ddr_bytes", self.ddr_bytes),
            ("instructions", self.instructions),
            ("stall_mem", self.stall_mem),
            ("flops", self.flops),
            ("torus_bytes", self.torus_bytes),
            ("torus_hops", self.torus_hops),
            ("coll_packets", self.coll_packets),
        ]
    }
}

/// Check the derived metrics the workload exists to produce.
fn validate(sim: Sim, machine: &Machine, dumps: &[NodeDump], frame: &Frame) -> Result<(), String> {
    match sim {
        Sim::MgMux => {
            let truth = bgp_bench::ground_truth(machine);
            let none: [Vec<NodeDump>; 4] = Default::default();
            let r = ValidationReport::build("mg", &truth, &none, dumps, None, WHOLE_PROGRAM_SET);
            if r.coverage < 1.0 || r.mux_median_err > MUX_MAX_MEDIAN_ERR {
                return Err(format!(
                    "mux reconstruction: coverage {}, median error {}",
                    r.coverage, r.mux_median_err
                ));
            }
        }
        Sim::IsDdr => {
            let truth = bgp_bench::ground_truth(machine);
            let exact = [vec![], vec![], dumps.to_vec(), vec![]];
            let r = ValidationReport::build("is", &truth, &exact, &[], None, WHOLE_PROGRAM_SET);
            if !r.exact_ok() {
                return Err(format!(
                    "L3/DDR counters: {} of {} match the simulator exactly",
                    r.exact_matches, r.exact_checked
                ));
            }
        }
        Sim::FullMachine => {
            let anomalies = frame.anomalies();
            if frame.nodes_in_mode(CounterMode::Mode0) != FULL_MACHINE_NODES
                || frame.records() != 1
                || !anomalies.is_empty()
            {
                return Err(format!(
                    "frame covers {} nodes, {} records, anomalies {anomalies:?}",
                    frame.nodes_in_mode(CounterMode::Mode0),
                    frame.records()
                ));
            }
        }
    }
    Ok(())
}

/// Run one job and report its measurements, digest and verdict.
pub fn job(sim: Sim, traced: bool) -> Out {
    let mut out = Out::default();
    let spec = sim.spec();
    let workers = SIM_THREADS.min(spec.nodes());
    let ranks = spec.ranks;
    let probe = traced.then(|| Arc::new(Probe::new(ranks)));

    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let machine = Machine::new(spec.clone());
    let setup = t0.elapsed();

    let t = Instant::now();
    let (verified, lib) = match sim {
        Sim::FullMachine => {
            let (ok, lib) = execute(&machine, probe.as_ref(), full_machine_rank);
            (ok.iter().all(|&ok| ok), lib)
        }
        Sim::MgMux | Sim::IsDdr => {
            let kernel = if sim == Sim::MgMux {
                Kernel::Mg
            } else {
                Kernel::Is
            };
            let (r, lib) = execute(&machine, probe.as_ref(), move |ctx| {
                kernel.exec(Class::A, ctx)
            });
            (r.iter().all(|r| r.verified), lib)
        }
    };
    let run_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let encoded: Option<Vec<Vec<u8>>> = (0..machine.num_nodes())
        .map(|i| lib.encoded_dump(i))
        .collect();
    let dumps = lib.dumps();
    let dumps_s = t.elapsed().as_secs_f64();
    let (Some(encoded), Ok(dumps)) = (encoded, dumps) else {
        out.text("error", "a node never finalized its dump");
        return out;
    };

    let t = Instant::now();
    let frame = match Frame::from_dumps(&dumps, WHOLE_PROGRAM_SET) {
        Ok(f) => f,
        Err(e) => {
            out.text("error", &format!("frame: {e}"));
            return out;
        }
    };
    let frame_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cycles = machine.job_cycles();
    let derived = black_box([
        bgp_postproc::mflops_per_chip(&frame, OpMode::VirtualNode.processes_per_node()),
        bgp_postproc::l3_miss_ratio(&frame),
        bgp_postproc::ddr_bandwidth_mb_s(&frame, cycles as f64),
        bgp_postproc::fp_mix(&frame).flops() as f64,
    ]);
    let derive_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let checked = validate(sim, &machine, &dumps, &frame);
    let validate_s = t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let rss_mb = host::peak_rss_mb();

    let counts = Counts::read(&machine);
    let rotations = machine.mux_summary().map_or(0, |s| s.rotations);
    let mut h = Fnv::new();
    for d in &encoded {
        h.blob(d);
    }
    h.u64(cycles);
    h.u64(machine.phases());
    h.u64(rotations);
    for (_, v) in counts.fields() {
        h.u64(v);
    }

    let mut setups = vec![setup.as_secs_f64()];
    if setup < SETUP_REPEAT_BELOW {
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            black_box(Machine::new(spec.clone()));
            setups.push(t.elapsed().as_secs_f64());
        }
    }

    match (verified, checked, derived.iter().all(|x| x.is_finite())) {
        (false, _, _) => out.text("error", "kernel verification failed"),
        (_, Err(e), _) => out.text("error", &e),
        (_, _, false) => out.text("error", &format!("non-finite derived metric {derived:?}")),
        (true, Ok(()), true) => {}
    }
    out.text("digest", &h.hex());
    out.list("setup_s", &setups);
    out.num("wall_s", wall_s);
    out.num("cpu_s", cpu_s);
    out.num("rss_mb", rss_mb);
    out.num("run_s", run_s);
    out.num("dumps_s", dumps_s);
    out.num("frame_s", frame_s);
    out.num("derive_s", derive_s);
    out.num("validate_s", validate_s);
    out.num(
        "dump_bytes",
        encoded.iter().map(|d| d.len()).sum::<usize>() as f64,
    );
    out.num("workers", workers as f64);
    out.num("job_cycles", cycles as f64);
    out.num("phases", machine.phases() as f64);
    out.num("mux_rotations", rotations as f64);
    for (k, v) in counts.fields() {
        out.num(k, v as f64);
    }
    if let Some(p) = &probe {
        out.num("poll_s", Probe::total(&p.busy_ns) as f64 * 1e-9);
        let max = p
            .busy_ns
            .iter()
            .map(|x| x.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        out.num("poll_max_rank_s", max as f64 * 1e-9);
        out.num("rank_wait_s", Probe::total(&p.wait_ns) as f64 * 1e-9);
        out.num("polls", Probe::total(&p.polls) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One class-S job of `kernel`, plain or wrapped, and its digest.
    fn class_s_digest(kernel: Kernel, traced: bool) -> (String, u64) {
        let mut spec = JobSpec::new(4, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Multiplexed {
            first: CounterMode::Mode0,
            base_dwell: MUX_DWELL,
        };
        spec.sim_threads = Some(SIM_THREADS);
        let machine = Machine::new(spec);
        let probe = traced.then(|| Arc::new(Probe::new(4)));
        let (r, lib) = execute(&machine, probe.as_ref(), move |ctx| {
            kernel.exec(Class::S, ctx)
        });
        assert!(r.iter().all(|r| r.verified));
        let mut h = Fnv::new();
        for i in 0..machine.num_nodes() {
            h.blob(&lib.encoded_dump(i).expect("finalized"));
        }
        h.u64(machine.job_cycles());
        h.u64(machine.phases());
        for (_, v) in Counts::read(&machine).fields() {
            h.u64(v);
        }
        (h.hex(), probe.map_or(0, |p| Probe::total(&p.polls)))
    }

    #[test]
    fn poll_timing_wrapper_leaves_the_digest_unchanged() {
        for kernel in [Kernel::Mg, Kernel::Is] {
            let (plain, no_polls) = class_s_digest(kernel, false);
            let (traced, polls) = class_s_digest(kernel, true);
            assert_eq!(
                plain, traced,
                "{kernel}: the wrapper changed what the job computed"
            );
            assert_eq!(no_polls, 0);
            assert!(
                polls >= 4,
                "{kernel}: every rank is polled at least once, saw {polls}"
            );
        }
    }
}

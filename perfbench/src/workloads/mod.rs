//! The four workloads and what they share.
//!
//! Everything runs in this one process: hosts are threads, one partition
//! worker thread each, so `HOSTS × THREADS_PER_HOST` stays within the two
//! cores of the reference host and the numbers measure the partitioner,
//! not the scheduler.

use std::time::{Duration, Instant};

use cusp::{CuspConfig, PartitionOutput, PhaseTimes};
use cusp_net::{Cluster, ClusterOptions, Comm, CommStats, TraceConfig};
use cusp_obs::Trace;

use crate::report::{Layers, Run};
use crate::stats::median;
use crate::sys::{self, bounded, WorkDir};
use crate::trace::Spans;

pub mod cvc_stream;
pub mod delta_hvc;
pub mod fec_tcp;
pub mod serve_mixed;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["cvc-stream", "fec-tcp", "serve-mixed", "delta-hvc"];

/// Simulated or TCP hosts per partition job.
pub const HOSTS: usize = 2;
/// Partition worker threads per host.
pub const THREADS_PER_HOST: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Bound on any single operation; a job that misses it counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Trace ring capacity per thread, in events: large enough that a traced
/// job of any workload drops nothing.
pub const RING_CAPACITY: usize = 1 << 20;

/// One run's settings.
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer run (alternating traced and untraced operations) instead
    /// of the untraced end-to-end run.
    pub traced: bool,
    /// Scratch directory for files the workload writes.
    pub work: WorkDir,
}

/// Runs workload `name`. `Err` means a correctness check failed or the
/// workload could not be set up; failed timed operations are counted in
/// the returned [`Run`] instead.
pub fn run(name: &str, ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let cores = sys::available_parallelism();
    run.context.push(format!(
        "workload {name}, seed {}, {} s window, trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    ));
    run.context.push(format!(
        "host: available_parallelism {cores}; layout {HOSTS} hosts x {THREADS_PER_HOST} worker thread, one process"
    ));
    if HOSTS * THREADS_PER_HOST > cores {
        run.context.push(format!(
            "warning: {} partition threads on {cores} cores; timings include oversubscription",
            HOSTS * THREADS_PER_HOST
        ));
    }
    match name {
        "cvc-stream" => cvc_stream::run(ctx, &mut run)?,
        "fec-tcp" => fec_tcp::run(ctx, &mut run)?,
        "serve-mixed" => serve_mixed::run(ctx, &mut run)?,
        "delta-hvc" => delta_hvc::run(ctx, &mut run)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            ))
        }
    }
    if ctx.traced {
        run.layers
            .set_median("mem.peak_rss_mb", &run.peak_rss_mb, 1.0);
    }
    Ok(run)
}

/// The partitioner configuration every workload starts from: the shipped
/// defaults with this benchmark's thread layout.
pub fn base_cfg() -> CuspConfig {
    CuspConfig {
        threads_per_host: THREADS_PER_HOST,
        ..CuspConfig::default()
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, recording each wall time in
/// `run.setup_s`, and keeps the last result (earlier ones are dropped
/// before the next repetition starts).
pub fn repeat_setup<T>(
    run: &mut Run,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("SETUP_REPEATS > 0"))
}

/// One partition job, timed around the public call.
pub struct Job {
    /// Wall seconds of the call.
    pub secs: f64,
    /// Per-host outputs.
    pub outs: Vec<PartitionOutput>,
    /// Communication statistics: one snapshot on the simulator, one per
    /// host over TCP (each authoritative for its own rows).
    pub stats: Vec<CommStats>,
    /// Drained traces, when the job was traced.
    pub traces: Vec<Trace>,
    /// Seconds each host spent in `TcpTransport::establish` (TCP only).
    pub establish_s: Vec<f64>,
}

/// Cluster options for a job, tracing when `traced`.
pub fn cluster_opts(traced: bool) -> ClusterOptions {
    ClusterOptions {
        trace: traced.then_some(TraceConfig {
            ring_capacity: RING_CAPACITY,
        }),
        ..ClusterOptions::default()
    }
}

/// Runs `f` on [`HOSTS`] simulated hosts under `Cluster::try_run_with`,
/// bounded by [`JOB_TIMEOUT`]. `Err` is a failed operation.
pub fn sim_job<F>(traced: bool, f: F) -> Result<Job, String>
where
    F: Fn(&Comm) -> PartitionOutput + Sync + Send + 'static,
{
    bounded(JOB_TIMEOUT, move || {
        let opts = cluster_opts(traced);
        let t = Instant::now();
        let out = Cluster::try_run_with(HOSTS, opts, f).map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        Ok(Job {
            secs,
            outs: out.results,
            stats: vec![out.stats],
            traces: out.trace.into_iter().collect(),
            establish_s: Vec::new(),
        })
    })
    .map_err(|f| f.to_string())?
}

/// Per-host (masters, mirrors, edges) plus the replication factor: what
/// every job of a pure policy must reproduce exactly.
#[derive(Debug, PartialEq)]
pub struct Shape {
    hosts: Vec<(usize, usize, u64)>,
    replication_factor: f64,
}

impl Shape {
    /// The shape of one job's output.
    pub fn of(outs: &[PartitionOutput]) -> Shape {
        let dgs = outs.iter().map(|o| &o.dist_graph);
        let proxies: usize = dgs.clone().map(|d| d.num_local()).sum();
        let nodes = outs.first().map_or(1, |o| o.dist_graph.global_nodes.max(1));
        Shape {
            hosts: dgs
                .map(|d| (d.num_masters, d.num_mirrors(), d.num_local_edges()))
                .collect(),
            replication_factor: proxies as f64 / nodes as f64,
        }
    }
}

/// `Err` listing the violations, if any.
pub fn expect_clean(what: &str, violations: Vec<cusp::Violation>) -> Result<(), String> {
    if violations.is_empty() {
        return Ok(());
    }
    let shown: Vec<String> = violations
        .iter()
        .take(5)
        .map(|v| format!("{v:?}"))
        .collect();
    Err(format!(
        "{what}: {} violation(s): {}",
        violations.len(),
        shown.join("; ")
    ))
}

/// Per-layer numbers of a partition workload, collected job by job.
#[derive(Default)]
pub struct PhaseLayers {
    phases: [Vec<f64>; 5],
    closure: Vec<f64>,
    chunks: Vec<f64>,
    chunk_s: Vec<f64>,
    barrier: Vec<f64>,
    msgs: Vec<f64>,
    bytes: Vec<f64>,
    construct_msgs: Vec<f64>,
    master_msgs: Vec<f64>,
    establish: Vec<f64>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    dropped: u64,
}

const PHASE_METRICS: [&str; 5] = [
    "core.read_s",
    "core.master_s",
    "core.edge_assign_s",
    "core.alloc_s",
    "core.construct_s",
];

impl PhaseLayers {
    /// Adds a traced job.
    pub fn traced(&mut self, job: &Job) {
        let spans = Spans::of(&job.traces);
        for (samples, phase) in self.phases.iter_mut().zip(PhaseTimes::NAMES) {
            samples.push(spans.max_over_hosts(phase));
        }
        self.closure.push(spans.phase_closure_frac(job.secs));
        self.chunks.push(spans.chunks() as f64);
        self.chunk_s.extend_from_slice(spans.chunk_durations());
        self.barrier.push(spans.max_over_hosts("barrier"));
        let sum = |f: &dyn Fn(&CommStats) -> u64| job.stats.iter().map(f).sum::<u64>() as f64;
        let phase_msgs = |s: &CommStats, p: &str| s.phase(p).map_or(0, |p| p.total_messages());
        self.msgs.push(sum(&|s| s.grand_total_messages()));
        self.bytes.push(sum(&|s| s.grand_total_bytes()));
        self.construct_msgs
            .push(sum(&|s| phase_msgs(s, "construct")));
        self.master_msgs.push(sum(&|s| phase_msgs(s, "master")));
        if let Some(max) = job.establish_s.iter().copied().reduce(f64::max) {
            self.establish.push(max);
        }
        self.traced_s.push(job.secs);
        self.dropped += job.traces.iter().map(|t| t.dropped_events).sum::<u64>();
    }

    /// Adds the wall time of an untraced job of the same traced run.
    pub fn untraced(&mut self, secs: f64) {
        self.untraced_s.push(secs);
    }

    /// Writes the collected medians. `Err` when the traces dropped events,
    /// which would make the span numbers incomplete.
    pub fn finish(&self, layers: &mut Layers) -> Result<(), String> {
        if self.dropped > 0 {
            return Err(format!(
                "traces dropped {} events (ring capacity {RING_CAPACITY}); per-layer numbers would be incomplete",
                self.dropped
            ));
        }
        for (name, samples) in PHASE_METRICS.into_iter().zip(&self.phases) {
            layers.set_median(name, samples, 1.0);
        }
        layers.set_median("core.phase_closure_frac", &self.closure, 1.0);
        if self.chunks.iter().any(|&c| c > 0.0) {
            layers.set_median("core.chunks", &self.chunks, 1.0);
            layers.set_median("core.chunk_us_p50", &self.chunk_s, 1e6);
        }
        layers.set_median("net.barrier_wait_s", &self.barrier, 1.0);
        layers.set_median("net.msgs", &self.msgs, 1.0);
        layers.set_median("net.bytes", &self.bytes, 1.0);
        layers.set_median("net.construct_msgs", &self.construct_msgs, 1.0);
        layers.set_median("net.master_msgs", &self.master_msgs, 1.0);
        layers.set_median("net.tcp_establish_s", &self.establish, 1.0);
        if !self.traced_s.is_empty() {
            layers.set("obs.dropped_events", 0.0, self.traced_s.len());
        }
        if let (Some(t), Some(u)) = (median(&self.traced_s), median(&self.untraced_s)) {
            let n = self.traced_s.len().min(self.untraced_s.len());
            layers.set("obs.trace_overhead_frac", t / u - 1.0, n);
        }
        Ok(())
    }
}

/// The codec probe over the largest destination array of a job.
pub fn codec_layers(layers: &mut Layers, outs: &[PartitionOutput]) {
    let dests = outs
        .iter()
        .map(|o| o.dist_graph.graph.dests())
        .max_by_key(|d| d.len())
        .unwrap_or(&[]);
    if dests.is_empty() {
        return;
    }
    let (enc, dec) = crate::probes::codec(dests);
    layers.set("net.codec_encode_mb_per_s", enc, crate::probes::REPS);
    layers.set("net.codec_decode_mb_per_s", dec, crate::probes::REPS);
}

/// The simulator message probe.
pub fn sim_probe_layers(layers: &mut Layers) -> Result<(), String> {
    let p = crate::probes::net_sim()?;
    layers.set("net.sim_mb_per_s", p.mb_per_s, crate::probes::REPS);
    layers.set("net.sim_small_msg_us", p.small_msg_us, crate::probes::REPS);
    Ok(())
}

//! `delta-hvc`: HVC under the determinism contract on a seeded in-memory
//! web-crawl graph, fed a stream of seeded 0.5% mutation batches. Each
//! step takes a batch in hand to the updated partition: `Csr::apply_batch`,
//! `Wal::append` (CRC + fsync), then `partition_delta_with_policy` from
//! the previous generation.
//!
//! The only workload that reaches the delta path, kept because a sizing
//! run found delta does not clearly pay on a 2-core host.

use std::sync::Arc;
use std::time::Instant;

use cusp::{
    partition_delta_with_policy, partition_with_policy, GraphSource, PartitionOutput, PolicyKind,
};
use cusp_graph::{Csr, GraphEvent, Wal};
use cusp_net::Cluster;

use super::{
    base_cfg, cluster_opts, codec_layers, repeat_setup, sim_job, sim_probe_layers, Ctx, Job,
    PhaseLayers, HOSTS, JOB_TIMEOUT,
};
use crate::report::Run;
use crate::sys::{bounded, Window};

pub(crate) const NODES: usize = 300_000;

fn cfg() -> cusp::CuspConfig {
    cusp::deterministic_for_comparison(base_cfg())
}

/// One generation: the graph and its partition.
struct Generation {
    graph: Arc<Csr>,
    parts: Arc<Vec<PartitionOutput>>,
}

/// A full repartition of `graph`, timed around the public call.
fn full(graph: &Arc<Csr>) -> Result<Job, String> {
    let src = GraphSource::Memory(Arc::clone(graph));
    sim_job(false, move |c| {
        partition_with_policy(c, src.clone(), PolicyKind::Hvc, &cfg())
    })
}

struct Step {
    secs: f64,
    apply_s: f64,
    wal_s: f64,
    job: Job,
    graph: Arc<Csr>,
}

/// One timed step from `gen` with `batch` in hand.
fn step(gen: &Generation, batch: Vec<GraphEvent>, wal: &Wal, traced: bool) -> Result<Step, String> {
    let (graph, prev, wal) = (Arc::clone(&gen.graph), Arc::clone(&gen.parts), wal.clone());
    bounded(JOB_TIMEOUT, move || -> Result<Step, String> {
        let t = Instant::now();
        let applied = graph
            .apply_batch(None, &batch)
            .map_err(|e| format!("apply_batch: {e}"))?;
        let apply_s = t.elapsed().as_secs_f64();
        wal.append(&batch).map_err(|e| format!("WAL append: {e}"))?;
        let wal_s = t.elapsed().as_secs_f64() - apply_s;
        let next = Arc::new(applied.graph);
        let src = GraphSource::Memory(Arc::clone(&next));
        let t_delta = Instant::now();
        let out = Cluster::try_run_with(HOSTS, cluster_opts(traced), |c| {
            partition_delta_with_policy(
                c,
                src.clone(),
                PolicyKind::Hvc,
                &cfg(),
                &prev[c.host()],
                &batch,
            )
        })
        .map_err(|e| e.to_string())?;
        let delta_s = t_delta.elapsed().as_secs_f64();
        Ok(Step {
            secs: t.elapsed().as_secs_f64(),
            apply_s,
            wal_s,
            job: Job {
                secs: delta_s,
                outs: out.results,
                stats: vec![out.stats],
                traces: out.trace.into_iter().collect(),
                establish_s: Vec::new(),
            },
            graph: next,
        })
    })
    .map_err(|f| f.to_string())?
}

fn fingerprint(outs: &[PartitionOutput]) -> u64 {
    let parts: Vec<_> = outs.iter().map(|o| o.dist_graph.clone()).collect();
    cusp::partition_fingerprint(&parts)
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let mut gen = repeat_setup(run, || {
        let graph = Arc::new(crate::inputs::webcrawl(NODES, ctx.seed));
        let parts = full(&graph)
            .map_err(|e| format!("generation-0 partition: {e}"))?
            .outs;
        Ok(Generation {
            graph,
            parts: Arc::new(parts),
        })
    })?;
    run.context.push(format!(
        "input: in-memory webcrawl, {} nodes, {} edges; HVC, deterministic sync; 0.5% batches",
        gen.graph.num_nodes(),
        gen.graph.num_edges()
    ));
    let wal = Wal::new(ctx.work.path().join("delta.wal"));

    let window = Window::open(ctx.seconds);
    let mut layers = PhaseLayers::default();
    let (mut apply_ms, mut wal_ms, mut delta_s, mut full_s) = (vec![], vec![], vec![], vec![]);
    let (mut dirty, mut reused) = (vec![], vec![]);
    while window.is_open() {
        let traced = ctx.traced && run.attempted % 2 == 1;
        let batch = crate::inputs::batch(&gen.graph, ctx.seed, run.attempted);
        run.attempted += 1;
        let s = match run.mem_sample(|| step(&gen, batch, &wal, traced))? {
            Ok(s) => s,
            Err(e) => {
                run.fail(format!("step {} failed: {e}", run.attempted));
                break;
            }
        };
        let edges: u64 = s
            .job
            .outs
            .iter()
            .map(|o| o.dist_graph.num_local_edges())
            .sum();
        if edges != s.graph.num_edges()
            || s.job
                .outs
                .iter()
                .any(|o| o.dist_graph.global_nodes != s.graph.num_nodes() as u64)
        {
            return Err(format!(
                "step {}: partitions hold {edges} edges, graph has {} edges / {} nodes",
                run.attempted,
                s.graph.num_edges(),
                s.graph.num_nodes()
            ));
        }
        if traced {
            layers.traced(&s.job);
        } else {
            run.partition_s.push(s.secs);
            run.request_ms.push(s.secs * 1e3);
            apply_ms.push(s.apply_s * 1e3);
            wal_ms.push(s.wal_s * 1e3);
            delta_s.push(s.job.secs);
            dirty.push(s.job.outs[0].dirty_vertices as f64);
            reused.push(s.job.outs.iter().map(|o| o.reused_edges).sum::<u64>() as f64);
            layers.untraced(s.job.secs);
        }
        gen = Generation {
            graph: s.graph,
            parts: Arc::new(s.job.outs),
        };
        if ctx.traced && !traced {
            // A full repartition of the same generation, outside the step.
            let f = full(&gen.graph).map_err(|e| format!("full repartition: {e}"))?;
            full_s.push(f.secs);
            if fingerprint(&f.outs) != fingerprint(&gen.parts) {
                return Err(format!(
                    "step {}: delta differs from full repartition",
                    run.attempted
                ));
            }
        }
    }
    run.window_s = window.elapsed_s();

    if ctx.traced {
        let l = &mut run.layers;
        l.set_median("core.delta_s", &delta_s, 1.0);
        l.set_median("core.full_s", &full_s, 1.0);
        if let (Some(d), Some(f)) = (
            crate::stats::median(&delta_s),
            crate::stats::median(&full_s),
        ) {
            l.set(
                "core.delta_full_ratio",
                d / f,
                delta_s.len().min(full_s.len()),
            );
        }
        l.set_median("core.dirty_vertices", &dirty, 1.0);
        l.set_median("core.reused_edges", &reused, 1.0);
        l.set_median("graph.apply_batch_ms", &apply_ms, 1.0);
        l.set_median("graph.wal_append_ms", &wal_ms, 1.0);
        codec_layers(l, &gen.parts);
        sim_probe_layers(l)?;
        layers.finish(l)?;
    }

    // The last step must be fingerprint-identical to a full repartition.
    let f = full(&gen.graph).map_err(|e| format!("full repartition: {e}"))?;
    if fingerprint(&f.outs) != fingerprint(&gen.parts) {
        return Err("last delta step differs from a full repartition of its generation".into());
    }
    let batches = wal.load().map_err(|e| format!("WAL reload: {e}"))?.len() as u64;
    if run.failed == 0 && batches != run.attempted {
        return Err(format!(
            "WAL holds {batches} batches, {} steps completed",
            run.attempted - run.failed
        ));
    }
    Ok(())
}

//! `cvc-stream`: CVC on the simulator, streaming a seeded web-crawl `.bgr`
//! in 1024-edge chunks with the shipped async defaults (prefetch and arena
//! on); partition jobs run back to back.
//!
//! The chunk reader, the per-chunk send-buffer flushes, `edge_assign` and
//! `construct` do almost all the work; CVC's master rule is pure, so the
//! master phase is nearly free. TCP, serve and the WAL do not run: this is
//! the control for those layers.

use std::path::Path;

use cusp::{partition_with_policy, GraphSource, PolicyKind};
use cusp_graph::{read_bgr, write_bgr};

use super::{
    base_cfg, codec_layers, expect_clean, repeat_setup, sim_job, sim_probe_layers, Ctx, Job,
    PhaseLayers, Shape,
};
use crate::report::Run;
use crate::sys::Window;

pub(crate) const NODES: usize = 300_000;
const CHUNK_EDGES: u64 = 1024;

/// Writes the seeded input graph to `path`; returns `(nodes, edges)`.
fn write_input(seed: u64, path: &Path) -> Result<(usize, u64), String> {
    let graph = crate::inputs::webcrawl(NODES, seed);
    write_bgr(path, &graph).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((graph.num_nodes(), graph.num_edges()))
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let path = ctx.work.path().join("webcrawl.bgr");
    let (nodes, edges) = repeat_setup(run, || write_input(ctx.seed, &path))?;
    run.context.push(format!(
        "input: webcrawl .bgr, {nodes} nodes, {edges} edges; CVC, chunk_edges {CHUNK_EDGES}, prefetch and arena on"
    ));

    let cfg = cusp::CuspConfig {
        chunk_edges: Some(CHUNK_EDGES),
        ..base_cfg()
    };
    let job = |traced: bool| {
        let (src, cfg) = (GraphSource::File(path.clone()), cfg.clone());
        sim_job(traced, move |comm| {
            partition_with_policy(comm, src.clone(), PolicyKind::Cvc, &cfg)
        })
    };

    // Reference job, untimed: every timed job must reproduce its shape.
    let reference = Shape::of(&job(false).map_err(|e| format!("reference job: {e}"))?.outs);

    let window = Window::open(ctx.seconds);
    let mut layers = PhaseLayers::default();
    // The window is read once per job, after it: the job that finds it
    // closed is kept for the full oracle and ends the loop.
    let mut last: Option<Job> = None;
    while last.is_none() {
        let traced = ctx.traced && run.attempted % 2 == 1;
        run.attempted += 1;
        let j = match run.mem_sample(|| job(traced))? {
            Ok(j) => j,
            Err(e) => {
                run.fail(format!("job {} failed: {e}", run.attempted));
                if window.is_open() {
                    continue;
                }
                break;
            }
        };
        let shape = Shape::of(&j.outs);
        if shape != reference {
            return Err(format!(
                "job {} shape {shape:?} != reference {reference:?}",
                run.attempted
            ));
        }
        expect_clean("comm stats", cusp::check_comm_stats(&j.stats[0]))?;
        if traced {
            layers.traced(&j);
        } else {
            run.partition_s.push(j.secs);
            run.request_ms.push(j.secs * 1e3);
            layers.untraced(j.secs);
        }
        if !window.is_open() {
            last = Some(j);
        }
    }
    run.window_s = window.elapsed_s();

    let last = last.ok_or("the job that closed the window failed; nothing to check")?;
    if ctx.traced {
        codec_layers(&mut run.layers, &last.outs);
        sim_probe_layers(&mut run.layers)?;
        let loads = crate::probes::chunk_loads(&path, CHUNK_EDGES)?;
        run.layers
            .set_median("graph.chunk_load_us_p50", &loads, 1e6);
        layers.finish(&mut run.layers)?;
    }

    // Full oracle on the last timed job, outside the window.
    let graph = read_bgr(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let parts: Vec<_> = last.outs.into_iter().map(|o| o.dist_graph).collect();
    expect_clean(
        "partition oracle",
        cusp::check_partition(&graph, None, &parts),
    )?;
    expect_clean("comm stats", cusp::check_comm_stats(&last.stats[0]))?;
    Ok(())
}

//! `fec-tcp`: FEC under the determinism contract (the configuration
//! `cusp-part launch` uses), reading a seeded web-crawl `.bgr` whole. Each
//! host is a thread owning a loopback `TcpTransport`; the mesh is set up
//! again for every job, and the job time includes it.
//!
//! The stateful Fennel master phase and bulk TCP frames do the work, and
//! the chunk machinery is bypassed: this is the control for `cvc-stream`'s
//! chunk layers and the only workload that runs TCP.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cusp::{partition_with_policy, GraphSource, PolicyKind};
use cusp_graph::write_bgr;
use cusp_net::{CommStats, TcpOptions, TcpTransport};

use super::{base_cfg, codec_layers, repeat_setup, sim_job, Ctx, Job, PhaseLayers, JOB_TIMEOUT};
use crate::probes::{bind_mesh, mesh_addrs};
use crate::report::Run;
use crate::sys::{bounded, Window};

pub(crate) const NODES: usize = 300_000;

fn write_input(seed: u64, path: &Path) -> Result<(usize, u64), String> {
    let graph = crate::inputs::webcrawl(NODES, seed);
    write_bgr(path, &graph).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((graph.num_nodes(), graph.num_edges()))
}

fn cfg() -> cusp::CuspConfig {
    cusp::deterministic_for_comparison(base_cfg())
}

/// One job over a fresh loopback mesh: bind, establish, partition, tear
/// down. `nonce` keeps a stale connection from joining this run.
fn tcp_job(path: PathBuf, nonce: u64, traced: bool) -> Result<Job, String> {
    bounded(JOB_TIMEOUT, move || -> Result<Job, String> {
        let t = Instant::now();
        let listeners = bind_mesh()?;
        let peers = mesh_addrs(&listeners)?;
        let hosts: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(h, l)| {
                let (peers, src) = (peers.clone(), GraphSource::File(path.clone()));
                std::thread::spawn(move || {
                    let t = Instant::now();
                    let transport =
                        TcpTransport::establish(h, l, &peers, nonce, TcpOptions::default())
                            .map_err(|e| format!("host {h} establish: {e}"))?;
                    let establish = t.elapsed().as_secs_f64();
                    let out = cusp_net::Cluster::try_run_tcp(
                        transport,
                        super::cluster_opts(traced),
                        |c| partition_with_policy(c, src, PolicyKind::Fec, &cfg()),
                    )
                    .map_err(|e| format!("host {h}: {e}"))?;
                    Ok::<_, String>((establish, out))
                })
            })
            .collect();
        let mut job = Job {
            secs: 0.0,
            outs: Vec::new(),
            stats: Vec::new(),
            traces: Vec::new(),
            establish_s: Vec::new(),
        };
        for h in hosts {
            let (establish, out) = h.join().map_err(|_| "host thread panicked".to_string())??;
            job.establish_s.push(establish);
            job.outs.push(out.result);
            job.stats.push(out.stats);
            job.traces.extend(out.trace);
        }
        job.secs = t.elapsed().as_secs_f64();
        Ok(job)
    })
    .map_err(|f| f.to_string())?
}

/// Every byte and message one host sent to another in a phase must show
/// up in the receiver's own statistics.
fn check_conservation(stats: &[CommStats]) -> Result<(), String> {
    for (s, sender) in stats.iter().enumerate() {
        for (name, phase) in sender.iter() {
            for (d, receiver) in stats.iter().enumerate() {
                if s == d {
                    continue;
                }
                let recv = receiver.phase(name);
                let got = (
                    recv.map_or(0, |p| p.recv_bytes_between(s, d)),
                    recv.map_or(0, |p| p.recv_messages_between(s, d)),
                );
                let sent = (phase.bytes_between(s, d), phase.messages_between(s, d));
                if sent != got {
                    return Err(format!(
                        "TCP conservation, phase {name}: {s}->{d} sent (bytes, msgs) {sent:?}, received {got:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn fingerprint(job: Job) -> u64 {
    let parts: Vec<_> = job.outs.into_iter().map(|o| o.dist_graph).collect();
    cusp::partition_fingerprint(&parts)
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let path = ctx.work.path().join("webcrawl.bgr");
    let (nodes, edges) = repeat_setup(run, || write_input(ctx.seed, &path))?;
    run.context.push(format!(
        "input: webcrawl .bgr, {nodes} nodes, {edges} edges; FEC, deterministic sync, monolithic read, loopback TCP mesh per job"
    ));

    // Simulator reference, untimed: every TCP job must match its fingerprint.
    let src = GraphSource::File(path.clone());
    let reference = sim_job(false, move |c| {
        partition_with_policy(c, src.clone(), PolicyKind::Fec, &cfg())
    })
    .map_err(|e| format!("simulator reference: {e}"))?;
    if ctx.traced {
        codec_layers(&mut run.layers, &reference.outs);
    }
    let ref_fp = fingerprint(reference);

    let window = Window::open(ctx.seconds);
    let mut layers = PhaseLayers::default();
    let nonce_base = ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while window.is_open() {
        let traced = ctx.traced && run.attempted % 2 == 1;
        run.attempted += 1;
        let nonce = nonce_base.wrapping_add(run.attempted);
        let j = match run.mem_sample(|| tcp_job(path.clone(), nonce, traced))? {
            Ok(j) => j,
            Err(e) => {
                run.fail(format!("job {} failed: {e}", run.attempted));
                continue;
            }
        };
        check_conservation(&j.stats)?;
        if traced {
            layers.traced(&j);
        } else {
            run.partition_s.push(j.secs);
            run.request_ms.push(j.secs * 1e3);
            layers.untraced(j.secs);
        }
        let fp = fingerprint(j);
        if fp != ref_fp {
            return Err(format!(
                "job {} fingerprint {fp:#x} != simulator {ref_fp:#x}",
                run.attempted
            ));
        }
    }
    run.window_s = window.elapsed_s();

    if ctx.traced {
        let p = crate::probes::net_tcp(nonce_base ^ 0x7C9)?;
        run.layers
            .set("net.tcp_mb_per_s", p.mb_per_s, crate::probes::REPS);
        run.layers
            .set("net.tcp_small_msg_us", p.small_msg_us, crate::probes::REPS);
        layers.finish(&mut run.layers)?;
    }
    Ok(())
}

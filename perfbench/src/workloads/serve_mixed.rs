//! `serve-mixed`: an in-process `cusp-serve` on loopback with two
//! closed-loop clients. Each client owns a tenant holding a seeded
//! web-crawl graph and repeats a seeded cycle: one `apply` batch (the
//! write), one cold `partition` per key (CVC and HVC, 2 hosts), then
//! [`HITS_PER_CYCLE`] `partition`/`quality` requests served from memory.
//! The mix is an assumption, not taken from a measured serving trace.
//!
//! Reads and writes share one cache. Hits stress framing, CRC, the router
//! and the cache lookup; misses the pipeline and the disk-tier write;
//! applies the WAL append + fsync, the graph fingerprint and cache
//! invalidation. The loop is closed because callers wait for their
//! partition.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cusp::{partition_with_policy, GraphSource, PolicyKind};
use cusp_graph::{Csr, GraphEvent, Wal};
use cusp_serve::protocol::encode_frame;
use cusp_serve::{
    serve, CacheTier, Client, Request, Response, ServeConfig, ServerHandle, ServerState,
};

use super::{
    base_cfg, codec_layers, repeat_setup, sim_job, sim_probe_layers, Ctx, PhaseLayers, HOSTS,
    JOB_TIMEOUT, THREADS_PER_HOST,
};
use crate::report::Run;
use crate::sys::{peak_heap_mb, peak_rss_mb, reset_peak_heap, reset_peak_rss};

pub(crate) const NODES: usize = 60_000;
const CLIENTS: usize = 2;
/// Memory-tier requests per cycle, after the apply and the two misses.
/// Chosen, not measured: no serving trace exists for this system, so the
/// ratio stands for a read-mostly tenant whose graph changes now and then.
const HITS_PER_CYCLE: usize = 40;
const KEYS: [PolicyKind; 2] = [PolicyKind::Cvc, PolicyKind::Hvc];
const GRAPH: &str = "g";

fn tenant(c: usize) -> String {
    format!("t{c}")
}

/// The seed of client `c`'s graph and batch stream.
fn client_seed(seed: u64, c: usize) -> u64 {
    crate::inputs::derive(seed, c as u64)
}

/// A running server with the tenants' graphs uploaded.
struct Setup {
    _server: ServerHandle,
    addr: String,
    graphs: Vec<Arc<Csr>>,
    upload_s: Vec<f64>,
}

fn start(ctx: &Ctx) -> Result<Setup, String> {
    let graphs: Vec<Arc<Csr>> = (0..CLIENTS)
        .map(|c| Arc::new(crate::inputs::webcrawl(NODES, client_seed(ctx.seed, c))))
        .collect();
    let data_dir = ctx
        .work
        .fresh_dir("serve")
        .map_err(|e| format!("serve data dir: {e}"))?;
    let state = ServerState::new(ServeConfig {
        data_dir,
        threads_per_host: THREADS_PER_HOST,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve state: {e}"))?;
    let server = serve(state, "127.0.0.1:0").map_err(|e| format!("serve bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut client =
        Client::connect_with_timeout(&addr, JOB_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut upload_s = Vec::new();
    for (c, g) in graphs.iter().enumerate() {
        let t = Instant::now();
        client
            .upload_graph(&tenant(c), GRAPH, g, None)
            .map_err(|e| format!("upload: {e}"))?;
        upload_s.push(t.elapsed().as_secs_f64());
    }
    Ok(Setup {
        _server: server,
        addr,
        graphs,
        upload_s,
    })
}

/// What one client saw.
#[derive(Default)]
struct Log {
    attempted: u64,
    failed: Option<String>,
    /// Client-observed milliseconds per request, every kind.
    all_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    /// Graph fingerprint each apply returned, in cycle order.
    apply_fps: Vec<u64>,
    miss_ms: Vec<f64>,
    miss_server_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    hit_server_us: Vec<f64>,
    hit_wire_us: Vec<f64>,
    /// Cold fingerprint per key in the last complete cycle.
    cold_fps: [u64; 2],
    cycles: usize,
}

/// One client's closed loop until `deadline`. A failed request ends the
/// loop; a wrong answer is an `Err`.
fn client_loop(
    addr: &str,
    c: usize,
    base: &Csr,
    seed: u64,
    deadline: Instant,
) -> Result<Log, String> {
    let t = tenant(c);
    let mut log = Log::default();
    let mut client = match Client::connect_with_timeout(addr, JOB_TIMEOUT) {
        Ok(client) => client,
        Err(e) => {
            log.attempted = 1;
            log.failed = Some(format!("client {c} connect: {e}"));
            return Ok(log);
        }
    };
    while Instant::now() < deadline {
        let batch = crate::inputs::batch(base, client_seed(seed, c), log.cycles as u64);
        log.attempted += 1;
        let s = Instant::now();
        let applied = client.apply(&t, GRAPH, &batch);
        let ms = s.elapsed().as_secs_f64() * 1e3;
        match applied {
            Ok(Response::Applied {
                new_fingerprint, ..
            }) => {
                log.all_ms.push(ms);
                log.apply_ms.push(ms);
                log.apply_fps.push(new_fingerprint);
            }
            Ok(other) => return Err(format!("client {c}: apply answered {other:?}")),
            Err(e) => {
                log.failed = Some(format!("client {c} apply: {e}"));
                return Ok(log);
            }
        }
        for (k, key) in KEYS.iter().enumerate() {
            log.attempted += 1;
            let s = Instant::now();
            let resp = client.partition(&t, GRAPH, key.name(), HOSTS as u32, 0);
            let ms = s.elapsed().as_secs_f64() * 1e3;
            match resp {
                Ok(Response::Partitioned {
                    fingerprint,
                    tier: CacheTier::Cold,
                    wall_micros,
                    ..
                }) => {
                    log.all_ms.push(ms);
                    log.miss_ms.push(ms);
                    log.miss_server_ms.push(wall_micros as f64 / 1e3);
                    log.cold_fps[k] = fingerprint;
                }
                Ok(other) => {
                    return Err(format!(
                        "client {c}: first {} request after apply answered {other:?}",
                        key.name()
                    ))
                }
                Err(e) => {
                    log.failed = Some(format!("client {c} partition: {e}"));
                    return Ok(log);
                }
            }
        }
        for h in 0..HITS_PER_CYCLE {
            let k = h % KEYS.len();
            let quality = (h / KEYS.len()) % 2 == 1;
            log.attempted += 1;
            let s = Instant::now();
            let resp = if quality {
                client.quality(&t, GRAPH, KEYS[k].name(), HOSTS as u32, 0)
            } else {
                client.partition(&t, GRAPH, KEYS[k].name(), HOSTS as u32, 0)
            };
            let elapsed = s.elapsed();
            let (fingerprint, tier, server_us) = match resp {
                Ok(Response::Partitioned {
                    fingerprint,
                    tier,
                    wall_micros,
                    ..
                }) => (fingerprint, tier, Some(wall_micros)),
                Ok(Response::QualityReport {
                    fingerprint, tier, ..
                }) => (fingerprint, tier, None),
                Ok(other) => return Err(format!("client {c}: hit answered {other:?}")),
                Err(e) => {
                    log.failed = Some(format!("client {c} hit: {e}"));
                    return Ok(log);
                }
            };
            if tier != CacheTier::Memory || fingerprint != log.cold_fps[k] {
                return Err(format!(
                    "client {c}: {} hit came from {tier:?} with fingerprint {fingerprint:#x}, cold was {:#x}",
                    KEYS[k].name(),
                    log.cold_fps[k]
                ));
            }
            let ms = elapsed.as_secs_f64() * 1e3;
            log.all_ms.push(ms);
            log.hit_ms.push(ms);
            if let Some(us) = server_us {
                log.hit_server_us.push(us as f64);
                log.hit_wire_us
                    .push(elapsed.as_secs_f64() * 1e6 - us as f64);
            }
        }
        log.cycles += 1;
    }
    Ok(log)
}

/// A client's batches applied again outside the server.
struct Replay {
    /// The graph after the last batch.
    graph: Arc<Csr>,
    /// The last batch.
    last_batch: Vec<GraphEvent>,
    /// Milliseconds per `apply_batch` call.
    apply_ms: Vec<f64>,
    /// Milliseconds per `Wal::append` call.
    wal_ms: Vec<f64>,
}

/// Replays a client's batches on its base graph: every apply must have
/// returned the fingerprint of the graph it produced.
fn replay(ctx: &Ctx, c: usize, base: &Arc<Csr>, log: &Log) -> Result<Replay, String> {
    let wal = Wal::new(ctx.work.path().join(format!("replay-{c}.wal")));
    let (mut apply_ms, mut wal_ms) = (Vec::new(), Vec::new());
    let mut graph = Arc::clone(base);
    let mut batch = Vec::new();
    for (cycle, &fp) in log.apply_fps.iter().enumerate() {
        batch = crate::inputs::batch(base, client_seed(ctx.seed, c), cycle as u64);
        let t = Instant::now();
        let applied = graph
            .apply_batch(None, &batch)
            .map_err(|e| format!("replay apply: {e}"))?;
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        wal.append(&batch)
            .map_err(|e| format!("replay WAL append: {e}"))?;
        wal_ms.push(t.elapsed().as_secs_f64() * 1e3);
        graph = Arc::new(applied.graph);
        let expect = cusp::graph_fingerprint(&graph, None);
        if fp != expect {
            return Err(format!(
                "client {c} cycle {cycle}: apply returned {fp:#x}, expected {expect:#x}"
            ));
        }
    }
    Ok(Replay {
        graph,
        last_batch: batch,
        apply_ms,
        wal_ms,
    })
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let setup = repeat_setup(run, || start(ctx))?;
    let edges: Vec<u64> = setup.graphs.iter().map(|g| g.num_edges()).collect();
    run.context.push(format!(
        "input: {CLIENTS} tenants, webcrawl graphs of {NODES} nodes and {edges:?} edges; {CLIENTS} closed-loop clients; cycle = 1 apply + {} cold + {HITS_PER_CYCLE} memory hits",
        KEYS.len()
    ));

    reset_peak_rss()?;
    reset_peak_heap();
    let start_at = Instant::now();
    let deadline = start_at + Duration::from_secs_f64(ctx.seconds);
    let (tx, rx) = mpsc::channel();
    let clients: Vec<_> = setup
        .graphs
        .iter()
        .enumerate()
        .map(|(c, g)| {
            let (tx, addr, g, seed) = (tx.clone(), setup.addr.clone(), Arc::clone(g), ctx.seed);
            std::thread::spawn(move || {
                let out = client_loop(&addr, c, &g, seed, deadline);
                let _ = tx.send((c, out));
            })
        })
        .collect();
    drop(tx);
    let mut logs: Vec<Option<Log>> = (0..CLIENTS).map(|_| None).collect();
    for _ in 0..CLIENTS {
        let wait = deadline.saturating_duration_since(Instant::now()) + JOB_TIMEOUT;
        let (c, log) = rx
            .recv_timeout(wait)
            .map_err(|_| "a client did not finish within its bound".to_string())?;
        logs[c] = Some(log?);
    }
    for h in clients {
        h.join().map_err(|_| "client thread panicked".to_string())?;
    }
    run.window_s = start_at.elapsed().as_secs_f64();
    run.peak_heap_mb.push(peak_heap_mb());
    run.peak_rss_mb.push(peak_rss_mb()?);
    let logs: Vec<Log> = logs
        .into_iter()
        .map(|l| l.expect("every client reported"))
        .collect();

    let all = |f: &dyn Fn(&Log) -> &Vec<f64>| {
        logs.iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    run.request_ms = all(&|l| &l.all_ms);
    run.partition_s = all(&|l| &l.miss_ms).iter().map(|ms| ms / 1e3).collect();
    let (hit_ms, apply_ms_client) = (all(&|l| &l.hit_ms), all(&|l| &l.apply_ms));
    let (miss_ms, miss_server_ms) = (all(&|l| &l.miss_ms), all(&|l| &l.miss_server_ms));
    let (hit_server_us, hit_wire_us) = (all(&|l| &l.hit_server_us), all(&|l| &l.hit_wire_us));
    for log in &logs {
        run.attempted += log.attempted;
        if let Some(e) = &log.failed {
            run.fail(e.clone());
        }
    }
    let cycles: Vec<usize> = logs.iter().map(|l| l.cycles).collect();
    run.context.push(format!("cycles per client: {cycles:?}"));

    // Server counters: exactly one pipeline job per cold request and one
    // memory hit per hit.
    let mut client = Client::connect_with_timeout(&setup.addr, JOB_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    let Ok(Response::ServerStatsReport {
        jobs_run, mem_hits, ..
    }) = client.server_stats()
    else {
        return Err("server stats request failed".into());
    };
    drop(client);
    if (jobs_run, mem_hits) != (miss_ms.len() as u64, hit_ms.len() as u64) {
        return Err(format!(
            "server counted {jobs_run} jobs and {mem_hits} memory hits for {} cold requests and {} hits",
            miss_ms.len(),
            hit_ms.len()
        ));
    }

    // Every apply's fingerprint, and the last cycle's cold fingerprints
    // against a reference partition of the final generation.
    let mut refs = PhaseLayers::default();
    let (mut apply_ms, mut wal_ms) = (Vec::new(), Vec::new());
    let mut frames = Vec::new();
    let mut final_graph = None;
    for (c, log) in logs.iter().enumerate() {
        let Replay {
            graph,
            last_batch,
            apply_ms: a,
            wal_ms: w,
        } = replay(ctx, c, &setup.graphs[c], log)?;
        apply_ms.extend(a);
        wal_ms.extend(w);
        // A client that stopped on a failed request may hold cold
        // fingerprints older than its last apply.
        if log.cycles == 0 || log.failed.is_some() {
            continue;
        }
        for (k, key) in KEYS.iter().enumerate() {
            let (src, key) = (GraphSource::Memory(Arc::clone(&graph)), *key);
            let cfg = cusp::deterministic_for_comparison(base_cfg());
            let job = sim_job(ctx.traced, move |comm| {
                partition_with_policy(comm, src.clone(), key, &cfg)
            })
            .map_err(|e| format!("reference partition: {e}"))?;
            if ctx.traced {
                refs.traced(&job);
                if c == 0 && k == 0 {
                    codec_layers(&mut run.layers, &job.outs);
                }
            }
            let parts: Vec<_> = job.outs.into_iter().map(|o| o.dist_graph).collect();
            let fp = cusp::partition_fingerprint(&parts);
            if fp != log.cold_fps[k] {
                return Err(format!(
                    "client {c}: cold {} fingerprint {:#x} != reference {fp:#x}",
                    key.name(),
                    log.cold_fps[k]
                ));
            }
        }
        if c == 0 {
            let upload = Request::UploadGraph {
                tenant: tenant(c),
                name: GRAPH.into(),
                offsets: setup.graphs[c].offsets().to_vec(),
                dests: setup.graphs[c].dests().to_vec(),
                weights: None,
            };
            let apply = Request::Apply {
                tenant: tenant(c),
                graph: GRAPH.into(),
                batch: last_batch,
            };
            frames = vec![
                encode_frame(&upload.encode()),
                encode_frame(&apply.encode()),
            ];
            final_graph = Some(graph);
        }
    }

    if ctx.traced {
        let l = &mut run.layers;
        l.set_median("serve.hit_ms_p50", &hit_ms, 1.0);
        l.set_tail("serve.hit_ms_p99", &hit_ms, 0.99, 1.0);
        l.set_median("serve.miss_ms_p50", &miss_ms, 1.0);
        l.set_median("serve.apply_ms_p50", &apply_ms_client, 1.0);
        l.set_median("serve.hit_server_us_p50", &hit_server_us, 1.0);
        l.set_median("serve.hit_wire_us_p50", &hit_wire_us, 1.0);
        l.set_median("serve.miss_server_ms_p50", &miss_server_ms, 1.0);
        l.set_median("serve.upload_s", &setup.upload_s, 1.0);
        if !frames.is_empty() {
            l.set(
                "serve.frame_decode_mb_per_s",
                crate::probes::frame_decode(&frames)?,
                crate::probes::REPS,
            );
        }
        if let Some(g) = &final_graph {
            l.set(
                "core.graph_fingerprint_ms",
                crate::probes::graph_fingerprint_ms(g),
                crate::probes::REPS,
            );
        }
        l.set_median("graph.apply_batch_ms", &apply_ms, 1.0);
        l.set_median("graph.wal_append_ms", &wal_ms, 1.0);
        sim_probe_layers(l)?;
        refs.finish(l)?;
    }
    Ok(())
}

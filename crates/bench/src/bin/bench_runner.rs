//! Machine-readable perf-trajectory runner.
//!
//! One binary that measures the numbers the perf work is judged by and
//! writes them as `results/BENCH_<date>.json` (schema documented in
//! `results/README.md`):
//!
//! * **Partition e2e** on the File-backed chunked power-law input under
//!   the shipped defaults, the recorded pre-PR wall, the speedup between
//!   them, and the per-phase breakdown of the optimized run.
//! * **Codec throughput** (MB/s) for the bulk u32/u64 slice paths and
//!   the element-by-element loop they replace.
//! * **Memory**: `peak_resident_edges` and the chunk-arena high-water
//!   footprint.
//! * **Obs overhead**: traced vs untraced wall on the same config.
//! * **Serve round-trip**: cold vs cache-hit latency of one partition
//!   request against an in-process `cusp-serve` instance over real
//!   sockets (fingerprints asserted identical).
//! * **Delta repartition**: full re-partition vs the incremental
//!   `partition_delta` path on a ≤1% mutation batch (fingerprints
//!   asserted identical under the determinism contract).
//! * **TCP transport**: the same partition over a loopback
//!   `TcpTransport` mesh vs the in-process simulator, fingerprints
//!   asserted identical — the real-socket overhead of the transport
//!   layer, isolated from process-spawn cost.
//! * **Ablation rows**: one wall-clock row per single-knob variant.
//!
//! Usage:
//!
//! ```text
//! bench_runner [--scale small|medium|large] [--json [PATH]]
//!              [--pre-pr-secs SECS]
//!              [--compare BASELINE.json] [--max-regress 0.15]
//! ```
//!
//! `--json` without a path writes `results/BENCH_<date>.json`. The
//! pre-PR number is structural (the old code, not a config knob), so it
//! cannot be measured from this tree: `--pre-pr-secs` injects a wall
//! measured by building `prepr_probe` against the pre-PR commit (the
//! regeneration recipe lives in `results/README.md`). Without the flag
//! the all-knobs-off config stands in and the JSON says so. With
//! `--compare`, the freshly measured optimized e2e wall is checked
//! against the baseline file's and the process exits non-zero when it
//! regressed by more than `--max-regress` (default 15%) — the CI
//! bench-smoke contract.

use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cusp::{CuspConfig, GraphSource, PhaseTimes, PolicyKind};
use cusp_bench::inputs::{standard_inputs, Scale};
use cusp_bench::report::{results_dir, warn_if_debug};
use cusp_bench::runner::{run_partition, run_partition_opts, verify_run, Partitioner};
use cusp_net::{ClusterOptions, TraceConfig, WireReader, WireWriter};

const HOSTS: usize = 4;
const CHUNK_EDGES: u64 = 1024;

/// Best-of repeats for every e2e measurement. The default suits CI smoke;
/// recorded baselines are taken with `CUSP_BENCH_REPEATS=10` so best-of
/// rides out background-load swings (see results/README.md).
fn e2e_repeats() -> usize {
    std::env::var("CUSP_BENCH_REPEATS").ok().and_then(|s| s.parse().ok()).unwrap_or(3)
}

fn main() {
    warn_if_debug();
    let args = Args::parse();
    let scale = Scale::from_env();

    // The File-backed chunked power-law config under measurement: cwx is
    // the drill-down web-crawl stand-in, read from its cached .bgr.
    let input = standard_inputs(scale)
        .into_iter()
        .find(|i| i.name == "cwx")
        .expect("cwx input");
    let src = GraphSource::File(input.path.clone());
    eprintln!(
        "input: {} ({} nodes, {} edges), {HOSTS} hosts, chunk_edges {CHUNK_EDGES}",
        input.name,
        input.graph.num_nodes(),
        input.graph.num_edges()
    );

    // The optimized config is the shipped defaults (prefetch + arena on)
    // over the chunked File source.
    let optimized = CuspConfig { chunk_edges: Some(CHUNK_EDGES), ..CuspConfig::default() };
    let knobs_off = CuspConfig {
        prefetch: false,
        arena_reuse: false,
        ..optimized.clone()
    };

    // E2E: best-of-N reported (phase-time) walls, with the oracle run on
    // the winner so a wrong partition can't post a time. The pre-PR wall
    // is injected (measured on the pre-PR tree, see module docs); the
    // knobs-off config stands in when it isn't.
    let (opt_secs, opt_run) = best_e2e(&src, &optimized, &input.graph);
    let (base_secs, base_kind) = match args.pre_pr_secs {
        Some(s) => (s, "external-probe"),
        None => (best_e2e(&src, &knobs_off, &input.graph).0, "knobs-off"),
    };
    let speedup = base_secs / opt_secs;
    eprintln!("e2e optimized {opt_secs:.3}s vs pre-PR ({base_kind}) {base_secs:.3}s — {speedup:.2}x");

    // Codec throughput (MB/s), bulk vs scalar.
    let codec = codec_throughput();

    // Obs overhead: traced vs untraced wall of the optimized config.
    let untraced = opt_secs;
    let traced_opts = ClusterOptions { trace: Some(TraceConfig::default()), ..Default::default() };
    let traced = (0..e2e_repeats())
        .map(|_| {
            run_partition_opts(
                src.clone(),
                HOSTS,
                Partitioner::Cusp(PolicyKind::Cvc),
                &optimized,
                traced_opts,
            )
            .0
            .reported
        })
        .min()
        .unwrap()
        .as_secs_f64();
    let obs_overhead = (traced - untraced) / untraced;

    // Single-knob ablation walls against the optimized chunked baseline.
    let ablations: Vec<(&str, CuspConfig)> = vec![
        ("optimized", optimized.clone()),
        ("prefetch-off", CuspConfig { prefetch: false, ..optimized.clone() }),
        ("arena-off", CuspConfig { arena_reuse: false, ..optimized.clone() }),
        ("monolithic", CuspConfig { chunk_edges: None, ..optimized.clone() }),
    ];
    let mut ablation_rows = Vec::new();
    for (name, cfg) in &ablations {
        let secs = (0..e2e_repeats())
            .map(|_| {
                run_partition(src.clone(), HOSTS, Partitioner::Cusp(PolicyKind::Cvc), cfg)
                    .reported
            })
            .min()
            .unwrap()
            .as_secs_f64();
        eprintln!("ablation {name}: {secs:.3}s");
        ablation_rows.push((*name, secs));
    }

    // Serve round-trip: cold partition request vs cache-hit request
    // against an in-process server, over real TCP.
    let (serve_cold, serve_warm) = serve_roundtrip(&input.graph);
    eprintln!(
        "serve round-trip: cold {serve_cold:.4}s, cache-hit {serve_warm:.6}s ({:.0}x)",
        serve_cold / serve_warm
    );

    // Same partition over real sockets vs the simulator.
    let (tcp_secs, tcp_sim_secs) = tcp_local_bench(&src, &optimized);
    eprintln!(
        "tcp transport: {tcp_secs:.3}s over loopback TCP vs {tcp_sim_secs:.3}s simulated ({:+.1}% overhead)",
        (tcp_secs / tcp_sim_secs - 1.0) * 100.0
    );

    // Delta repartition vs full re-partition on a small mutation batch.
    let delta = delta_bench(&input.graph);
    eprintln!(
        "delta repartition: full {:.3}s vs delta {:.3}s ({:.2}x) on {} events ({:.3}% of edges), {} dirty, {} edges reused",
        delta.full_secs,
        delta.delta_secs,
        delta.full_secs / delta.delta_secs,
        delta.events,
        delta.batch_frac * 100.0,
        delta.dirty,
        delta.reused
    );

    let json = render_json(
        input.name,
        input.graph.num_nodes() as u64,
        input.graph.num_edges(),
        scale,
        opt_secs,
        base_secs,
        base_kind,
        speedup,
        &opt_run.times,
        opt_run.peak_resident_edges,
        opt_run.times.arena_hw_bytes,
        &codec,
        untraced,
        traced,
        obs_overhead,
        serve_cold,
        serve_warm,
        tcp_secs,
        tcp_sim_secs,
        &delta,
        &ablation_rows,
    );

    if args.json {
        let path = args
            .json_path
            .unwrap_or_else(|| results_dir().join(format!("BENCH_{}.json", today())));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("cannot create results dir");
        }
        std::fs::write(&path, &json).expect("cannot write bench json");
        println!("[written {}]", path.display());
    } else {
        println!("{json}");
    }

    if let Some(baseline) = args.compare {
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", baseline.display()));
        let base_opt = extract_f64(&text, "optimized_secs")
            .unwrap_or_else(|| panic!("no optimized_secs in {}", baseline.display()));
        let ratio = opt_secs / base_opt;
        println!(
            "compare vs {}: optimized e2e {opt_secs:.3}s vs baseline {base_opt:.3}s ({ratio:.2}x)",
            baseline.display()
        );
        if ratio > 1.0 + args.max_regress {
            eprintln!(
                "FAIL: e2e regressed {:.1}% (> {:.0}% budget)",
                (ratio - 1.0) * 100.0,
                args.max_regress * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// The timing wrapper around one e2e config: best reported wall of
/// `e2e_repeats()` runs, oracle-checked once.
fn best_e2e(
    src: &GraphSource,
    cfg: &CuspConfig,
    graph: &cusp_graph::Csr,
) -> (f64, cusp_bench::runner::PartitionRun) {
    let mut best: Option<cusp_bench::runner::PartitionRun> = None;
    for _ in 0..e2e_repeats() {
        let run = run_partition(src.clone(), HOSTS, Partitioner::Cusp(PolicyKind::Cvc), cfg);
        if best.as_ref().is_none_or(|b| run.reported < b.reported) {
            best = Some(run);
        }
    }
    let best = best.unwrap();
    let v = verify_run(graph, &best);
    assert!(v.is_empty(), "oracle violations: {v:#?}");
    (best.reported.as_secs_f64(), best)
}

/// Cold vs cache-hit latency of one partition request against an
/// in-process `cusp-serve`: upload the bench graph, time the first
/// partition request (runs the pipeline), then the best of three
/// repeats of the identical request (memory-tier hit). Fingerprints
/// must match — a serve-layer bug can't post a fast number.
fn serve_roundtrip(graph: &cusp_graph::Csr) -> (f64, f64) {
    use cusp_serve::{serve, Client, Response, ServeConfig, ServerState};

    let data_dir =
        std::env::temp_dir().join(format!("cusp-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let state = ServerState::new(ServeConfig { data_dir: data_dir.clone(), ..Default::default() })
        .expect("serve state");
    let mut handle = serve(state, "127.0.0.1:0").expect("bind serve");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client.upload_graph("bench", "cwx", graph, None).expect("upload");

    let fp_of = |resp: &Response| match resp {
        Response::Partitioned { fingerprint, .. } => *fingerprint,
        other => panic!("partition failed: {other:?}"),
    };
    let t = Instant::now();
    let cold = client.partition("bench", "cwx", "CVC", HOSTS as u32, 0).expect("cold");
    let cold_secs = t.elapsed().as_secs_f64();
    let cold_fp = fp_of(&cold);

    let mut warm_secs = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let warm = client.partition("bench", "cwx", "CVC", HOSTS as u32, 0).expect("warm");
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(fp_of(&warm), cold_fp, "cache hit diverged from cold run");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
    (cold_secs, warm_secs)
}

/// The same partition over a loopback `TcpTransport` mesh (every host a
/// thread of this process owning real sockets, exactly the worker-process
/// data path minus fork/exec) vs the in-process simulator, both pinned to
/// the determinism contract so the fingerprints can be asserted
/// identical. Best-of-repeats wall for each; the pair isolates what the
/// real transport costs relative to shared-memory channels.
fn tcp_local_bench(src: &GraphSource, cfg: &CuspConfig) -> (f64, f64) {
    use cusp_net::{TcpOptions, TcpTransport};
    use std::net::TcpListener;

    let cfg = cusp::deterministic_for_comparison(cfg.clone());
    let wall_of = |times: &[PhaseTimes]| {
        times.iter().map(PhaseTimes::total).max().unwrap().as_secs_f64()
    };

    let mut tcp_secs = f64::MAX;
    let mut tcp_fp = 0;
    for rep in 0..e2e_repeats() {
        let listeners: Vec<TcpListener> = (0..HOSTS)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: Vec<String> =
            listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(h, l)| {
                let peers = peers.clone();
                let src = src.clone();
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let t = TcpTransport::establish(h, l, &peers, 0xBE7C + rep as u64, TcpOptions::default())
                        .expect("establish mesh");
                    cusp::partition_with_policy_tcp(t, src, PolicyKind::Cvc, &cfg)
                        .expect("tcp partition")
                        .result
                })
            })
            .collect();
        let outs: Vec<cusp::PartitionOutput> =
            handles.into_iter().map(|h| h.join().expect("host thread")).collect();
        let times: Vec<PhaseTimes> = outs.iter().map(|o| o.times).collect();
        tcp_secs = tcp_secs.min(wall_of(&times));
        let parts: Vec<_> = outs.into_iter().map(|o| o.dist_graph).collect();
        tcp_fp = cusp::partition_fingerprint(&parts);
    }

    let mut sim_secs = f64::MAX;
    let mut sim_fp = 0;
    for _ in 0..e2e_repeats() {
        let src = src.clone();
        let cfg2 = cfg.clone();
        let out = cusp_net::Cluster::run(HOSTS, move |comm| {
            cusp::partition_with_policy(comm, src.clone(), PolicyKind::Cvc, &cfg2)
        });
        let times: Vec<PhaseTimes> = out.results.iter().map(|o| o.times).collect();
        sim_secs = sim_secs.min(wall_of(&times));
        let parts: Vec<_> = out.results.into_iter().map(|o| o.dist_graph).collect();
        sim_fp = cusp::partition_fingerprint(&parts);
    }
    assert_eq!(tcp_fp, sim_fp, "TCP partition diverged from simulator");
    (tcp_secs, sim_secs)
}

struct DeltaBench {
    events: usize,
    batch_frac: f64,
    full_secs: f64,
    delta_secs: f64,
    dirty: u64,
    reused: u64,
}

/// Full re-partition vs `partition_delta` on a seeded ≤1% mutation
/// batch, best-of-repeats, same config and in-memory source for both.
/// Under `deterministic_sync` the two results must be bit-identical —
/// the assert means a wrong delta can't post a fast number.
fn delta_bench(graph: &cusp_graph::Csr) -> DeltaBench {
    use std::sync::Arc;

    // ~0.5% of edges, comfortably under the 1% incremental regime.
    let events = (graph.num_edges() / 200).max(16) as usize;
    let batch = cusp_graph::wal::seeded_batch(graph, false, 0xD317A, events);
    let applied = graph.apply_batch(None, &batch).expect("bench batch applies");
    let mutated = Arc::new(applied.graph);
    let base_src = GraphSource::Memory(Arc::new(graph.clone()));
    let msrc = GraphSource::Memory(Arc::clone(&mutated));
    let cfg = CuspConfig { deterministic_sync: true, ..CuspConfig::default() };

    // The previous generation's partition — the delta path's input, not
    // part of either measurement.
    let prevs = cusp_net::Cluster::run(HOSTS, |comm| {
        cusp::partition_with_policy(comm, base_src.clone(), PolicyKind::Cvc, &cfg)
    })
    .results;

    let wall_of = |outs: &[cusp::PartitionOutput]| {
        outs.iter().map(|o| o.times.total()).max().unwrap().as_secs_f64()
    };
    let fp_of = |outs: Vec<cusp::PartitionOutput>| {
        let parts: Vec<_> = outs.into_iter().map(|o| o.dist_graph).collect();
        cusp::partition_fingerprint(&parts)
    };

    let mut full_secs = f64::MAX;
    let mut full_fp = 0;
    for _ in 0..e2e_repeats() {
        let outs = cusp_net::Cluster::run(HOSTS, |comm| {
            cusp::partition_with_policy(comm, msrc.clone(), PolicyKind::Cvc, &cfg)
        })
        .results;
        full_secs = full_secs.min(wall_of(&outs));
        full_fp = fp_of(outs);
    }

    let mut delta_secs = f64::MAX;
    let mut dirty = 0;
    let mut reused = 0;
    let mut delta_fp = 0;
    for _ in 0..e2e_repeats() {
        let outs = cusp_net::Cluster::run(HOSTS, |comm| {
            cusp::partition_delta_with_policy(
                comm,
                msrc.clone(),
                PolicyKind::Cvc,
                &cfg,
                &prevs[comm.host()],
                &batch,
            )
        })
        .results;
        delta_secs = delta_secs.min(wall_of(&outs));
        dirty = outs[0].dirty_vertices;
        reused = outs.iter().map(|o| o.reused_edges).sum();
        delta_fp = fp_of(outs);
    }
    assert_eq!(delta_fp, full_fp, "delta repartition diverged from full");

    DeltaBench {
        events,
        batch_frac: events as f64 / graph.num_edges() as f64,
        full_secs,
        delta_secs,
        dirty,
        reused,
    }
}

struct CodecRow {
    name: &'static str,
    mbps: f64,
}

/// Throughput of the bulk slice paths and the scalar loop, MB/s over a
/// 1M-element working set (best of 5).
fn codec_throughput() -> Vec<CodecRow> {
    const N: usize = 1 << 20;
    let u32s: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let u64s: Vec<u64> = (0..N as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();

    let best = |bytes: usize, f: &mut dyn FnMut()| -> f64 {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        bytes as f64 / 1e6 / best.as_secs_f64()
    };

    let mut rows = Vec::new();
    let mut w = WireWriter::with_capacity(N * 8);
    rows.push(CodecRow {
        name: "u32_bulk_encode",
        mbps: best(N * 4, &mut || {
            w.put_u32_raw_slice(&u32s);
            std::hint::black_box(w.take());
        }),
    });
    rows.push(CodecRow {
        name: "u64_bulk_encode",
        mbps: best(N * 8, &mut || {
            w.put_u64_raw_slice(&u64s);
            std::hint::black_box(w.take());
        }),
    });
    let mut enc32 = WireWriter::with_capacity(N * 4);
    enc32.put_u32_raw_slice(&u32s);
    let payload32 = enc32.finish();
    let mut out32 = vec![0u32; N];
    rows.push(CodecRow {
        name: "u32_bulk_decode",
        mbps: best(N * 4, &mut || {
            let mut r = WireReader::new(payload32.clone());
            r.get_u32_into(&mut out32).unwrap();
            std::hint::black_box(out32[N - 1]);
        }),
    });
    let mut enc64 = WireWriter::with_capacity(N * 8);
    enc64.put_u64_raw_slice(&u64s);
    let payload64 = enc64.finish();
    let mut out64 = vec![0u64; N];
    rows.push(CodecRow {
        name: "u64_bulk_decode",
        mbps: best(N * 8, &mut || {
            let mut r = WireReader::new(payload64.clone());
            r.get_u64_into(&mut out64).unwrap();
            std::hint::black_box(out64[N - 1]);
        }),
    });
    rows.push(CodecRow {
        name: "u32_scalar_encode",
        mbps: best(N * 4, &mut || {
            for &v in &u32s {
                w.put_u32(v);
            }
            std::hint::black_box(w.take());
        }),
    });
    rows
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    input: &str,
    nodes: u64,
    edges: u64,
    scale: Scale,
    opt_secs: f64,
    base_secs: f64,
    base_kind: &str,
    speedup: f64,
    times: &PhaseTimes,
    peak_resident_edges: u64,
    arena_hw_bytes: u64,
    codec: &[CodecRow],
    untraced: f64,
    traced: f64,
    obs_overhead: f64,
    serve_cold: f64,
    serve_warm: f64,
    tcp_secs: f64,
    tcp_sim_secs: f64,
    delta: &DeltaBench,
    ablations: &[(&str, f64)],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 1,\n");
    s.push_str(&format!("  \"date\": \"{}\",\n", today()));
    s.push_str(&format!("  \"scale\": \"{}\",\n", format!("{scale:?}").to_lowercase()));
    s.push_str(&format!("  \"hosts\": {HOSTS},\n"));
    s.push_str(&format!(
        "  \"input\": {{\"name\": \"{input}\", \"nodes\": {nodes}, \"edges\": {edges}}},\n"
    ));
    s.push_str(&format!(
        "  \"config\": {{\"policy\": \"cvc\", \"chunk_edges\": {CHUNK_EDGES}, \"source\": \"file\"}},\n"
    ));
    s.push_str("  \"e2e\": {\n");
    s.push_str(&format!("    \"optimized_secs\": {opt_secs:.6},\n"));
    s.push_str(&format!("    \"pre_pr_secs\": {base_secs:.6},\n"));
    s.push_str(&format!("    \"pre_pr_source\": \"{base_kind}\",\n"));
    s.push_str(&format!("    \"speedup\": {speedup:.4},\n"));
    s.push_str("    \"phases_secs\": {");
    let phases: Vec<String> = PhaseTimes::NAMES
        .iter()
        .map(|n| format!("\"{n}\": {:.6}", times.get(n).as_secs_f64()))
        .collect();
    s.push_str(&phases.join(", "));
    s.push_str("},\n");
    s.push_str(&format!("    \"peak_resident_edges\": {peak_resident_edges},\n"));
    s.push_str(&format!("    \"arena_hw_bytes\": {arena_hw_bytes}\n"));
    s.push_str("  },\n");
    s.push_str("  \"codec_mbps\": {");
    let codec_rows: Vec<String> =
        codec.iter().map(|r| format!("\"{}\": {:.1}", r.name, r.mbps)).collect();
    s.push_str(&codec_rows.join(", "));
    s.push_str("},\n");
    s.push_str(&format!(
        "  \"obs\": {{\"untraced_secs\": {untraced:.6}, \"traced_secs\": {traced:.6}, \"overhead_frac\": {obs_overhead:.4}}},\n"
    ));
    s.push_str(&format!(
        "  \"serve\": {{\"cold_secs\": {serve_cold:.6}, \"cache_hit_secs\": {serve_warm:.6}, \"speedup\": {:.1}}},\n",
        serve_cold / serve_warm
    ));
    s.push_str(&format!(
        "  \"tcp_local\": {{\"tcp_secs\": {tcp_secs:.6}, \"sim_secs\": {tcp_sim_secs:.6}, \"overhead_frac\": {:.4}}},\n",
        tcp_secs / tcp_sim_secs - 1.0
    ));
    s.push_str(&format!(
        "  \"delta\": {{\"events\": {}, \"batch_frac\": {:.6}, \"full_secs\": {:.6}, \"delta_secs\": {:.6}, \"speedup\": {:.2}, \"dirty_vertices\": {}, \"reused_edges\": {}}},\n",
        delta.events,
        delta.batch_frac,
        delta.full_secs,
        delta.delta_secs,
        delta.full_secs / delta.delta_secs,
        delta.dirty,
        delta.reused
    ));
    s.push_str("  \"ablations\": [\n");
    let ab_rows: Vec<String> = ablations
        .iter()
        .map(|(n, secs)| format!("    {{\"variant\": \"{n}\", \"wall_secs\": {secs:.6}}}"))
        .collect();
    s.push_str(&ab_rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Extracts the first `"key": <number>` value from a JSON text — enough
/// structure awareness for the compare gate without a JSON dependency.
fn extract_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Today's UTC date as `YYYY-MM-DD` (days-to-civil, no chrono).
fn today() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before epoch")
        .as_secs()
        / 86_400;
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's days-from-civil inverse: days since 1970-01-01 to
/// (year, month, day).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

struct Args {
    json: bool,
    json_path: Option<PathBuf>,
    compare: Option<PathBuf>,
    max_regress: f64,
    pre_pr_secs: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = Args {
            json: false,
            json_path: None,
            compare: None,
            max_regress: 0.15,
            pre_pr_secs: None,
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--json" => {
                    args.json = true;
                    if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                        args.json_path = Some(PathBuf::from(&argv[i + 1]));
                        i += 1;
                    }
                }
                "--compare" => {
                    args.compare = Some(PathBuf::from(
                        argv.get(i + 1).expect("--compare needs a path"),
                    ));
                    i += 1;
                }
                "--max-regress" => {
                    args.max_regress = argv
                        .get(i + 1)
                        .expect("--max-regress needs a value")
                        .parse()
                        .expect("bad --max-regress");
                    i += 1;
                }
                "--pre-pr-secs" => {
                    args.pre_pr_secs = Some(
                        argv.get(i + 1)
                            .expect("--pre-pr-secs needs a value")
                            .parse()
                            .expect("bad --pre-pr-secs"),
                    );
                    i += 1;
                }
                "--scale" => i += 1, // consumed by Scale::from_env
                other => panic!("unknown argument '{other}'"),
            }
            i += 1;
        }
        args
    }
}

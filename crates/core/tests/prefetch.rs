//! Prefetch/arena equivalence suite.
//!
//! Background chunk prefetch and chunk-arena reuse are pure *latency*
//! knobs: they overlap the next chunk's byte-range re-read with the
//! current chunk's processing and recycle the chunk buffers, but they
//! must never change a single byte of the partition. Under
//! `deterministic_sync` every optimized run is required to be
//! bit-identical (by [`partition_fingerprint`]) to the same run with the
//! optimizations off — per backing (File vs Memory), host count, and
//! chunking — and the equivalence must survive host crashes that land
//! while a prefetch is in flight.

use std::path::PathBuf;
use std::sync::Arc;

use cusp::{
    check_all, partition_fingerprint, partition_with_policy, CuspConfig, DistGraph, GraphSource,
    PolicyKind,
};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_net::{Cluster, ClusterOptions, CommStats, CrashPlan, RecoveryOptions};

const NODES: usize = 150;
const EDGES: usize = 800;

/// Deterministic config with explicit optimization toggles.
fn cfg(chunk_edges: Option<u64>, prefetch: bool, arena: bool) -> CuspConfig {
    CuspConfig {
        threads_per_host: 1,
        sync_rounds: 4,
        deterministic_sync: true,
        chunk_edges,
        prefetch,
        arena_reuse: arena,
        ..CuspConfig::default()
    }
}

fn run(
    hosts: usize,
    kind: PolicyKind,
    source: GraphSource,
    cfg: CuspConfig,
) -> (Vec<DistGraph>, CommStats) {
    let out = Cluster::run(hosts, move |comm| {
        partition_with_policy(comm, source.clone(), kind, &cfg).dist_graph
    });
    (out.results, out.stats)
}

fn bgr_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cusp-prefetch-{}-{tag}.bgr", std::process::id()))
}

/// The core contract: for both backings, both host counts, and both
/// chunked and monolithic runs, every combination of {prefetch, arena}
/// produces the same fingerprint as the all-off run. Monolithic runs
/// ignore the toggles entirely, which this matrix also proves.
#[test]
fn prefetch_and_arena_never_change_the_partition() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 83));
    let path = bgr_path("matrix");
    cusp_graph::write_bgr(&path, &graph).unwrap();

    let sources =
        [("mem", GraphSource::Memory(graph.clone())), ("file", GraphSource::File(path.clone()))];
    for (src_name, source) in sources {
        for hosts in [1usize, 4] {
            for chunk in [None, Some(9)] {
                let (baseline, _) =
                    run(hosts, PolicyKind::Cvc, source.clone(), cfg(chunk, false, false));
                let reference = partition_fingerprint(&baseline);
                for (prefetch, arena) in [(true, true), (true, false), (false, true)] {
                    let (parts, stats) = run(
                        hosts,
                        PolicyKind::Cvc,
                        source.clone(),
                        cfg(chunk, prefetch, arena),
                    );
                    let label = format!(
                        "{src_name} hosts {hosts} chunk {chunk:?} prefetch {prefetch} arena {arena}"
                    );
                    assert_eq!(partition_fingerprint(&parts), reference, "{label}");
                    let v = check_all(&graph, None, &parts, &stats);
                    assert!(v.is_empty(), "{label}: {v:#?}");
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Stateful policies replay edge-rule decisions across chunks; prefetch
/// must preserve the sequential chunk order that replay depends on.
#[test]
fn stateful_policies_survive_prefetch() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 59));
    let src = GraphSource::Memory(graph.clone());
    for kind in [PolicyKind::Fec, PolicyKind::Hdrf] {
        let (off, _) = run(4, kind, src.clone(), cfg(Some(17), false, false));
        let (on, stats) = run(4, kind, src.clone(), cfg(Some(17), true, true));
        assert_eq!(
            partition_fingerprint(&on),
            partition_fingerprint(&off),
            "{kind:?}: prefetch changed a stateful-policy partition"
        );
        let v = check_all(&graph, None, &on, &stats);
        assert!(v.is_empty(), "{kind:?}: {v:#?}");
    }
}

/// Weighted inputs stream per-edge data through the same recycled
/// buffers; fingerprints (which hash edge data) must still match.
#[test]
fn weighted_prefetch_matches_baseline() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 31));
    let data: Arc<Vec<u32>> = Arc::new(
        (0..graph.num_edges())
            .map(|i| (i as u32).wrapping_mul(2_654_435_761))
            .collect(),
    );
    let src = GraphSource::MemoryWeighted(graph.clone(), data.clone());
    let (off, _) = run(4, PolicyKind::Hvc, src.clone(), cfg(Some(11), false, false));
    let (on, stats) = run(4, PolicyKind::Hvc, src.clone(), cfg(Some(11), true, true));
    assert_eq!(partition_fingerprint(&on), partition_fingerprint(&off));
    let v = check_all(&graph, Some(&data), &on, &stats);
    assert!(v.is_empty(), "{v:#?}");
}

/// Crash-during-prefetch: a host killed mid-phase while its prefetcher
/// has a request in flight must restart cleanly (the dying incarnation's
/// worker thread is shut down by the `ChunkedSlice` drop, the restarted
/// one spawns a fresh stream) and still converge to the crash-free
/// fingerprint. Mirrors the recovery-suite matrix, File-backed so the
/// prefetch thread is doing real I/O when the crash lands.
#[test]
fn crash_during_prefetch_recovers_bit_identical() {
    let hosts = 4;
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 29));
    let path = bgr_path("crash");
    cusp_graph::write_bgr(&path, &graph).unwrap();
    let src = GraphSource::File(path.clone());
    let pf_cfg = || cfg(Some(13), true, true);

    let recovery = RecoveryOptions {
        heartbeat_timeout: std::time::Duration::from_millis(30),
        max_restarts: 3,
        restart_backoff: std::time::Duration::from_millis(2),
    };
    let run_crash = |crash: Option<CrashPlan>| {
        let src = src.clone();
        let opts = ClusterOptions { crash, recovery, ..ClusterOptions::default() };
        let out = Cluster::try_run_with(hosts, opts, move |comm| {
            partition_with_policy(comm, src.clone(), PolicyKind::Cvc, &pf_cfg()).dist_graph
        })
        .expect("cluster run");
        (out.results, out.stats, out.recovery)
    };

    let (baseline, base_stats, _) = run_crash(None);
    let v = check_all(&graph, None, &baseline, &base_stats);
    assert!(v.is_empty(), "clean prefetch run: {v:#?}");
    let base_fp = partition_fingerprint(&baseline);

    // The chunk-consuming phases: read builds the stream, edge_assign and
    // construct iterate it (and thus have prefetches in flight).
    let mut fired = 0u64;
    for phase in ["read", "edge_assign", "construct"] {
        for seed in 0..4u64 {
            let label = format!("prefetch crash phase {phase} seed {seed}");
            let plan = CrashPlan::once(0xDEC0DE ^ seed, 1, phase, 3);
            let (parts, stats, rec) = run_crash(Some(plan));
            assert_eq!(partition_fingerprint(&parts), base_fp, "{label}");
            let v = check_all(&graph, None, &parts, &stats);
            assert!(v.is_empty(), "{label}: {v:#?}");
            fired += rec.expect("crash plan was armed").crashes;
        }
    }
    assert!(fired >= 3, "crash plans fired only {fired} times");
    std::fs::remove_file(&path).ok();
}

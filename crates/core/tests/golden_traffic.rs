//! Golden traffic: the Table V communication volume and the partitions
//! themselves are pinned to recorded constants.
//!
//! HVC on 4 hosts moves edges in construction, so every layer of the wire
//! path shows up in the per-phase, per-host-pair byte and message counts:
//! the edge-assignment metadata, the construction record format, and the
//! send-buffer flush points. Each case runs once as a full partition of the
//! base graph and once as a delta partition of that graph after a seeded
//! 0.5% mutation batch, unweighted and weighted. One thread per host makes
//! flush boundaries a deterministic function of the record stream, so
//! message counts are as stable as byte counts; `deterministic_sync` makes
//! the partitions bit-reproducible.
//!
//! FEC's full runs pin the stored-master protocol the same way: the master
//! phase's request, SYNC and FINAL messages carry the sorted request lists
//! and the Fennel assignments, and edge assignment ships master and mirror
//! lists next to the count vectors.
//!
//! On a mismatch the test prints the observed table as a Rust literal. A
//! change that is meant to alter the wire format or the partitions must
//! say so; any other change has to leave these constants alone.

use std::sync::Arc;

use cusp::{
    partition_delta_with_policy, partition_fingerprint, partition_with_policy, CuspConfig,
    DistGraph, GraphSource, PartitionOutput, PolicyKind,
};
use cusp_graph::gen::{powerlaw, PowerLawConfig};
use cusp_graph::wal::seeded_batch;
use cusp_graph::Csr;
use cusp_net::{Cluster, CommStats};

const HOSTS: usize = 4;

/// One phase's traffic: `(name, bytes[src * HOSTS + dst], messages[…])`.
type PhaseTraffic = (&'static str, [u64; HOSTS * HOSTS], [u64; HOSTS * HOSTS]);

/// A host-pair matrix with no traffic.
const ZERO: [u64; HOSTS * HOSTS] = [0; HOSTS * HOSTS];

/// Recorded traffic and fingerprint of one run.
struct Golden {
    traffic: &'static [PhaseTraffic],
    fingerprint: u64,
}

fn cfg() -> CuspConfig {
    CuspConfig {
        threads_per_host: 1,
        deterministic_sync: true,
        // Small buffers: several flushes per host pair, so the message
        // counts pin the flush points, not just the per-phase totals.
        buffer_threshold: 64,
        ..CuspConfig::default()
    }
}

fn hash_weights(g: &Csr) -> Vec<u32> {
    g.iter_edges()
        .map(|(u, v)| (u.wrapping_mul(31).wrapping_add(v) % 1000) + 1)
        .collect()
}

fn source(g: &Arc<Csr>, w: &Option<Arc<Vec<u32>>>) -> GraphSource {
    match w {
        Some(w) => GraphSource::MemoryWeighted(g.clone(), w.clone()),
        None => GraphSource::Memory(g.clone()),
    }
}

fn fingerprint(outs: &[PartitionOutput]) -> u64 {
    let parts: Vec<DistGraph> = outs.iter().map(|o| o.dist_graph.clone()).collect();
    partition_fingerprint(&parts)
}

/// Runs the full partition of the base graph and the delta partition of
/// the mutated graph; returns `(stats, fingerprint)` for each.
fn run(weighted: bool) -> [(CommStats, u64); 2] {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(5000, 10.0, 42)));
    let weights = weighted.then(|| Arc::new(hash_weights(&graph)));
    // 0.5% of the edges, rounded down.
    let events = graph.num_edges() as usize / 200;
    let batch = seeded_batch(&graph, weighted, 0x601D, events);
    let applied = graph
        .apply_batch(weights.as_deref().map(|w| w.as_slice()), &batch)
        .unwrap();
    let mutated = Arc::new(applied.graph);
    let mutated_w = applied.weights.map(Arc::new);

    let base_src = source(&graph, &weights);
    let full = Cluster::run(HOSTS, move |comm| {
        partition_with_policy(comm, base_src.clone(), PolicyKind::Hvc, &cfg())
    });
    let prevs = &full.results;
    let mutated_src = source(&mutated, &mutated_w);
    let delta = Cluster::run(HOSTS, |comm| {
        partition_delta_with_policy(
            comm,
            mutated_src.clone(),
            PolicyKind::Hvc,
            &cfg(),
            &prevs[comm.host()],
            &batch,
        )
    });
    assert!(
        delta.results.iter().map(|o| o.reused_edges).sum::<u64>() > 0,
        "delta run reused nothing; it is not exercising the delta path"
    );
    let full_fp = fingerprint(&full.results);
    let delta_fp = fingerprint(&delta.results);
    [(full.stats, full_fp), (delta.stats, delta_fp)]
}

/// The observed run as a pasteable `Golden` literal.
fn render(stats: &CommStats, fp: u64) -> String {
    let mut s = String::from("Golden {\n    traffic: &[\n");
    for (name, p) in stats.iter() {
        let cells = |f: &dyn Fn(usize, usize) -> u64| {
            let v: Vec<u64> = (0..HOSTS * HOSTS)
                .map(|i| f(i / HOSTS, i % HOSTS))
                .collect();
            if v.iter().all(|&x| x == 0) {
                return "ZERO".to_string();
            }
            let v: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", v.join(", "))
        };
        s += &format!(
            "        (\n            {name:?},\n            {},\n            {},\n        ),\n",
            cells(&|a, b| p.bytes_between(a, b)),
            cells(&|a, b| p.messages_between(a, b)),
        );
    }
    s + &format!("    ],\n    fingerprint: {fp:#018x},\n}}")
}

/// Runs a full FEC partition of the base graph; returns its stats and
/// fingerprint. FEC's masters are stored (Fennel scoring), so the master
/// phase carries the request/SYNC/FINAL protocol and edge assignment ships
/// master lists and mirror lists alongside the count vectors. (FEC has no
/// delta path: a non-pure master rule falls back to a full run.)
fn run_fec(weighted: bool) -> (CommStats, u64) {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(5000, 10.0, 42)));
    let weights = weighted.then(|| Arc::new(hash_weights(&graph)));
    let src = source(&graph, &weights);
    let full = Cluster::run(HOSTS, move |comm| {
        partition_with_policy(comm, src.clone(), PolicyKind::Fec, &cfg())
    });
    let fp = fingerprint(&full.results);
    (full.stats, fp)
}

fn check(label: &str, (stats, fp): &(CommStats, u64), golden: &Golden) {
    let observed = render(stats, *fp);
    let names: Vec<&str> = stats.phase_names().iter().map(String::as_str).collect();
    let expected: Vec<&str> = golden.traffic.iter().map(|t| t.0).collect();
    assert_eq!(
        names, expected,
        "{label}: phase set changed; observed:\n{observed}"
    );
    for (name, bytes, msgs) in golden.traffic {
        let p = stats.phase(name).unwrap();
        assert_eq!(p.hosts(), HOSTS);
        for src in 0..HOSTS {
            for dst in 0..HOSTS {
                let i = src * HOSTS + dst;
                assert_eq!(
                    (p.bytes_between(src, dst), p.messages_between(src, dst)),
                    (bytes[i], msgs[i]),
                    "{label}: phase {name} {src}->{dst} (bytes, messages) moved; observed:\n{observed}"
                );
            }
        }
    }
    assert_eq!(
        *fp, golden.fingerprint,
        "{label}: fingerprint moved; observed:\n{observed}"
    );
    // Not vacuous: HVC and FEC move edges, so construction carries traffic.
    let construct = stats.phase("construct").unwrap();
    assert!(
        construct.total_bytes() > 0,
        "{label}: no construct traffic to compare"
    );
}

// Recorded from the implementation before the full and delta phases
// shared their edge walks; that refactor moved none of these numbers.

#[test]
fn hvc_traffic_and_fingerprints_are_golden_unweighted() {
    let [full, delta] = run(false);
    check("full unweighted", &full, &FULL_UNWEIGHTED);
    check("delta unweighted", &delta, &DELTA_UNWEIGHTED);
}

#[test]
fn hvc_traffic_and_fingerprints_are_golden_weighted() {
    let [full, delta] = run(true);
    check("full weighted", &full, &FULL_WEIGHTED);
    check("delta weighted", &delta, &DELTA_WEIGHTED);
}

// Recorded from the implementation that still sorted and deduplicated the
// master requests and mirror lists and kept remote masters in a hash map.

#[test]
fn fec_traffic_and_fingerprints_are_golden_unweighted() {
    check("FEC unweighted", &run_fec(false), &FEC_UNWEIGHTED);
}

#[test]
fn fec_traffic_and_fingerprints_are_golden_weighted() {
    check("FEC weighted", &run_fec(true), &FEC_WEIGHTED);
}

const FEC_UNWEIGHTED: Golden = Golden {
    traffic: &[
        ("(untagged)", ZERO, ZERO),
        ("read", ZERO, ZERO),
        (
            "master",
            [
                0, 9786, 10670, 11046, 8986, 0, 10958, 11506, 9878, 10970, 0, 12770, 10282, 11562,
                12770, 0,
            ],
            [0, 11, 11, 11, 11, 0, 11, 11, 11, 11, 0, 11, 11, 11, 11, 0],
        ),
        (
            "edge_assign",
            [
                0, 14269, 12925, 12465, 14341, 0, 14425, 14117, 16637, 17509, 0, 16957, 17249,
                17181, 17561, 0,
            ],
            [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
        ),
        ("alloc", ZERO, ZERO),
        (
            "construct",
            [
                0, 14816, 12000, 11008, 12040, 0, 11264, 11256, 14036, 14596, 0, 14092, 13704,
                13252, 14008, 0,
            ],
            [
                0, 144, 122, 123, 131, 0, 121, 120, 152, 150, 0, 146, 149, 137, 150, 0,
            ],
        ),
    ],
    fingerprint: 0x900916589a61aa94,
};
const FEC_WEIGHTED: Golden = Golden {
    traffic: &[
        ("(untagged)", ZERO, ZERO),
        ("read", ZERO, ZERO),
        (
            "master",
            [
                0, 9786, 10670, 11046, 8986, 0, 10958, 11506, 9878, 10970, 0, 12770, 10282, 11562,
                12770, 0,
            ],
            [0, 11, 11, 11, 11, 0, 11, 11, 11, 11, 0, 11, 11, 11, 11, 0],
        ),
        (
            "edge_assign",
            [
                0, 14269, 12925, 12465, 14341, 0, 14425, 14117, 16637, 17509, 0, 16957, 17249,
                17181, 17561, 0,
            ],
            [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
        ),
        ("alloc", ZERO, ZERO),
        (
            "construct",
            [
                0, 27512, 22056, 20072, 22024, 0, 20680, 20624, 25728, 26920, 0, 25952, 25048,
                24240, 25664, 0,
            ],
            [
                0, 194, 178, 176, 185, 0, 168, 164, 200, 206, 0, 199, 215, 206, 211, 0,
            ],
        ),
    ],
    fingerprint: 0xf04300ac91d24cc8,
};

const FULL_UNWEIGHTED: Golden = Golden {
    traffic: &[
        ("(untagged)", ZERO, ZERO),
        ("read", ZERO, ZERO),
        ("master", ZERO, ZERO),
        (
            "edge_assign",
            [
                0, 4805, 4805, 4805, 4597, 0, 4597, 4597, 5241, 5241, 0, 5241, 5425, 5425, 5425, 0,
            ],
            [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
        ),
        ("alloc", ZERO, ZERO),
        (
            "construct",
            [
                0, 2128, 2568, 2504, 1544, 0, 2040, 1968, 636, 724, 0, 924, 740, 796, 936, 0,
            ],
            [0, 2, 2, 2, 8, 0, 8, 8, 6, 6, 0, 6, 5, 5, 5, 0],
        ),
    ],
    fingerprint: 0x939de92e2f5a6807,
};
const DELTA_UNWEIGHTED: Golden = Golden {
    traffic: &[
        ("(untagged)", ZERO, ZERO),
        ("read", ZERO, ZERO),
        (
            "edge_assign",
            [0, 33, 33, 33, 65, 0, 81, 81, 49, 57, 0, 57, 49, 49, 57, 0],
            [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
        ),
        ("alloc", ZERO, ZERO),
        (
            "construct",
            [
                0, 88, 96, 284, 104, 0, 152, 280, 52, 72, 0, 132, 336, 344, 404, 0,
            ],
            [0, 1, 1, 2, 2, 0, 2, 4, 1, 1, 0, 2, 2, 2, 2, 0],
        ),
    ],
    fingerprint: 0x2d3303b5a9669ec8,
};
const FULL_WEIGHTED: Golden = Golden {
    traffic: &[
        ("(untagged)", ZERO, ZERO),
        ("read", ZERO, ZERO),
        ("master", ZERO, ZERO),
        (
            "edge_assign",
            [
                0, 4805, 4805, 4805, 4597, 0, 4597, 4597, 5241, 5241, 0, 5241, 5425, 5425, 5425, 0,
            ],
            [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
        ),
        ("alloc", ZERO, ZERO),
        (
            "construct",
            [
                0, 4240, 5120, 4992, 3024, 0, 4016, 3872, 1224, 1400, 0, 1800, 1440, 1552, 1832, 0,
            ],
            [0, 2, 2, 2, 8, 0, 8, 8, 6, 6, 0, 6, 5, 5, 5, 0],
        ),
    ],
    fingerprint: 0xde9a0c4491f3ee45,
};
const DELTA_WEIGHTED: Golden = Golden {
    traffic: &[
        ("(untagged)", ZERO, ZERO),
        ("read", ZERO, ZERO),
        (
            "edge_assign",
            [0, 33, 33, 33, 65, 0, 81, 81, 41, 57, 0, 65, 49, 41, 57, 0],
            [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
        ),
        ("alloc", ZERO, ZERO),
        (
            "construct",
            [
                0, 264, 832, 688, 152, 0, 672, 616, 64, 112, 0, 272, 376, 304, 536, 0,
            ],
            [0, 2, 2, 2, 2, 0, 7, 5, 1, 2, 0, 4, 3, 2, 3, 0],
        ),
    ],
    fingerprint: 0xc49262b31865fb26,
};

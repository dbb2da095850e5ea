//! Delta repartitioning equals a full re-partition across the output
//! orientation, edge data, host counts and chunk streaming.
//!
//! Every case partitions a base graph, applies a seeded batch, and runs
//! both `partition_delta_with_policy` against the previous partition and a
//! from-scratch `partition_with_policy` of the mutated graph. Under
//! `deterministic_sync` the two must be fingerprint-identical. CSR cases
//! also run the full invariant oracle through `check_delta_equivalence`,
//! which reads partitions as CSR; CSC cases rely on the fingerprint, which
//! covers every stored array of the transposed partitions.

use std::sync::Arc;

use cusp::{
    check_delta_equivalence, partition_delta_with_policy, partition_fingerprint,
    partition_with_policy, CuspConfig, DistGraph, GraphSource, OutputFormat, PartitionOutput,
    PolicyKind,
};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::wal::seeded_batch;
use cusp_graph::Csr;
use cusp_net::Cluster;

const HOSTS: [usize; 3] = [1, 3, 4];
const OUTPUTS: [OutputFormat; 2] = [OutputFormat::Csr, OutputFormat::Csc];
const CHUNKS: [Option<u64>; 2] = [None, Some(64)];

fn parts(outs: &[PartitionOutput]) -> Vec<DistGraph> {
    outs.iter().map(|o| o.dist_graph.clone()).collect()
}

fn source(g: &Arc<Csr>, w: &Option<Arc<Vec<u32>>>) -> GraphSource {
    match w {
        Some(w) => GraphSource::MemoryWeighted(g.clone(), w.clone()),
        None => GraphSource::Memory(g.clone()),
    }
}

fn matrix(kind: PolicyKind, seed: u64) {
    for weighted in [false, true] {
        let graph = Arc::new(erdos_renyi(160, 1000, seed));
        let weights = weighted.then(|| {
            Arc::new(
                (0..graph.num_edges())
                    .map(|i| (i as u32).wrapping_mul(2_654_435_761))
                    .collect(),
            )
        });
        let batch = seeded_batch(&graph, weighted, seed ^ 0xDE17A, 24);
        let applied = graph
            .apply_batch(weights.as_deref().map(|w: &Vec<u32>| w.as_slice()), &batch)
            .expect("batch applies");
        let mutated = Arc::new(applied.graph);
        let mutated_w = applied.weights.map(Arc::new);
        let (base_src, mutated_src) = (source(&graph, &weights), source(&mutated, &mutated_w));

        for hosts in HOSTS {
            for output in OUTPUTS {
                for chunk_edges in CHUNKS {
                    let label = format!(
                        "{kind:?} hosts {hosts} {output:?} weighted {weighted} chunk {chunk_edges:?}"
                    );
                    let cfg = CuspConfig {
                        threads_per_host: 1,
                        deterministic_sync: true,
                        output,
                        chunk_edges,
                        ..CuspConfig::default()
                    };
                    let full_run = |src: &GraphSource| {
                        Cluster::run(hosts, |comm| {
                            partition_with_policy(comm, src.clone(), kind, &cfg)
                        })
                        .results
                    };
                    let prevs = full_run(&base_src);
                    let full = parts(&full_run(&mutated_src));
                    let delta = Cluster::run(hosts, |comm| {
                        partition_delta_with_policy(
                            comm,
                            mutated_src.clone(),
                            kind,
                            &cfg,
                            &prevs[comm.host()],
                            &batch,
                        )
                    })
                    .results;
                    assert!(
                        delta.iter().map(|o| o.reused_edges).sum::<u64>() > 0,
                        "{label}: delta reused no edges"
                    );
                    let delta = parts(&delta);
                    assert_eq!(
                        partition_fingerprint(&delta),
                        partition_fingerprint(&full),
                        "{label}: delta diverged from the full re-partition"
                    );
                    if output == OutputFormat::Csr {
                        let v = check_delta_equivalence(
                            &mutated,
                            mutated_w.as_deref().map(|w| w.as_slice()),
                            &delta,
                            &full,
                            true,
                        );
                        assert!(v.is_empty(), "{label}: {v:#?}");
                    }
                }
            }
        }
    }
}

#[test]
fn eec_delta_matches_full_across_orientation_weights_and_chunks() {
    matrix(PolicyKind::Eec, 5);
}

#[test]
fn hvc_delta_matches_full_across_orientation_weights_and_chunks() {
    matrix(PolicyKind::Hvc, 17);
}

#[test]
fn cvc_delta_matches_full_across_orientation_weights_and_chunks() {
    matrix(PolicyKind::Cvc, 41);
}

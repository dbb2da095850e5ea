//! Seeded inputs. The benchmark derives every graph and mutation batch
//! from `--seed`, so the same seed gives bit-identical inputs; the
//! program under test only ever sees the generated data.

use cusp_graph::gen::powerlaw::{powerlaw, PowerLawConfig};
use cusp_graph::wal::seeded_batch;
use cusp_graph::{Csr, GraphEvent};

/// Average out-degree of every generated graph.
pub const AVG_DEGREE: f64 = 20.0;
/// Mutation batches carry one event per this many edges (0.5%).
pub const EDGES_PER_EVENT: u64 = 200;

/// Mixes a run seed with a stream id (tenant, batch sequence) so distinct
/// streams of one run get unrelated seeds.
pub fn derive(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded web-crawl-like power-law graph.
pub fn webcrawl(nodes: usize, seed: u64) -> Csr {
    powerlaw(PowerLawConfig::webcrawl(nodes, AVG_DEGREE, seed))
}

/// Mutation batch `index` of stream `seed` against `graph`: 0.5% of its
/// edges, half additions and half removals of existing edges.
pub fn batch(graph: &Csr, seed: u64, index: u64) -> Vec<GraphEvent> {
    let events = (graph.num_edges() / EDGES_PER_EVENT) as usize;
    seeded_batch(graph, false, derive(seed, index), events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for nodes in [
            crate::workloads::cvc_stream::NODES,
            crate::workloads::fec_tcp::NODES,
            crate::workloads::serve_mixed::NODES,
            crate::workloads::delta_hvc::NODES,
        ] {
            let (a, b, c) = (webcrawl(nodes, 7), webcrawl(nodes, 7), webcrawl(nodes, 8));
            assert_eq!(
                (a.offsets(), a.dests()),
                (b.offsets(), b.dests()),
                "{nodes} nodes"
            );
            assert_ne!(
                a.dests(),
                c.dests(),
                "seeds 7 and 8 gave the same {nodes}-node graph"
            );
            let batch_a = batch(&a, 7, 3);
            assert_eq!(batch_a, batch(&b, 7, 3));
            assert_ne!(batch_a, batch(&a, 7, 4));
            assert_ne!(batch_a, batch(&a, 8, 3));
            assert_eq!(batch_a.len() as u64, a.num_edges() / EDGES_PER_EVENT);
        }
    }

    #[test]
    fn derived_streams_differ() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }
}

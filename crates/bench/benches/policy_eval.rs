//! Per-edge cost of each `getEdgeOwner` and per-node cost of each
//! `getMaster` rule — the inner loops of edge assignment and master
//! assignment.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use cusp::phases::master::RemoteMasters;
use cusp::policies::{CartesianEdge, ContiguousEB, FennelEB, HybridEdge, SourceEdge};
use cusp::policy::{EdgeRule, MasterRule, MasterView, Setup};
use cusp::props::LocalProps;
use cusp::state::{LoadState, PartitionState};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::{reading_split, GraphSlice, Node};

fn setup_for(graph: &cusp_graph::Csr, k: u32) -> Setup {
    let ends: Vec<u64> = graph.offsets()[1..].to_vec();
    let splits = reading_split(&ends, k as usize, 0, 1);
    let eb: Vec<u64> = std::iter::once(0)
        .chain(splits.iter().map(|s| s.hi))
        .collect();
    Setup {
        num_nodes: graph.num_nodes() as u64,
        num_edges: graph.num_edges(),
        parts: k,
        eb_boundaries: Arc::new(eb),
        read_splits: Arc::new(splits),
    }
}

fn bench_edge_rules(c: &mut Criterion) {
    let graph = erdos_renyi(10_000, 160_000, 1);
    let k = 16u32;
    let setup = setup_for(&graph, k);
    let slice = GraphSlice::from_csr(&graph, 0, graph.num_nodes() as Node);
    let prop = LocalProps::new(setup.num_nodes, setup.num_edges, k, &slice);
    let edges: Vec<(Node, Node)> = graph.iter_edges().collect();

    let mut group = c.benchmark_group("edge_rule_per_edge");
    group.bench_function("source", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(u, v) in &edges {
                acc += SourceEdge.get_edge_owner(&prop, u, v, u % k, v % k, &()) as u64;
            }
            black_box(acc)
        });
    });
    let hybrid = HybridEdge::paper_default();
    group.bench_function("hybrid", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(u, v) in &edges {
                acc += hybrid.get_edge_owner(&prop, u, v, u % k, v % k, &()) as u64;
            }
            black_box(acc)
        });
    });
    let cartesian = CartesianEdge::new(&setup);
    group.bench_function("cartesian", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(u, v) in &edges {
                acc += cartesian.get_edge_owner(&prop, u, v, u % k, v % k, &()) as u64;
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_master_rules(c: &mut Criterion) {
    let graph = erdos_renyi(10_000, 160_000, 2);
    let k = 16u32;
    let setup = setup_for(&graph, k);
    let slice = GraphSlice::from_csr(&graph, 0, graph.num_nodes() as Node);
    let prop = LocalProps::new(setup.num_nodes, setup.num_edges, k, &slice);

    let mut group = c.benchmark_group("master_rule_per_node");
    let eb = ContiguousEB::new(&setup);
    group.bench_function("contiguous_eb", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..graph.num_nodes() as Node {
                acc += eb.pure_master(v) as u64;
            }
            black_box(acc)
        });
    });
    let fennel = FennelEB::new(&setup);
    group.bench_function("fennel_eb", |b| {
        use std::sync::atomic::AtomicU32;
        let local: Vec<AtomicU32> = (0..graph.num_nodes())
            .map(|_| AtomicU32::new(cusp::policy::UNASSIGNED))
            .collect();
        let remote = RemoteMasters::new(Vec::new());
        b.iter(|| {
            let state = LoadState::new(k);
            let view = MasterView::Stored {
                lo: 0,
                local: &local,
                remote: &remote,
            };
            let mut acc = 0u64;
            for v in 0..graph.num_nodes() as Node {
                acc += fennel.get_master(&prop, v, &state, &view) as u64;
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_edge_rules, bench_master_rules);
criterion_main!(benches);

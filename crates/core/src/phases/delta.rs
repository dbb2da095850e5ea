//! Incremental (delta) repartitioning: maintain a partition under a
//! mutation batch instead of rebuilding it from scratch.
//!
//! A partition produced by [`partition`] is a pure function of the input
//! graph and the policy. When the graph mutates (a [`GraphEvent`] batch
//! from the WAL), most of that function's inputs are unchanged: a vertex
//! whose out-edges, master, and weights did not move keeps exactly the
//! partition-side state it had. [`partition_delta`] exploits this by
//! re-running only master re-resolution, edge assignment, and construction
//! for the *dirty* vertices, while every clean vertex keeps its master,
//! its mirrors, and its CSR slots — clean edges are copied out of the
//! previous partition instead of being re-decided and re-shipped.
//!
//! # Dirty-set rules
//!
//! A vertex is dirty when any of its partitioning inputs changed:
//!
//! * it is the **source of a batch event** (its out-degree or out-edge
//!   payload changed, so degree-sensitive rules like `Hybrid` may re-decide
//!   *all* of its edges);
//! * it is a **new vertex** (`old_n..new_n` — it had no master before);
//! * its **pure master moved** (edge-balanced boundaries shift with the
//!   edge distribution, so a mutation can re-home vertices far from the
//!   batch).
//!
//! An *edge* is dirty iff either endpoint is dirty. This is sound because
//! every stateless edge rule in the catalog is a function of
//! `(out_degree(src), src_master, dst_master, parts)` only — all four are
//! unchanged for a clean edge, so its owner (and the mirrors it induces)
//! cannot move.
//!
//! # Scope
//!
//! The delta path requires a **pure master rule** (re-resolution is
//! replicated computation, §IV-D5) and a **stateless edge rule** (per-edge
//! decisions independent of history). Stateful policies (HDRF, LDG,
//! Fennel-family masters) fall back to a full re-partition — still
//! correct, and under `deterministic_sync` still fingerprint-identical,
//! just not incremental.
//!
//! Under `CuspConfig::deterministic_sync` the delta result is
//! bit-identical to a full re-partition of the mutated graph: the per-host
//! per-source edge multiset is reproduced exactly (kept edges keep their
//! owners, dirty edges are re-decided with the same inputs a full run
//! would use), allocation assigns local ids deterministically from that
//! multiset, and the canonical adjacency sort erases insertion order.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use cusp_galois::{do_all_with_tid, PerThread, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::{Csr, GraphEvent, Node};
use cusp_net::{Comm, WireReader, WireWriter};

use crate::config::OutputFormat;
use crate::dist_graph::{DistGraph, PartitionClass};
use crate::phases::alloc::{AllocOutcome, MasterSpec};
use crate::phases::bitset::DenseBitset;
use crate::phases::construct::{finish, route_edges, Slots};
use crate::phases::driver::{partition, PartitionOutput};
use crate::phases::edge_assign::{tally_edges, EdgeAssignOutcome};
use crate::phases::master::pure_masters;
use crate::phases::pipeline::{
    AllocPhase, EdgeFilter, EdgeWalk, Phase, PhaseCtx, ReadPhase, SliceData,
};
use crate::policy::{EdgeRule, MasterRule, Setup};
use crate::state::PartitionState;
use crate::tags::{META_EMPTY, META_FULL, TAG_EDGE_META};
use crate::{CuspConfig, GraphSource, PartId};

/// Dense bitset over global vertex ids marking the dirty set.
pub struct DirtySet(DenseBitset);

impl DirtySet {
    /// Is global vertex `v` dirty?
    #[inline]
    pub fn contains(&self, v: Node) -> bool {
        self.0.contains(v as usize)
    }

    /// Number of dirty vertices.
    pub fn len(&self) -> u64 {
        self.0.count()
    }

    /// True when no vertex is dirty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The delta walk: an edge is re-decided iff either endpoint is dirty.
impl EdgeFilter for DirtySet {
    #[inline]
    fn all_of(&self, s: Node) -> bool {
        self.contains(s)
    }
    #[inline]
    fn admits(&self, d: Node) -> bool {
        self.contains(d)
    }
}

/// Calls `f(row, others, data)` once per row of `prev` that keeps an edge
/// (both endpoints clean), in parallel over the rows: `row` is the row's
/// global id, `others` the global ids at the far end of its kept edges,
/// and `data` their edge data when `prev` is weighted. Rows are sources in
/// a CSR partition and destinations in a CSC one (`OutputFormat::Csc`).
fn for_each_kept_row(
    pool: &ThreadPool,
    prev: &DistGraph,
    dirty: &DirtySet,
    f: impl Fn(Node, &[Node], Option<&[u32]>) + Sync,
) {
    let scratch: PerThread<(Vec<Node>, Vec<u32>)> = PerThread::new(pool, |_| Default::default());
    do_all_with_tid(pool, prev.num_local(), DEFAULT_GRAIN, |tid, row| {
        let edges = prev.graph.edges(row as Node);
        if edges.is_empty() {
            return;
        }
        let g_row = prev.local2global[row];
        if dirty.contains(g_row) {
            return; // every edge of a dirty row has a dirty endpoint
        }
        let e0 = prev.graph.first_edge(row as Node) as usize;
        scratch.with(tid, |(others, ws)| {
            others.clear();
            ws.clear();
            for (i, &other) in edges.iter().enumerate() {
                let g_other = prev.local2global[other as usize];
                if dirty.contains(g_other) {
                    continue;
                }
                others.push(g_other);
                if let Some(d) = &prev.edge_data {
                    ws.push(d[e0 + i]);
                }
            }
            if !others.is_empty() {
                f(g_row, others, prev.edge_data.as_ref().map(|_| ws.as_slice()));
            }
        });
    });
}

/// Computes the dirty set for `batch` against the old/new pure master
/// rules (see the module docs for the three dirty-set rules). Every host
/// computes an identical set — the inputs are all replicated.
pub fn dirty_set<MR: MasterRule>(
    old_rule: &MR,
    new_rule: &MR,
    old_n: u64,
    new_n: u64,
    parts: PartId,
    batch: &[GraphEvent],
) -> DirtySet {
    debug_assert!(new_n >= old_n, "graphs never shrink under a WAL batch");
    let dirty = DenseBitset::new(new_n as usize);
    let insert_range = |r: std::ops::Range<Node>| r.for_each(|v| dirty.insert(v as usize));
    for ev in batch {
        dirty.insert(ev.src() as usize);
    }
    insert_range(old_n as Node..new_n as Node);
    // Master shifts: a vertex whose new owner differs from its old owner.
    // Both rules assign contiguous per-part ranges, so the shifted vertices
    // are interval differences — `new_range(p) \ old_range(p)` per part
    // covers every shifted vertex exactly once (each vertex has one new
    // owner). Vertices beyond `old_n` are already dirty via the range rule.
    for p in 0..parts {
        let old_r = old_rule.pure_owned_range(p);
        let new_r = new_rule.pure_owned_range(p);
        if old_r == new_r {
            continue;
        }
        insert_range(new_r.start..new_r.end.min(old_r.start.max(new_r.start)));
        insert_range(old_r.end.max(new_r.start).min(new_r.end)..new_r.end);
    }
    DirtySet(dirty)
}

/// Output of the delta edge-assignment phase: the synthesized
/// [`EdgeAssignOutcome`] plus the number of clean edges this host reuses
/// from its previous partition.
struct DeltaAssignOutcome {
    ea: EdgeAssignOutcome,
    reused_edges: u64,
}

/// Delta edge assignment: tallies kept (clean) edges from the previous
/// partition locally and exchanges only the dirty-edge metadata — sparse
/// `(src, count)` pairs instead of the full positional count vectors.
struct DeltaAssignPhase<'a, ER: EdgeRule> {
    walk: &'a EdgeWalk<'a, ER>,
    prev: &'a DistGraph,
    prev_csc: bool,
    dirty: &'a DirtySet,
}

impl<'a, ER: EdgeRule> Phase for DeltaAssignPhase<'a, ER> {
    const NAME: &'static str = "edge_assign";
    type Input = &'a mut SliceData;
    type Output = DeltaAssignOutcome;

    fn run(self, ctx: &mut PhaseCtx<'_>, data: &'a mut SliceData) -> DeltaAssignOutcome {
        let comm = ctx.comm;
        let me = comm.host();
        let k = comm.num_hosts();
        let lo = data.node_lo();
        let local_n = data.num_nodes();
        let masters = self.walk.masters;
        let dirty = self.dirty;

        // --- Kept (clean) edges from the previous partition. -------------
        // Both endpoints clean ⇒ the edge's owner is unchanged ⇒ it stays
        // on this host. Positional tallies sized by the (replicated) global
        // node count keep the walk a lock-free parallel pass: `incoming[v]`
        // counts kept edges sourced at `v`, `mirror_bits` marks proxies
        // mastered elsewhere (deduplication by construction — no sort).
        let n_glob = self.walk.setup.num_nodes as usize;
        let incoming: Vec<AtomicU32> = (0..n_glob).map(|_| AtomicU32::new(0)).collect();
        let mirror_bits = DenseBitset::new(n_glob);
        let mark_mirror = |v: Node| mirror_bits.insert(v as usize);
        let csc = self.prev_csc;
        let reused_total = AtomicU64::new(0);
        for_each_kept_row(&ctx.pool, self.prev, dirty, |row, others, _| {
            reused_total.fetch_add(others.len() as u64, Ordering::Relaxed);
            if !csc {
                // Row is the source: one tally update covers the whole run.
                incoming[row as usize].fetch_add(others.len() as u32, Ordering::Relaxed);
                for &d in others {
                    if masters.of(d) as usize != me {
                        mark_mirror(d);
                    }
                }
            } else {
                // Row is the destination: tally each stored source; the
                // mirror check applies to the row itself, once.
                for &s in others {
                    incoming[s as usize].fetch_add(1, Ordering::Relaxed);
                }
                if masters.of(row) as usize != me {
                    mark_mirror(row);
                }
            }
        });
        let reused_edges = reused_total.load(Ordering::Relaxed);

        // --- Dirty edges from the mutated slice (local tally). ------------
        // The full phase's tally, walking only edges with a dirty endpoint.
        let tally = tally_edges(&ctx.pool, data, self.walk, dirty);
        let counts = &tally.counts;
        let mirrors_for: Vec<Vec<Node>> =
            (0..k).map(|h| tally.mirrors_of(h as PartId).collect()).collect();

        // --- Exchange dirty-edge metadata (sparse pairs + mirror ids). ----
        // Masters are pure, so receivers recompute them; only ids travel.
        for peer in 0..k {
            if peer == me {
                continue;
            }
            let count_slice = &counts[peer * local_n..(peer + 1) * local_n];
            let mut pairs: Vec<u32> = Vec::new();
            for (i, c) in count_slice.iter().enumerate() {
                let c = c.load(Ordering::Relaxed);
                if c > 0 {
                    pairs.push(lo + i as Node);
                    pairs.push(c);
                }
            }
            if pairs.is_empty() && mirrors_for[peer].is_empty() {
                let mut w = WireWriter::with_capacity(1);
                w.put_u8(META_EMPTY);
                comm.send_bytes(peer, TAG_EDGE_META, w.finish());
                continue;
            }
            let mut w = WireWriter::with_capacity(pairs.len() * 4 + mirrors_for[peer].len() * 4 + 32);
            w.put_u8(META_FULL);
            w.put_u64((pairs.len() / 2) as u64);
            w.put_u32_raw_slice(&pairs);
            w.put_u64(mirrors_for[peer].len() as u64);
            w.put_u32_raw_slice(&mirrors_for[peer]);
            comm.send_bytes(peer, TAG_EDGE_META, w.finish());
        }

        // --- Local dirty contributions (h == me). -------------------------
        let my_counts = &counts[me * local_n..(me + 1) * local_n];
        for (i, c) in my_counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                incoming[(lo + i as Node) as usize].fetch_add(c, Ordering::Relaxed);
            }
        }
        for &d in &mirrors_for[me] {
            mark_mirror(d);
        }

        // --- Receive peer dirty metadata. ---------------------------------
        let mut to_receive = 0u64;
        for _ in 0..k.saturating_sub(1) {
            let (_src, payload) = comm.recv_any(TAG_EDGE_META);
            let mut r = WireReader::new(payload);
            let kind = r.get_u8().expect("empty delta metadata message");
            if kind == META_EMPTY {
                continue;
            }
            let np = r.get_u64().expect("malformed delta pair count") as usize;
            let mut pairs = vec![0u32; np * 2];
            r.get_u32_into(&mut pairs).expect("malformed delta pairs");
            for pair in pairs.chunks_exact(2) {
                let (s, c) = (pair[0], pair[1]);
                incoming[s as usize].fetch_add(c, Ordering::Relaxed);
                to_receive += c as u64;
            }
            let nm = r.get_u64().expect("malformed delta mirror count") as usize;
            let mut run = vec![0u32; nm];
            r.get_u32_into(&mut run).expect("malformed delta mirrors");
            for d in run {
                mark_mirror(d);
            }
        }

        // --- Synthesize the outcome allocation consumes. ------------------
        // Both tallies are positional, so scanning them yields the sorted
        // vectors directly — no hash drain, no sort, no dedup.
        let mut incoming_srcs: Vec<(Node, u32, PartId)> = Vec::new();
        for (v, c) in incoming.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                incoming_srcs.push((v as Node, c, masters.of(v as Node)));
            }
        }
        let mirrors: Vec<(Node, PartId)> = mirror_bits
            .ones()
            .map(|v| (v as Node, masters.of(v as Node)))
            .collect();

        DeltaAssignOutcome {
            ea: EdgeAssignOutcome {
                incoming_srcs,
                mirrors,
                my_master_nodes: None,
                to_receive,
            },
            reused_edges,
        }
    }
}

/// Delta construction: copies kept edges out of the previous partition
/// (no decision, no communication), then routes only dirty edges through
/// the full phase's loop — byte-identical record format.
struct DeltaConstructPhase<'a, ER: EdgeRule> {
    walk: &'a EdgeWalk<'a, ER>,
    prev: &'a DistGraph,
    prev_csc: bool,
    dirty: &'a DirtySet,
    to_receive: u64,
}

impl<'a, ER: EdgeRule> Phase for DeltaConstructPhase<'a, ER> {
    const NAME: &'static str = "construct";
    type Input = (&'a mut SliceData, &'a mut AllocOutcome);
    type Output = (Csr, Option<Vec<u32>>);

    fn run(self, ctx: &mut PhaseCtx<'_>, (data, alloc): Self::Input) -> Self::Output {
        debug_assert_eq!(data.weighted(), alloc.edge_data.is_some());
        debug_assert_eq!(data.weighted(), self.prev.edge_data.is_some());
        let slots = Slots::new(alloc);

        // Copy kept edges: pure memory movement into the freshly reserved
        // slots — no rule, no wire.
        let csc = self.prev_csc;
        for_each_kept_row(&ctx.pool, self.prev, self.dirty, |row, others, ws| {
            if !csc {
                // Row is the source: its kept run is one record.
                slots.insert_record(row, others, ws);
            } else {
                // Row is the destination: each stored source is a record.
                for (i, &s) in others.iter().enumerate() {
                    slots.insert_record(s, std::slice::from_ref(&row), ws.map(|w| &w[i..=i]));
                }
            }
        });

        route_edges(
            ctx.comm,
            &ctx.pool,
            data,
            self.walk,
            self.dirty,
            &slots,
            self.to_receive,
            ctx.cfg,
        );
        finish(alloc, ctx.cfg)
    }
}

/// Incrementally repartitions a mutated graph against the previous run.
///
/// `source` must be the **mutated** graph (the previous input with `batch`
/// applied, e.g. via [`cusp_graph::Csr::apply_batch`]); `prev` is this
/// host's output from the previous [`partition`] (or `partition_delta`)
/// run over the pre-mutation graph, and `batch` the applied events —
/// identical on every host. `build` must be the same deterministic policy
/// constructor the previous run used; it is evaluated against both the old
/// and the new [`Setup`].
///
/// Policies with a stateful edge rule or a non-pure master rule (and runs
/// with `force_stored_masters`) fall back to a full re-partition; the
/// returned accounting (`dirty_vertices == num_nodes`,
/// `reused_edges == 0`) makes the fallback observable.
///
/// Under `deterministic_sync` the result is bit-identical (same
/// [`crate::verify::partition_fingerprint`]) to a full re-partition of the
/// mutated graph.
pub fn partition_delta<MR, ER>(
    comm: &Comm,
    source: GraphSource,
    cfg: &CuspConfig,
    class: PartitionClass,
    build: impl Fn(&Setup) -> (MR, ER),
    prev: &PartitionOutput,
    batch: &[GraphEvent],
) -> PartitionOutput
where
    MR: MasterRule + Clone + 'static,
    ER: EdgeRule,
{
    // Delta needs pure masters (re-resolution is replicated computation)
    // and a stateless edge rule (decisions independent of history). The
    // probe runs against the old setup — identical on every host, so all
    // hosts take the same branch.
    let (old_rule, _) = build(&prev.setup);
    if !<ER as EdgeRule>::State::STATELESS || !old_rule.is_pure() || cfg.force_stored_masters {
        return partition(comm, source, cfg, class, build);
    }

    let me = comm.host();
    let mut ctx = PhaseCtx::new(comm, cfg);

    // Phase 1: re-read the mutated graph (the slice is process memory, not
    // durable state — reading always re-runs, exactly as in the full driver).
    let read = ctx.run_phase(ReadPhase { source: &source }, ());
    let setup = read.setup;
    let mut data = read.data;
    debug_assert_eq!(setup.parts, prev.setup.parts, "host count changed between runs");

    // Phase 2 (master re-resolution) is free: the rule is pure, so the new
    // assignment is replicated computation — no protocol, no barrier.
    let (master_rule, edge_rule) = build(&setup);
    debug_assert!(master_rule.is_pure(), "policy purity changed between runs");
    let masters = pure_masters(&master_rule);

    let dirty = dirty_set(
        &old_rule,
        &master_rule,
        prev.setup.num_nodes,
        setup.num_nodes,
        setup.parts,
        batch,
    );
    let dirty_vertices = dirty.len();
    let prev_csc = cfg.output == OutputFormat::Csc;

    let estate = <ER as EdgeRule>::State::new(setup.parts);
    let walk = EdgeWalk { setup: &setup, masters: &masters, rule: &edge_rule, estate: &estate };

    // Phase 3: delta edge assignment (dirty edges decided, clean tallied).
    let d = ctx.run_phase(
        DeltaAssignPhase {
            walk: &walk,
            prev: &prev.dist_graph,
            prev_csc,
            dirty: &dirty,
        },
        &mut data,
    );

    // Phase 4: allocation — unchanged; the synthesized outcome feeds the
    // exact same deterministic local-id layout a full run would compute.
    let spec = MasterSpec::PureRange(master_rule.pure_owned_range(me as PartId));
    let mut alloc = ctx.run_phase(AllocPhase { spec, weighted: data.weighted() }, &d.ea);

    // Phase 5: delta construction (kept edges copied, dirty edges shipped).
    let (graph, edge_data) = ctx.run_phase(
        DeltaConstructPhase {
            walk: &walk,
            prev: &prev.dist_graph,
            prev_csc,
            dirty: &dirty,
            to_receive: d.ea.to_receive,
        },
        (&mut data, &mut alloc),
    );

    ctx.times.arena_hw_bytes = data.arena_hw_bytes();

    PartitionOutput {
        dist_graph: DistGraph {
            part_id: me as PartId,
            num_parts: setup.parts,
            global_nodes: setup.num_nodes,
            global_edges: setup.num_edges,
            num_masters: alloc.num_masters,
            local2global: alloc.local2global,
            master_of: alloc.master_of,
            graph,
            edge_data,
            class,
        },
        times: ctx.times,
        peak_resident_edges: data.peak_resident_edges(),
        setup,
        dirty_vertices,
        reused_edges: d.reused_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::masters::Contiguous;
    use cusp_graph::ReadSplit;
    use std::sync::Arc;

    fn setup(n: u64, parts: PartId) -> Setup {
        Setup {
            num_nodes: n,
            num_edges: 10 * n,
            parts,
            eb_boundaries: Arc::new(
                (0..=parts as u64).map(|p| p * n / parts as u64).collect(),
            ),
            read_splits: Arc::new(vec![ReadSplit { lo: 0, hi: n }]),
        }
    }

    #[test]
    fn dirty_set_marks_sources_growth_and_shifts() {
        let old = Contiguous::new(&setup(100, 4)); // blocks of 25
        let new = Contiguous::new(&setup(110, 4)); // blocks of 28
        let batch = [
            GraphEvent::AddEdge { src: 3, dst: 7, weight: None },
            GraphEvent::RemoveEdge { src: 90, dst: 1 },
        ];
        let d = dirty_set(&old, &new, 100, 110, 4, &batch);
        // Event sources.
        assert!(d.contains(3) && d.contains(90));
        // Grown range.
        for v in 100..110 {
            assert!(d.contains(v), "grown node {v} must be dirty");
        }
        // Shifted masters: old blocks 25, new blocks 28 → e.g. node 25
        // moved from part 1 to part 0; node 26 likewise.
        assert_eq!(old.pure_master(25), 1);
        assert_eq!(new.pure_master(25), 0);
        assert!(d.contains(25));
        // A node with unchanged inputs stays clean: node 5 is in part 0
        // both before and after and is not an event source.
        assert_eq!(old.pure_master(5), new.pure_master(5));
        assert!(!d.contains(5));
        assert!(d.len() >= 12);
        assert!(!d.is_empty());
    }

    #[test]
    fn dirty_set_is_empty_for_identity() {
        let rule = Contiguous::new(&setup(64, 4));
        let d = dirty_set(&rule, &rule, 64, 64, 4, &[]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        for v in 0..64 {
            assert!(!d.contains(v));
        }
    }

    #[test]
    fn kept_edge_walk_skips_dirty_endpoints_and_carries_data() {
        use crate::dist_graph::PartitionClass;
        use std::sync::Mutex;
        // Partition over globals {2, 5, 9, 7}: stored edges 2->5, 2->9,
        // 5->9, 7->2, 7->9 (CSR; under CSC the same rows read as
        // destinations, which the walk leaves to its callers).
        let graph = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0), (3, 2)]);
        let prev = DistGraph {
            part_id: 0,
            num_parts: 1,
            global_nodes: 10,
            global_edges: 5,
            num_masters: 4,
            local2global: vec![2, 5, 9, 7],
            master_of: vec![0, 0, 0, 0],
            graph,
            edge_data: Some(vec![20, 21, 22, 23, 24]),
            class: PartitionClass::OutEdgeCut,
        };
        let bits = DenseBitset::new(10);
        bits.insert(5);
        let dirty = DirtySet(bits);
        let pool = ThreadPool::new(2);
        let seen = Mutex::new(Vec::new());
        for_each_kept_row(&pool, &prev, &dirty, |row, others, ws| {
            seen.lock().unwrap().push((row, others.to_vec(), ws.map(<[u32]>::to_vec)));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        // Row 5 is dirty and 2->5 has a dirty endpoint; the rest is kept,
        // each edge with its own datum.
        assert_eq!(
            seen,
            vec![(2, vec![9], Some(vec![21])), (7, vec![2, 9], Some(vec![23, 24]))]
        );
    }
}

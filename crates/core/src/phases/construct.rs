//! Phase 5 — graph construction (paper Algorithm 4, §IV-B5, §IV-C3/D3).
//!
//! Each host re-walks its read edges, re-evaluating `getEdgeOwner` (the
//! edge-rule state was reset after edge assignment, so the replay yields
//! the same decisions). Locally owned edges are inserted directly; remote
//! edges are serialized — per worker thread, into per-destination buffers
//! — as `(src, count, dsts…)` records and flushed once a buffer crosses
//! the configured threshold (§IV-D3). Because allocation reserved exact
//! per-node slots, arriving records are inserted with a lock-free
//! fetch-add cursor; no two records ever contend for the same slots.
//!
//! The byte path is bulk end to end: destination/weight runs are encoded
//! with the wire codec's memcpy slice ops, incoming messages are sized by
//! skip-scanning record headers in O(records), and destination runs are
//! decoded straight from the received payload into the record's reserved
//! CSR slots (weights are a straight memcpy). The bytes equal an
//! element-by-element encoding of the same records; the golden traffic
//! test (`tests/golden_traffic.rs`) pins them.
//!
//! The phase has two halves, both shared with the delta path:
//! `route_edges`, the route/send/drain/insert loop over the edges an
//! `EdgeFilter` admits, and `finish`, which freezes the filled
//! allocation into the output CSR or CSC.

use std::sync::atomic::Ordering;

use cusp_galois::{do_all_items, PerThread, ThreadPool};
use cusp_graph::{Csr, Node};
use cusp_net::{Comm, SendBuffers, WireReader};

use crate::config::{CuspConfig, OutputFormat};
use crate::phases::alloc::AllocOutcome;
use crate::phases::pipeline::{for_each_source, EdgeFilter, EdgeWalk, SliceData};
use crate::policy::EdgeRule;
use crate::props::LocalProps;
use crate::tags::TAG_EDGES;

/// Routes every edge of the read range that `filter` admits to its owner:
/// owned edges go straight into `slots`, remote ones are serialized into
/// per-thread, per-destination buffers that flush at every chunk boundary,
/// and arriving records are drained and inserted until `to_receive` edges
/// have arrived. This is the only code that writes or receives edge
/// records.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_edges<ER: EdgeRule, F: EdgeFilter>(
    comm: &Comm,
    pool: &ThreadPool,
    data: &mut SliceData,
    walk: &EdgeWalk<'_, ER>,
    filter: &F,
    slots: &Slots<'_>,
    to_receive: u64,
    cfg: &CuspConfig,
) {
    let me = comm.host();
    let k = comm.num_hosts();
    let weighted = slots.weighted();
    let EdgeWalk { setup, masters, rule, estate } = *walk;

    // Per-thread send buffers and per-destination bucket scratch,
    // allocated once for the whole phase (buckets are cleared per node,
    // buffers retain their capacity across flushes).
    struct ThreadState {
        buffers: SendBuffers,
        buckets: Vec<Vec<Node>>,
        wbuckets: Vec<Vec<u32>>,
    }
    let mut threads: PerThread<ThreadState> = PerThread::new(pool, |_| ThreadState {
        buffers: SendBuffers::new(k, cfg.buffer_threshold, TAG_EDGES),
        buckets: vec![Vec::new(); k],
        wbuckets: vec![Vec::new(); k],
    });

    // Receives edge records until `to_receive` edges have arrived — or,
    // unless `block`, until nothing more is waiting — and inserts each
    // backlog; do_all_items runs one- or two-message batches inline on
    // this thread and deserializes larger ones in parallel (§IV-C3).
    let mut received = 0u64;
    let mut batch: Vec<bytes::Bytes> = Vec::new();
    let insert = |batch: &mut Vec<bytes::Bytes>| {
        do_all_items(pool, batch, 1, |payload| slots.insert_message(payload.clone()));
        batch.clear();
    };
    let mut drain = |block: bool| {
        while received < to_receive {
            let next = if block && batch.is_empty() {
                Some(comm.recv_any(TAG_EDGES))
            } else {
                comm.try_recv_any(TAG_EDGES)
            };
            match next {
                Some((_src, payload)) => {
                    received += edges_in(&payload, weighted);
                    batch.push(payload);
                }
                None if block => insert(&mut batch),
                None => break,
            }
        }
        insert(&mut batch);
        received
    };

    // The source edges stream through one bounded chunk at a time (a whole
    // slice is a single chunk): replay, flush, and opportunistically drain
    // per chunk, so resident edge state stays O(chunk) end to end.
    data.for_each_chunk(|chunk| {
        let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, chunk);
        let process = |tid: usize, j: usize| {
            let s = chunk.node_lo + j as Node;
            let edges = chunk.edges(s);
            if edges.is_empty() {
                return;
            }
            let all = filter.all_of(s);
            let sm = masters.of(s);
            let edge_data = chunk.edge_data(s);
            threads.with(tid, |ts| {
                for b in ts.buckets.iter_mut() {
                    b.clear();
                }
                for b in ts.wbuckets.iter_mut() {
                    b.clear();
                }
                for (i, &d) in edges.iter().enumerate() {
                    if !all && !filter.admits(d) {
                        continue;
                    }
                    let dm = masters.of(d);
                    let h = rule.get_edge_owner(&prop, s, d, sm, dm, estate);
                    ts.buckets[h as usize].push(d);
                    if let Some(data) = edge_data {
                        ts.wbuckets[h as usize].push(data[i]);
                    }
                }
                for (h, bucket) in ts.buckets.iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let wbucket = weighted.then(|| ts.wbuckets[h].as_slice());
                    if h == me {
                        slots.insert_record(s, bucket, wbucket);
                    } else {
                        ts.buffers.record(comm, h, |w| {
                            w.put_u32(s);
                            w.put_u32(bucket.len() as u32);
                            w.put_u32_raw_slice(bucket);
                            if let Some(ws) = wbucket {
                                w.put_u32_raw_slice(ws);
                            }
                        });
                    }
                }
            });
        };
        // Same node order as edge assignment: a stateful rule's replay
        // repeats its decisions.
        for_each_source::<ER::State>(pool, chunk.num_nodes(), process);

        // Flush residual buffers from every thread, so in-flight serialized
        // edges never accumulate beyond the chunk just processed.
        for ts in threads.iter_mut() {
            ts.buffers.flush_all(comm);
        }
        // Drain records that already arrived, so the receive queue cannot
        // grow to hold a whole remote slice.
        drain(false);
    });
    drop(threads);

    // Block for the remaining edge records.
    let received = drain(true);
    assert_eq!(received, to_receive, "received more edges than expected");
}

/// Freezes a filled allocation into the phase output: checks that every
/// reserved slot was written, sorts each adjacency under
/// `deterministic_sync`, and returns the CSR — or its in-memory CSC
/// transpose — with the aligned edge data.
pub(crate) fn finish(alloc: &mut AllocOutcome, cfg: &CuspConfig) -> (Csr, Option<Vec<u32>>) {
    for (l, cursor) in alloc.cursors.iter().enumerate() {
        assert_eq!(
            cursor.load(Ordering::Relaxed),
            alloc.offsets[l + 1],
            "node with local id {l} is missing edges after construction"
        );
    }

    let mut dests = std::mem::take(&mut alloc.dests);
    let mut data = alloc.edge_data.take();
    if cfg.deterministic_sync {
        // Slots within a node's range are claimed in arrival/thread order,
        // which varies run to run. A canonical per-node adjacency order
        // (destination, then weight) makes the frozen CSR — and its CSC
        // transpose — a pure function of the assignment, fulfilling the
        // bit-identical determinism contract.
        sort_adjacency(&alloc.offsets, &mut dests, data.as_deref_mut());
    }
    let csr = Csr::from_parts(alloc.offsets.clone(), dests);
    match (cfg.output, data) {
        (OutputFormat::Csr, data) => (csr, data),
        // "each host performs an in-memory transpose of their CSR graph to
        // construct (without communication) their CSC graph" (Alg. 4).
        (OutputFormat::Csc, None) => (csr.transpose(), None),
        (OutputFormat::Csc, Some(data)) => {
            let (t, td) = csr.transpose_with_data(&data);
            (t, Some(td))
        }
    }
}

/// Sorts each node's adjacency slice (keeping per-edge data aligned) into
/// (destination, weight) order.
fn sort_adjacency(offsets: &[u64], dests: &mut [Node], mut data: Option<&mut [u32]>) {
    for l in 0..offsets.len() - 1 {
        let (s, e) = (offsets[l] as usize, offsets[l + 1] as usize);
        match data.as_deref_mut() {
            None => dests[s..e].sort_unstable(),
            Some(d) => {
                let mut pairs: Vec<(Node, u32)> =
                    dests[s..e].iter().copied().zip(d[s..e].iter().copied()).collect();
                pairs.sort_unstable();
                for (i, (dst, w)) in pairs.into_iter().enumerate() {
                    dests[s + i] = dst;
                    d[s + i] = w;
                }
            }
        }
    }
}

/// Shared write access to an allocation's reserved CSR slots, so pool
/// workers can fill disjoint slot ranges concurrently: each record claims
/// its range with a fetch-add on its source's cursor.
pub(crate) struct Slots<'a> {
    alloc: &'a AllocOutcome,
    dests: *mut Node,
    /// Null when the allocation carries no edge data.
    data: *mut u32,
}

// SAFETY: `alloc` is a shared reference to a type whose shared state
// (the cursors) is atomic. `dests` and `data` point into buffers `alloc`
// owns and nothing else borrows while the `Slots` lives; they are written
// only inside ranges claimed by `reserve`, which hands each slot to
// exactly one record and checks the range lies within the buffers.
unsafe impl Send for Slots<'_> {}
unsafe impl Sync for Slots<'_> {}

impl<'a> Slots<'a> {
    pub(crate) fn new(alloc: &'a mut AllocOutcome) -> Self {
        let dests = alloc.dests.as_mut_ptr();
        let data = alloc.edge_data.as_mut().map_or(std::ptr::null_mut(), |d| d.as_mut_ptr());
        Slots { alloc, dests, data }
    }

    fn weighted(&self) -> bool {
        !self.data.is_null()
    }

    /// Reserves `cnt` contiguous slots for a record of `src` and returns
    /// the first slot index.
    #[inline]
    fn reserve(&self, src: Node, cnt: usize) -> usize {
        let alloc = self.alloc;
        let ls = alloc.local_of(src) as usize;
        let slot = alloc.cursors[ls].fetch_add(cnt as u64, Ordering::Relaxed);
        assert!(
            slot + cnt as u64 <= alloc.offsets[ls + 1],
            "edge overflow for source {src}: assignment and construction disagree"
        );
        slot as usize
    }

    /// Inserts one record's destinations (and optional per-edge data),
    /// converting global destination ids to local ids.
    #[inline]
    pub(crate) fn insert_record(&self, src: Node, dsts: &[Node], weights: Option<&[u32]>) {
        let slot = self.reserve(src, dsts.len());
        for (off, &d) in dsts.iter().enumerate() {
            // SAFETY: slots [slot, slot + len) were exclusively reserved
            // above; no other thread writes them.
            unsafe {
                *self.dests.add(slot + off) = self.alloc.local_of(d);
            }
        }
        if let Some(ws) = weights {
            assert!(
                self.weighted() && ws.len() == dsts.len(),
                "edge data does not match its record"
            );
            // SAFETY: same exclusively reserved slots, edge-data buffer
            // (present and as long as `dests`, checked just above).
            unsafe {
                std::ptr::copy_nonoverlapping(ws.as_ptr(), self.data.add(slot), ws.len());
            }
        }
    }

    /// Deserializes a message of records and inserts them, zero-copy: each
    /// record's destination run is decoded from the payload directly into
    /// its reserved slots and localized in place, and the weight run is a
    /// straight memcpy into the edge-data slots.
    fn insert_message(&self, payload: bytes::Bytes) {
        let mut r = WireReader::new(payload);
        while !r.is_exhausted() {
            let src = r.get_u32().expect("malformed edge record");
            let cnt = r.get_u32().expect("malformed edge record") as usize;
            let slot = self.reserve(src, cnt);
            // SAFETY: slots [slot, slot + cnt) were exclusively reserved
            // above; no other thread touches them.
            let dst_slots = unsafe { std::slice::from_raw_parts_mut(self.dests.add(slot), cnt) };
            r.get_u32_into(dst_slots).expect("malformed edge record");
            for d in dst_slots.iter_mut() {
                *d = self.alloc.local_of(*d);
            }
            if self.weighted() {
                // SAFETY: same exclusively reserved slots, edge-data buffer.
                let data_slots =
                    unsafe { std::slice::from_raw_parts_mut(self.data.add(slot), cnt) };
                r.get_u32_into(data_slots).expect("malformed edge record");
            }
        }
    }
}

/// Total edges carried by a message: skip-scans the record headers —
/// O(records), not O(edges) — since the run lengths alone determine it.
fn edges_in(payload: &bytes::Bytes, weighted: bool) -> u64 {
    let mut r = WireReader::new(payload.clone());
    let per_edge = if weighted { 2 } else { 1 };
    let mut total = 0u64;
    while !r.is_exhausted() {
        let _src = r.get_u32().expect("malformed edge record");
        let cnt = r.get_u32().expect("malformed edge record") as u64;
        total += cnt;
        r.skip((cnt * per_edge) as usize * 4).expect("malformed edge record");
    }
    total
}

//! Layers timed by calling their public functions from the benchmark, on
//! the workload's own data (or, for the transport probes, on fixed
//! payloads through the same `Comm` a job uses).

use std::net::TcpListener;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use cusp_graph::{reading_split, ChunkBacking, ChunkedSlice, RangeReader};
use cusp_net::{
    Cluster, ClusterOptions, Comm, Tag, TcpOptions, TcpTransport, WireReader, WireWriter,
};

use crate::stats::median;
use crate::sys::{self, bounded};
use crate::workloads::{HOSTS, JOB_TIMEOUT};

/// Repetitions behind every probe median.
pub const REPS: usize = 5;

const BULK_TAG: Tag = Tag(20);
const PING_TAG: Tag = Tag(21);
/// Bulk payloads are about the size of a full construct-phase send buffer.
const BULK_BYTES: usize = 256 << 10;
const BULK_MSGS: usize = 32;
const SMALL_BYTES: usize = 64;
const PINGS: usize = 400;

/// Throughput of bulk sends and the one-way latency of small messages
/// between two hosts: `(MB/s, µs)`, medians over [`REPS`].
pub struct NetProbe {
    pub mb_per_s: f64,
    pub small_msg_us: f64,
}

/// Host 0 streams [`BULK_MSGS`] payloads to host 1 and waits for an ack,
/// then ping-pongs [`PINGS`] small messages. Returns host 0's timings.
fn probe_body(comm: &Comm) -> Option<NetProbe> {
    let bulk = Bytes::from(vec![0xA5u8; BULK_BYTES]);
    let small = Bytes::from(vec![0x5Au8; SMALL_BYTES]);
    let (mut mbps, mut us) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        if comm.host() == 0 {
            let t = Instant::now();
            for _ in 0..BULK_MSGS {
                comm.send_bytes(1, BULK_TAG, bulk.clone());
            }
            comm.recv_from(1, PING_TAG);
            mbps.push((BULK_MSGS * BULK_BYTES) as f64 / 1e6 / t.elapsed().as_secs_f64());
            let t = Instant::now();
            for _ in 0..PINGS {
                comm.send_bytes(1, PING_TAG, small.clone());
                comm.recv_from(1, PING_TAG);
            }
            us.push(t.elapsed().as_secs_f64() * 1e6 / (2 * PINGS) as f64);
        } else {
            for _ in 0..BULK_MSGS {
                comm.recv_from(0, BULK_TAG);
            }
            comm.send_bytes(0, PING_TAG, small.clone());
            for _ in 0..PINGS {
                comm.recv_from(0, PING_TAG);
                comm.send_bytes(0, PING_TAG, small.clone());
            }
        }
    }
    (comm.host() == 0).then(|| NetProbe {
        mb_per_s: median(&mbps).expect("REPS > 0"),
        small_msg_us: median(&us).expect("REPS > 0"),
    })
}

/// The probe under `Cluster::run` (the in-process simulator).
pub fn net_sim() -> Result<NetProbe, String> {
    bounded(JOB_TIMEOUT, || {
        Cluster::try_run_with(HOSTS, ClusterOptions::default(), probe_body)
            .map_err(|e| e.to_string())
            .map(|out| {
                out.results
                    .into_iter()
                    .flatten()
                    .next()
                    .expect("host 0 reports")
            })
    })
    .map_err(|f| format!("simulator probe: {f}"))?
}

/// The probe under `Cluster::try_run_tcp`, each host a thread owning a
/// loopback `TcpTransport`.
pub fn net_tcp(nonce: u64) -> Result<NetProbe, String> {
    bounded(JOB_TIMEOUT, move || -> Result<NetProbe, String> {
        let listeners = bind_mesh()?;
        let peers = mesh_addrs(&listeners)?;
        let hosts: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(h, l)| {
                let peers = peers.clone();
                std::thread::spawn(move || -> Result<Option<NetProbe>, String> {
                    let t = TcpTransport::establish(h, l, &peers, nonce, TcpOptions::default())
                        .map_err(|e| e.to_string())?;
                    Cluster::try_run_tcp(t, ClusterOptions::default(), probe_body)
                        .map(|o| o.result)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        let mut probe = None;
        for h in hosts {
            let r = h.join().map_err(|_| "probe host panicked".to_string())??;
            probe = probe.or(r);
        }
        probe.ok_or_else(|| "host 0 reported nothing".to_string())
    })
    .map_err(|f| format!("TCP probe: {f}"))?
}

/// One loopback listener per host.
pub fn bind_mesh() -> Result<Vec<TcpListener>, String> {
    (0..HOSTS)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect()
}

/// The peer address list for [`TcpTransport::establish`].
pub fn mesh_addrs(listeners: &[TcpListener]) -> Result<Vec<String>, String> {
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| format!("local_addr: {e}"))
        })
        .collect()
}

/// `WireWriter`/`WireReader` bulk u32 paths over `dests` (a job's
/// destination array): `(encode MB/s, decode MB/s)`, medians over [`REPS`].
pub fn codec(dests: &[u32]) -> (f64, f64) {
    let mb = (dests.len() * 4) as f64 / 1e6;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut out = vec![0u32; dests.len()];
    let mut w = WireWriter::with_capacity(dests.len() * 4);
    for _ in 0..REPS {
        let t = Instant::now();
        w.put_u32_raw_slice(std::hint::black_box(dests));
        let payload = w.take();
        enc.push(mb / t.elapsed().as_secs_f64());
        let t = Instant::now();
        WireReader::new(payload)
            .get_u32_into(&mut out)
            .expect("decode what was encoded");
        std::hint::black_box(&out);
        dec.push(mb / t.elapsed().as_secs_f64());
    }
    assert_eq!(out, dests, "codec round trip changed the data");
    (
        median(&enc).expect("REPS > 0"),
        median(&dec).expect("REPS > 0"),
    )
}

/// `ChunkedSlice::load_chunk` over host 0's read range of the `.bgr` at
/// `path`, with the shipped prefetch and arena settings: seconds per load.
pub fn chunk_loads(path: &Path, chunk_edges: u64) -> Result<Vec<f64>, String> {
    let io = |e: std::io::Error| format!("chunk probe on {}: {e}", path.display());
    let mut reader = RangeReader::open(path).map_err(io)?;
    let ends = reader.read_end_offsets().map_err(io)?;
    let cfg = cusp::CuspConfig::default();
    let my = reading_split(&ends, HOSTS, cfg.node_read_weight, cfg.edge_read_weight)[0];
    let base = if my.lo == 0 {
        0
    } else {
        ends[my.lo as usize - 1]
    };
    let mut offsets = vec![0];
    offsets.extend(
        ends[my.lo as usize..my.hi as usize]
            .iter()
            .map(|&e| e - base),
    );
    let mut chunks = ChunkedSlice::new(
        ChunkBacking::File(reader),
        my.lo as u32,
        my.hi as u32,
        offsets,
        base,
        chunk_edges,
    );
    // The read phase enables prefetch only when a second core can run it.
    chunks.set_prefetch(cfg.prefetch && sys::available_parallelism() > 1);
    chunks.set_arena_reuse(cfg.arena_reuse);
    let mut secs = Vec::with_capacity(chunks.num_chunks());
    let mut edges = 0;
    for i in 0..chunks.num_chunks() {
        let t = Instant::now();
        edges += chunks.load_chunk(i).num_edges();
        secs.push(t.elapsed().as_secs_f64());
    }
    if edges != chunks.num_edges() {
        return Err(format!(
            "chunk probe read {edges} of {} edges",
            chunks.num_edges()
        ));
    }
    Ok(secs)
}

/// `decode_frame` over `frames` (encoded request frames): MB/s, median
/// over [`REPS`].
pub fn frame_decode(frames: &[Vec<u8>]) -> Result<f64, String> {
    let mb = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let mut rates = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for f in frames {
            let (payload, used) =
                cusp_serve::protocol::decode_frame(f, cusp_serve::protocol::DEFAULT_MAX_FRAME)
                    .map_err(|e| format!("frame probe: {e}"))?;
            std::hint::black_box(payload);
            if used != f.len() {
                return Err(format!("frame probe consumed {used} of {} bytes", f.len()));
            }
        }
        rates.push(mb / t.elapsed().as_secs_f64());
    }
    Ok(median(&rates).expect("REPS > 0"))
}

/// Median milliseconds of `cusp::graph_fingerprint` over [`REPS`] calls.
pub fn graph_fingerprint_ms(graph: &cusp_graph::Csr) -> f64 {
    let ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cusp::graph_fingerprint(graph, None));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms).expect("REPS > 0")
}

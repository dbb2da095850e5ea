//! Host-crash recovery: the public knobs, reports, and the transport
//! checkpoint a restarted host resumes from.
//!
//! The moving parts live in `cluster.rs` (in-process supervisor, send
//! logs, replay) and `fault.rs` ([`crate::CrashPlan`]); this module holds
//! the types that cross the crate boundary:
//!
//! * [`RecoveryOptions`] — heartbeat timeout, restart budget, backoff;
//! * [`Supervisor`] — the restart policy both supervisors (the in-process
//!   cluster and `cusp-part launch`) run;
//! * [`ClusterError`] — the clean terminal failure (`HostLost`) a cluster
//!   returns instead of hanging when the budget is exhausted;
//! * [`RecoveryReport`] — counters proving what the recovery machinery did
//!   (crashes fired, restarts, traffic drained at teardown);
//! * [`NetCheckpoint`] — a host's phase-boundary transport state (send
//!   sequences, receive floors, barrier count). Restoring it aligns a
//!   respawned host's re-execution with the byte stream its peers already
//!   consumed: re-sent messages carry the *same* sequence numbers, so the
//!   receive-side resequencer dedupes them, and replayed inbound traffic
//!   below the floors is discarded the same way. Without a checkpoint the
//!   host restarts from zero — still bit-identical under the determinism
//!   contract, just with more re-execution.

use std::time::{Duration, Instant};

use crate::serialize::{WireReader, WireWriter};
use crate::stats::PhaseTraffic;
use crate::MAX_TAGS;

/// Sanity bounds for the checkpointed stats section: a corrupt length
/// prefix must not drive a huge allocation.
const MAX_STATS_PHASES: usize = 4096;
const MAX_PHASE_NAME: usize = 256;

/// Unwind payload of a planned [`crate::CrashPlan`] crash. Carried via
/// `resume_unwind` (not `panic!`) so the panic hook stays silent — a
/// simulated host death is expected, not a bug report.
pub(crate) struct CrashSignal;

/// Unwind payload used to abort surviving hosts once a peer is declared
/// lost. Also silent: the real diagnosis is [`ClusterError::HostLost`].
pub(crate) struct LostSignal;

/// Knobs for heartbeat-driven crash detection and bounded restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// A crashed host is declared dead once its last heartbeat is older
    /// than this. Heartbeats are piggybacked on every communication
    /// operation and on blocked-receive poll wakeups, so a healthy host is
    /// never silent for more than the poll interval.
    pub heartbeat_timeout: Duration,
    /// Restart attempts per host before the cluster gives up with
    /// [`ClusterError::HostLost`].
    pub max_restarts: u32,
    /// Base delay before the first respawn; doubles per attempt (see
    /// [`restart_backoff`]).
    pub restart_backoff: Duration,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            heartbeat_timeout: Duration::from_millis(100),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(10),
        }
    }
}

/// Doublings after which the restart backoff stops growing.
const MAX_BACKOFF_DOUBLINGS: u32 = 8;

/// The delay before restart number `attempt` (1-based) of one host:
/// `base × 2^min(attempt − 1, 8)`, saturating at [`Duration::MAX`].
pub fn restart_backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1 << attempt.saturating_sub(1).min(MAX_BACKOFF_DOUBLINGS))
}

/// The restart policy both supervisors run — the in-process cluster
/// ([`crate::Cluster::try_run_with`]) and `cusp-part launch`: per-host
/// incarnations, the restart budget, the backoff schedule, and which
/// respawns are due. It never reads the clock (every call takes `now`), so
/// a model test drives it without sleeping. Each supervisor detects
/// deaths its own way, reports them to [`Supervisor::died`], and respawns
/// what [`Supervisor::due`] returns.
#[derive(Debug, Clone)]
pub struct Supervisor {
    opts: RecoveryOptions,
    /// Incarnation each host runs (or last ran) at: its respawns so far.
    incarnation: Vec<u32>,
    /// Respawns waiting out their backoff, in death order, with their
    /// deadline (`None`: past the clock's range, never due).
    pending: Vec<(usize, Option<Instant>)>,
    /// Set once a host exhausts its budget; nothing respawns after that.
    lost: bool,
}

impl Supervisor {
    /// All `hosts` running at incarnation 0 with a full budget.
    pub fn new(hosts: usize, opts: RecoveryOptions) -> Self {
        Supervisor { opts, incarnation: vec![0; hosts], pending: Vec::new(), lost: false }
    }

    /// The incarnation `host` runs at (0 before its first respawn).
    pub fn incarnation(&self, host: usize) -> u32 {
        self.incarnation[host]
    }

    /// Respawns fired across all hosts.
    pub fn respawns(&self) -> u64 {
        self.incarnation.iter().map(|&i| i as u64).sum()
    }

    /// Whether `host` is dead and waiting out its backoff.
    pub fn pending(&self, host: usize) -> bool {
        !self.lost && self.pending.iter().any(|&(h, _)| h == host)
    }

    /// Reports that running `host` died at `now`. Within budget, schedules
    /// its respawn and returns the backoff; once `host` has used all
    /// `max_restarts`, the run is lost and no respawn fires any more.
    pub fn died(&mut self, host: usize, now: Instant) -> Result<Duration, ClusterError> {
        let restarts = self.incarnation[host];
        if restarts >= self.opts.max_restarts {
            self.lost = true;
            return Err(ClusterError::HostLost { host, restarts });
        }
        let backoff = restart_backoff(self.opts.restart_backoff, restarts + 1);
        self.pending.push((host, now.checked_add(backoff)));
        Ok(backoff)
    }

    /// Fires every respawn due at `now`, returning `(host, incarnation)`
    /// for each in death order.
    pub fn due(&mut self, now: Instant) -> Vec<(usize, u32)> {
        let mut fired = Vec::new();
        if !self.lost {
            self.pending.retain(|&(h, at)| {
                let due = at.is_some_and(|at| at <= now);
                if due {
                    self.incarnation[h] += 1;
                    fired.push((h, self.incarnation[h]));
                }
                !due
            });
        }
        fired
    }

    /// The earliest pending respawn deadline; `None` when nothing will
    /// come due.
    pub fn next_deadline(&self) -> Option<Instant> {
        let deadlines = self.pending.iter().filter_map(|&(_, at)| at);
        deadlines.min().filter(|_| !self.lost)
    }
}

/// Terminal cluster failures surfaced by [`crate::Cluster::try_run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A host kept dying until its restart budget ran out. The cluster
    /// unwound all surviving hosts cleanly — no thread is left blocked.
    HostLost {
        /// The host that could not be kept alive.
        host: usize,
        /// Restart attempts that were made before giving up.
        restarts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::HostLost { host, restarts } => write!(
                f,
                "host {host} lost: crashed again after {restarts} restart attempt(s)"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Counters summarizing a run's recovery activity, returned in
/// [`crate::ClusterOutput::recovery`] when a [`crate::CrashPlan`] was
/// armed. Replayed *traffic* (bytes/messages retransmitted or re-executed)
/// is accounted in [`crate::CommStats::replayed_bytes`] instead, next to
/// the conserved per-phase matrices it is excluded from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Planned crashes that fired.
    pub crashes: u64,
    /// Host respawns performed by the supervisor.
    pub restarts: u64,
    /// Messages that had been dispatched toward a dead host but never
    /// consumed at the moment of death — stranded in its mailboxes, its
    /// dead resequencer, or the fault layer's holdback. These are
    /// *counted* losses: each one is re-delivered from the send log before
    /// the respawn, so they never show up as an `unconserved_pairs` false
    /// positive.
    pub lost_in_teardown: u64,
}

/// One host's transport state at a phase boundary, as captured by
/// [`crate::Comm::net_checkpoint`] and restored by
/// [`crate::Comm::restore_net`].
///
/// Captured *at a barrier*, the state is phase-complete by construction:
/// receive floors cover exactly the traffic every peer sent this host in
/// the finished phases (the recv paths drain only the requested tag, and
/// tags are phase-specific), and no application message is buffered
/// undelivered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetCheckpoint {
    /// Next send sequence number per `(dst, tag)`, indexed
    /// `dst * MAX_TAGS + tag`.
    pub send_seqs: Vec<u64>,
    /// Next expected receive sequence number per `(src, tag)`, indexed
    /// `src * MAX_TAGS + tag`.
    pub recv_floors: Vec<u64>,
    /// Barriers this host has completed.
    pub barrier_calls: u64,
    /// This host's per-phase accounting rows (sent to / received from each
    /// peer). An in-process restart shares the live collector and ignores
    /// these; a respawned *process* starts with empty counters and restores
    /// them so Table V accounting survives the crash.
    pub stats: Vec<PhaseTraffic>,
}

fn put_str(w: &mut WireWriter, s: &str) {
    let bytes = s.as_bytes();
    w.put_u32(bytes.len() as u32);
    w.put_raw(bytes);
}

fn get_str(r: &mut WireReader) -> Option<String> {
    let len = r.get_u32().ok()? as usize;
    if len > MAX_PHASE_NAME {
        return None;
    }
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(r.get_u8().ok()?);
    }
    String::from_utf8(bytes).ok()
}

impl NetCheckpoint {
    /// Serializes into `w` (length-prefixed, fixed-width fields).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64_slice(&self.send_seqs);
        w.put_u64_slice(&self.recv_floors);
        w.put_u64(self.barrier_calls);
        w.put_u32(self.stats.len() as u32);
        for row in &self.stats {
            put_str(w, &row.name);
            w.put_u64_slice(&row.sent_bytes);
            w.put_u64_slice(&row.sent_msgs);
            w.put_u64_slice(&row.recv_bytes);
            w.put_u64_slice(&row.recv_msgs);
        }
    }

    /// Deserializes from `r`; `None` on any truncation or length mismatch
    /// against `hosts` (corrupt checkpoints are treated as absent).
    pub fn decode(r: &mut WireReader, hosts: usize) -> Option<Self> {
        let want = hosts * MAX_TAGS;
        let send_seqs = r.get_u64_vec().ok()?;
        let recv_floors = r.get_u64_vec().ok()?;
        if send_seqs.len() != want || recv_floors.len() != want {
            return None;
        }
        let barrier_calls = r.get_u64().ok()?;
        let phases = r.get_u32().ok()? as usize;
        if phases > MAX_STATS_PHASES {
            return None;
        }
        let mut stats = Vec::with_capacity(phases);
        for _ in 0..phases {
            let name = get_str(r)?;
            let row = PhaseTraffic {
                name,
                sent_bytes: r.get_u64_vec().ok()?,
                sent_msgs: r.get_u64_vec().ok()?,
                recv_bytes: r.get_u64_vec().ok()?,
                recv_msgs: r.get_u64_vec().ok()?,
            };
            if [&row.sent_bytes, &row.sent_msgs, &row.recv_bytes, &row.recv_msgs]
                .iter()
                .any(|v| v.len() != hosts)
            {
                return None;
            }
            stats.push(row);
        }
        Some(NetCheckpoint { send_seqs, recv_floors, barrier_calls, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_checkpoint_round_trips() {
        let hosts = 3;
        let mut ck = NetCheckpoint {
            send_seqs: vec![0; hosts * MAX_TAGS],
            recv_floors: vec![0; hosts * MAX_TAGS],
            barrier_calls: 5,
            stats: vec![PhaseTraffic {
                name: "edge_assign".into(),
                sent_bytes: vec![0, 10, 20],
                sent_msgs: vec![0, 1, 2],
                recv_bytes: vec![5, 0, 0],
                recv_msgs: vec![1, 0, 0],
            }],
        };
        ck.send_seqs[7] = 42;
        ck.recv_floors[2 * MAX_TAGS + 1] = 9;
        let mut w = WireWriter::new();
        ck.encode(&mut w);
        let mut r = WireReader::new(w.finish());
        let back = NetCheckpoint::decode(&mut r, hosts).expect("decodes");
        assert_eq!(back, ck);
    }

    #[test]
    fn net_checkpoint_rejects_wrong_host_count_and_truncation() {
        let hosts = 2;
        let ck = NetCheckpoint {
            send_seqs: vec![1; hosts * MAX_TAGS],
            recv_floors: vec![2; hosts * MAX_TAGS],
            barrier_calls: 1,
            stats: vec![PhaseTraffic {
                name: "read".into(),
                sent_bytes: vec![0, 3],
                sent_msgs: vec![0, 1],
                recv_bytes: vec![0, 0],
                recv_msgs: vec![0, 0],
            }],
        };
        let mut w = WireWriter::new();
        ck.encode(&mut w);
        let bytes = w.finish();
        let mut r = WireReader::new(bytes.clone());
        assert!(NetCheckpoint::decode(&mut r, 4).is_none(), "host count mismatch");
        for cut in [0, 1, 8, bytes.len() - 1] {
            let mut r = WireReader::new(bytes.slice(..cut));
            assert!(NetCheckpoint::decode(&mut r, hosts).is_none(), "truncated at {cut}");
        }
    }

    #[test]
    fn host_lost_displays_cleanly() {
        let e = ClusterError::HostLost { host: 3, restarts: 2 };
        let s = e.to_string();
        assert!(s.contains("host 3"), "{s}");
        assert!(s.contains("2 restart"), "{s}");
    }
}

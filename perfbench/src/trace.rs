//! Per-layer numbers read back from the `cusp-obs` spans the partitioner
//! records (`read`/`master`/`edge_assign`/`alloc`/`construct`, `chunk`,
//! `barrier`).

use std::collections::HashMap;

use cusp::PhaseTimes;
use cusp_obs::{EventKind, Trace};

/// Span totals of one traced job, in seconds, keyed by `(host, name)`.
/// Nested spans of one name count once (the outermost occurrence).
pub struct Spans {
    totals: HashMap<(u32, &'static str), f64>,
    chunk_s: Vec<f64>,
    chunks: u64,
}

impl Spans {
    /// Folds the traces of one job (one per host over TCP, one shared
    /// trace on the simulator).
    pub fn of<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Spans {
        let mut spans = Spans {
            totals: HashMap::new(),
            chunk_s: Vec::new(),
            chunks: 0,
        };
        for trace in traces {
            let mut open: HashMap<(u32, u32, &'static str), Vec<u64>> = HashMap::new();
            for e in &trace.events {
                match e.kind {
                    EventKind::SpanBegin { name, .. } => {
                        open.entry((e.host, e.tid, name)).or_default().push(e.ts_ns);
                    }
                    EventKind::SpanEnd { name } => {
                        let Some(stack) = open.get_mut(&(e.host, e.tid, name)) else {
                            continue;
                        };
                        let Some(begin) = stack.pop() else { continue };
                        let secs = e.ts_ns.saturating_sub(begin) as f64 * 1e-9;
                        if name == "chunk" {
                            spans.chunk_s.push(secs);
                            spans.chunks += 1;
                        }
                        if stack.is_empty() {
                            *spans.totals.entry((e.host, name)).or_insert(0.0) += secs;
                        }
                    }
                    _ => {}
                }
            }
        }
        spans
    }

    /// Largest per-host total of spans named `name` (0 when absent).
    pub fn max_over_hosts(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, &s)| s)
            .fold(0.0, f64::max)
    }

    /// Sum over the five phases of the slowest host's phase span, divided
    /// by the job's wall time measured around the public call. Near 1 when
    /// the phase spans account for the whole job.
    pub fn phase_closure_frac(&self, job_wall_s: f64) -> f64 {
        let phases: f64 = PhaseTimes::NAMES
            .iter()
            .map(|p| self.max_over_hosts(p))
            .sum();
        if job_wall_s > 0.0 {
            phases / job_wall_s
        } else {
            0.0
        }
    }

    /// Closed `chunk` spans in the job.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Durations of every closed `chunk` span, in seconds.
    pub fn chunk_durations(&self) -> &[f64] {
        &self.chunk_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_obs::Event;

    fn ev(host: u32, ts_ns: u64, kind: EventKind) -> Event {
        Event {
            host,
            tid: host,
            ts_ns,
            kind,
        }
    }

    fn begin(name: &'static str) -> EventKind {
        EventKind::SpanBegin { name, arg: 0 }
    }

    fn end(name: &'static str) -> EventKind {
        EventKind::SpanEnd { name }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn phase_closure_frac_from_synthetic_trace() {
        // Host 0: read 0-10 ms, master 10-30 ms with two 5 ms chunks and a
        // nested master span that must count once. Host 1: read 0-20 ms,
        // master 20-25 ms. The slowest host per phase: read 20, master 20;
        // the other three phases are absent. Sum 40 ms over an 80 ms job.
        let trace = Trace {
            threads: Vec::new(),
            events: vec![
                ev(0, 0, begin("read")),
                ev(0, 10 * MS, end("read")),
                ev(0, 10 * MS, begin("master")),
                ev(0, 11 * MS, begin("chunk")),
                ev(0, 16 * MS, end("chunk")),
                ev(0, 16 * MS, begin("master")),
                ev(0, 18 * MS, end("master")),
                ev(0, 20 * MS, begin("chunk")),
                ev(0, 25 * MS, end("chunk")),
                ev(0, 30 * MS, end("master")),
                ev(1, 0, begin("read")),
                ev(1, 20 * MS, end("read")),
                ev(1, 20 * MS, begin("master")),
                ev(1, 25 * MS, end("master")),
                ev(1, 25 * MS, begin("barrier")),
                ev(1, 26 * MS, end("barrier")),
            ],
            dropped_events: 0,
        };
        let spans = Spans::of([&trace]);
        assert!((spans.max_over_hosts("read") - 0.020).abs() < 1e-12);
        assert!((spans.max_over_hosts("master") - 0.020).abs() < 1e-12);
        assert!((spans.max_over_hosts("barrier") - 0.001).abs() < 1e-12);
        assert_eq!(spans.max_over_hosts("construct"), 0.0);
        assert!((spans.phase_closure_frac(0.080) - 0.5).abs() < 1e-12);
        assert_eq!(spans.phase_closure_frac(0.0), 0.0);
        assert_eq!(spans.chunks(), 2);
        assert_eq!(spans.chunk_durations().len(), 2);
        assert!(spans
            .chunk_durations()
            .iter()
            .all(|&d| (d - 0.005).abs() < 1e-12));
    }

    #[test]
    fn per_host_traces_fold_together() {
        // Over TCP each host drains its own trace.
        let a = Trace {
            threads: Vec::new(),
            events: vec![
                ev(0, 0, begin("construct")),
                ev(0, 3 * MS, end("construct")),
            ],
            dropped_events: 0,
        };
        let b = Trace {
            threads: Vec::new(),
            events: vec![
                ev(1, 5 * MS, begin("construct")),
                ev(1, 12 * MS, end("construct")),
            ],
            dropped_events: 0,
        };
        let spans = Spans::of([&a, &b]);
        assert!((spans.max_over_hosts("construct") - 0.007).abs() < 1e-12);
        assert!((spans.phase_closure_frac(0.014) - 0.5).abs() < 1e-12);
    }
}

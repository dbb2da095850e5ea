//! The metric catalog and the result line.
//!
//! Every run prints context lines (`# ...`: host, layout, inputs, each
//! metric with its unit and sample count) and then, as the last line of
//! standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! An untraced run reports every [`END_TO_END`] metric; a traced run every
//! [`PER_LAYER`] metric.

use std::collections::BTreeMap;

use crate::{stats, sys};

/// One reported metric.
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees, reported by untraced runs.
pub const END_TO_END: [Metric; 5] = [
    // Median over the set-ups made in one run: input generation, `.bgr`
    // write, server start + upload, generation-0 partition.
    m("setup_s", "s"),
    // Median time to obtain an up-to-date partition: one job (cvc-stream,
    // fec-tcp), one delta step (delta-hvc), one cold `partition` request
    // (serve-mixed).
    m("partition_s", "s"),
    // Median client-observed latency over every operation of the run. Where
    // every operation is a partition (all but serve-mixed) this is
    // `partition_s` in milliseconds: one measurement, not two.
    m("request_ms_p50", "ms"),
    // Operations completed per second of the timed window's wall time,
    // which also holds what happens between the timed calls (dropping the
    // outputs, the per-operation checks).
    m("ops_per_s", "1/s"),
    // Median over the timed operations of the heap's peak (bytes live,
    // counted by the global allocator, reset before each) while one runs;
    // one sample over the whole window when clients run concurrently.
    m("peak_heap_mb", "MiB"),
];

/// Single-layer metrics, reported by traced runs. A layer that is not on
/// a workload's path reports 0 there.
pub const PER_LAYER: [Metric; 41] = [
    m("core.read_s", "s"),
    m("core.master_s", "s"),
    m("core.edge_assign_s", "s"),
    m("core.alloc_s", "s"),
    m("core.construct_s", "s"),
    m("core.phase_closure_frac", "ratio"),
    m("core.chunks", "count"),
    m("core.chunk_us_p50", "us"),
    m("core.delta_s", "s"),
    m("core.full_s", "s"),
    m("core.delta_full_ratio", "ratio"),
    m("core.dirty_vertices", "count"),
    m("core.reused_edges", "count"),
    m("core.graph_fingerprint_ms", "ms"),
    m("net.msgs", "count"),
    m("net.bytes", "B"),
    m("net.construct_msgs", "count"),
    m("net.master_msgs", "count"),
    m("net.barrier_wait_s", "s"),
    m("net.tcp_establish_s", "s"),
    m("net.tcp_mb_per_s", "MB/s"),
    m("net.tcp_small_msg_us", "us"),
    m("net.sim_mb_per_s", "MB/s"),
    m("net.sim_small_msg_us", "us"),
    m("net.codec_encode_mb_per_s", "MB/s"),
    m("net.codec_decode_mb_per_s", "MB/s"),
    m("graph.chunk_load_us_p50", "us"),
    m("graph.apply_batch_ms", "ms"),
    m("graph.wal_append_ms", "ms"),
    m("serve.hit_ms_p50", "ms"),
    m("serve.hit_ms_p99", "ms"),
    m("serve.miss_ms_p50", "ms"),
    m("serve.apply_ms_p50", "ms"),
    m("serve.hit_server_us_p50", "us"),
    m("serve.hit_wire_us_p50", "us"),
    m("serve.miss_server_ms_p50", "ms"),
    m("serve.frame_decode_mb_per_s", "MB/s"),
    m("serve.upload_s", "s"),
    m("mem.peak_rss_mb", "MiB"),
    m("obs.trace_overhead_frac", "ratio"),
    m("obs.dropped_events", "count"),
];

/// Per-layer values of one traced run, with the sample count behind each.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Records `name` (which must be in [`PER_LAYER`]) as `value`,
    /// computed from `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, (value, n));
    }

    /// Records the median of `samples` scaled by `scale`, when there are any.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if let Some(v) = stats::median(samples) {
            self.set(name, v * scale, samples.len());
        }
    }

    /// Records the `q`-quantile of `samples` scaled by `scale`, when at
    /// least [`stats::MIN_BEYOND`] samples lie beyond it.
    pub fn set_tail(&mut self, name: &'static str, samples: &[f64], q: f64, scale: f64) {
        if let Some(v) = stats::tail(samples, q) {
            self.set(name, v * scale, samples.len());
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    /// Context lines (host, layout, inputs, notes).
    pub context: Vec<String>,
    /// Timed operations started.
    pub attempted: u64,
    /// Timed operations that returned an error or missed their bound.
    pub failed: u64,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per partition-producing operation.
    pub partition_s: Vec<f64>,
    /// Milliseconds per operation, all kinds.
    pub request_ms: Vec<f64>,
    /// Wall seconds of the timed window, from its opening to the end of
    /// the last operation started in it.
    pub window_s: f64,
    /// Heap peak (MiB) per timed operation, or one sample over the whole
    /// window of concurrent clients.
    pub peak_heap_mb: Vec<f64>,
    /// Peak RSS (`VmHWM`, MiB), sampled alongside [`Run::peak_heap_mb`].
    pub peak_rss_mb: Vec<f64>,
    /// Per-layer values (traced runs).
    pub layers: Layers,
}

impl Run {
    /// Counts a failed timed operation and reports why, at once on
    /// standard error and later among the context lines.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: {why}");
        self.failed += 1;
        self.context.push(why);
    }

    /// Runs `op` with the heap and RSS peak marks reset before it, and
    /// records the peaks it reached.
    pub fn mem_sample<T>(&mut self, op: impl FnOnce() -> T) -> Result<T, String> {
        sys::reset_peak_rss()?;
        sys::reset_peak_heap();
        let out = op();
        self.peak_heap_mb.push(sys::peak_heap_mb());
        self.peak_rss_mb.push(sys::peak_rss_mb()?);
        Ok(out)
    }

    /// The end-to-end metric values with their sample counts, in
    /// [`END_TO_END`] order. Errors when an operation class has no sample.
    pub fn end_to_end(&self) -> Result<Vec<(f64, usize)>, String> {
        let med = |name: &str, xs: &[f64]| {
            stats::median(xs).ok_or_else(|| format!("no completed sample for {name}"))
        };
        Ok(vec![
            (med("setup_s", &self.setup_s)?, self.setup_s.len()),
            (
                med("partition_s", &self.partition_s)?,
                self.partition_s.len(),
            ),
            (
                med("request_ms_p50", &self.request_ms)?,
                self.request_ms.len(),
            ),
            (
                self.request_ms.len() as f64 / self.window_s,
                self.request_ms.len(),
            ),
            (
                med("peak_heap_mb", &self.peak_heap_mb)?,
                self.peak_heap_mb.len(),
            ),
        ])
    }

    /// Prints the context lines and the result line. Only runs whose
    /// checks all passed get here, so the line always says `correct`.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for line in &self.context {
            println!("# {line}");
        }
        let rows: Vec<(&Metric, f64, Option<usize>)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| match self.layers.values.get(m.name) {
                    Some(&(v, n)) => (m, v, Some(n)),
                    None => (m, 0.0, None),
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end()?)
                .map(|(m, (v, n))| (m, v, Some(n)))
                .collect()
        };
        for (metric, value, n) in &rows {
            match n {
                Some(n) => println!("# {} = {value} {} (n={n})", metric.name, metric.unit),
                None => println!(
                    "# {} = 0 {} (not on this workload's path)",
                    metric.name, metric.unit
                ),
            }
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(m, v, _)| {
                assert!(v.is_finite(), "{} is not finite: {v}", m.name);
                // Names and units need no escaping: the catalog test keeps
                // them to letters, digits and `_./%-`.
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        let mut seen = std::collections::HashSet::new();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} for {}",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(declared(m.name), "{} missing from BENCHMARK.json", m.name);
            assert!(
                text.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\"",
                    m.name, m.unit
                )),
                "{} has another unit in BENCHMARK.json",
                m.name
            );
        }
        for w in crate::workloads::NAMES {
            assert!(declared(w), "workload {w} missing from BENCHMARK.json");
        }
        let names = text.matches("\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::NAMES.len(),
            "BENCHMARK.json declares names the benchmark does not report"
        );
    }

    #[test]
    #[should_panic(expected = "is not a per-layer metric")]
    fn unknown_layer_metric_is_a_bug() {
        Layers::default().set("core.nope", 1.0, 1);
    }
}

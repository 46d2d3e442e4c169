//! The metric catalogue and the result line.
//!
//! Every workload reports the same end-to-end metrics (untraced run) and the
//! same per-layer metrics (traced run), so each can be compared across
//! commits on every workload. A per-layer metric of a layer a workload never
//! calls reads 0 there. The workload-specific figures — `pmem_triad_gbs`,
//! `failover_p50_ms`, `core.cluster.refresh_us` and the rest — are printed as
//! `name value unit` lines before the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off. The
/// timed operation is one STREAM-PMem iteration (`stream_pmem`), one round
/// of eight checkpoint commits and a failover (`checkpoint_restart`) or one
/// KV op (`objects_kv`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("peak_rss_mib", "MiB", Lower),
    def("op_p50_ms", "ms", Lower),
    def("op_tail_ms", "ms", Lower),
    def("ops_per_s", "1/s", Higher),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[Def] = &[
    def("trace.overhead_pct", "%", Lower),
    def("numa.pool.wait_share", "share", Lower),
    def("stream.kernel.apply_share", "share", Lower),
    def("pmem.array.load_share", "share", Lower),
    def("pmem.array.store_share", "share", Lower),
    def("pmem.array.load_gbs", "GB/s", Higher),
    def("pmem.array.store_gbs", "GB/s", Higher),
    def("pmem.persist.flush_share", "share", Lower),
    def("pmem.persist.drain_share", "share", Lower),
    def("pmem.persist.flushes_per_op", "count", Lower),
    def("pmem.persist.lines_flushed_per_op", "count", Lower),
    def("pmem.persist.drains_per_op", "count", Lower),
    def("pmem.persist.bytes_per_op", "B", Lower),
    def("pmem.bytes_amplification", "ratio", Lower),
    def("pmem.write_amplification", "ratio", Lower),
    def("pmem.hash_gbs", "GB/s", Higher),
    def("pmem.checkpoint.hash_share", "share", Lower),
    def("pmem.checkpoint.written_ratio", "ratio", Lower),
    def("pmem.object.get_share", "share", Lower),
    def("pmem.object.put_commit_share", "share", Lower),
    def("cxl.device.bytes_read_per_op", "B", Lower),
    def("cxl.device.bytes_written_per_op", "B", Lower),
    def("cxl.device.gpf_flushes_per_op", "count", Lower),
    def("cxl.sharing.publishes_per_op", "count", Lower),
    def("cxl.sharing.acquires_per_op", "count", Lower),
    def("cxl.sharing.bytes_read_per_op", "B", Lower),
    def("core.cluster.acquire_share", "share", Lower),
    def("core.cluster.reopen_share", "share", Lower),
    def("core.cluster.commit_share", "share", Lower),
    def("core.cluster.refresh_share", "share", Lower),
    def("objects.refresh_ratio", "ratio", Lower),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
}

impl Report {
    /// Prints a `name value unit` line now (informational metrics and
    /// context go to stdout as they are measured).
    pub fn line(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let mut text = format!("{name} {value} {unit}");
        if !note.is_empty() {
            let _ = write!(text, "  # {note}");
        }
        println!("{text}");
    }

    /// Sets a catalogued metric and prints it as a line too.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued metric"));
        self.values.insert(name, value);
        self.line(
            name,
            value,
            def.unit,
            &format!("{} is better", def.better.word()),
        );
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed operation or output check.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// Records the outcome of one op: counts the attempt and, on an error,
    /// the failure. Returns the value on success.
    pub fn check<T, E: std::fmt::Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempt();
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// The result line: every end-to-end metric (`traced = false`) or every
    /// per-layer metric (`traced = true`). A missing end-to-end metric or a
    /// non-finite value fails the run.
    pub fn result_line(&mut self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for d in defs {
            let value = match self.values.get(d.name) {
                Some(&v) if v.is_finite() => v,
                Some(_) => {
                    self.fail(&format!("{} is not finite", d.name));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.fail(&format!("{} was not measured", d.name));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            ));
        }
        let attempted = self.attempted.max(1);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let text = format!("{v}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').unwrap() + start;
            text[start..end].to_string()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = section(key);
            assert_eq!(
                listed.matches("\"name\"").count(),
                defs.len(),
                "{key} count"
            );
            for d in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name,
                    d.unit,
                    d.better.word()
                );
                assert!(listed.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_has_every_metric_and_fails_missing_ones() {
        let mut r = Report::default();
        r.attempt();
        r.set("setup_s", 1.5);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 4,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 2.0);
        }
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        // Traced: layers the workload never called read 0.
        let line = r.result_line(true);
        assert!(line.contains("\"pmem.hash_gbs\": {\"value\": 0.0, \"unit\": \"GB/s\"}"));
    }
}

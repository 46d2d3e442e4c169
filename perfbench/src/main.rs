//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_pmem|checkpoint_restart|objects_kv> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop driven from one process with at most
//! `min(2, cores)` threads. With `--trace 0` the run measures the end-to-end
//! metrics; with `--trace 1` it measures the same loop untraced for half the
//! time and traced for the other half, and reports the per-layer metrics and
//! the tracing overhead. The last stdout line is the JSON result; the exit
//! code is non-zero when any operation failed or any output check did not
//! hold. See `perfbench/README.md` for the workloads and every metric.

mod checkpoint_restart;
mod counters;
mod gen;
mod machine;
mod objects_kv;
mod report;
mod stats;
mod stream_pmem;
mod trace;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// STREAM-PMem on the CXL expander (paper Listing 2).
    StreamPmem,
    /// Shared-segment checkpoint commits with spare-host failover.
    CheckpointRestart,
    /// Versioned KV over shared far memory with rotating ownership.
    ObjectsKv,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "stream_pmem" => Some(Workload::StreamPmem),
            "checkpoint_restart" => Some(Workload::CheckpointRestart),
            "objects_kv" => Some(Workload::ObjectsKv),
            _ => None,
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <stream_pmem|checkpoint_restart|objects_kv> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let cores = machine::cores();
    report.line(
        "machine.cores",
        cores as f64,
        "count",
        "available parallelism",
    );
    let llc = machine::llc_bytes();
    report.line(
        "machine.llc_bytes",
        llc.unwrap_or(0) as f64,
        "B",
        "highest-level data/unified cache of cpu0, from sysfs",
    );
    let jiffies = machine::cpu_jiffies();
    match args.workload {
        Workload::StreamPmem => stream_pmem::run(&args, &mut report, llc),
        Workload::CheckpointRestart => checkpoint_restart::run(&args, &mut report),
        Workload::ObjectsKv => objects_kv::run(&args, &mut report),
    }
    if let (Some((steal0, total0)), Some((steal, total))) = (jiffies, machine::cpu_jiffies()) {
        report.line(
            "machine.steal_share",
            (steal - steal0) as f64 / (total - total0).max(1) as f64,
            "share",
            "CPU time the hypervisor took from this VM during the run",
        );
    }
    if !args.trace {
        match machine::peak_rss_mib() {
            Some(mib) => report.set("peak_rss_mib", mib),
            None => report.fail("VmHWM unreadable"),
        }
    }
    let line = report.result_line(args.trace);
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-ups per untraced run. Each set-up is measured for an equal share of
/// `--seconds` and the samples are pooled, so one run averages over several
/// memory layouts; `setup_s` is the median set-up time.
pub const SETUPS: usize = 4;

/// Worker threads every workload uses: two, clamped to the cores present.
pub fn workers() -> usize {
    machine::cores().clamp(1, 2)
}

/// Records the generic end-to-end op metrics from op latencies (seconds)
/// measured over `wall` seconds of closed-loop work.
/// `ops` is the number of ops completed; `op_seconds` may be a sample of them.
pub fn record_ops(report: &mut Report, op_seconds: &[f64], ops: u64, wall: f64, what: &str) {
    let ms: Vec<f64> = op_seconds.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    let Some(p50) = stats::median(&ms) else {
        report.fail(&format!("no {what} completed"));
        return;
    };
    report.set("op_p50_ms", p50);
    // With fewer than 100 samples no percentile above the median has ten
    // samples beyond it; the tail is then reported as the median.
    let (pct, tail) = match stats::tail(&ms) {
        Some(t) if t.pct > 50.0 => (t.pct, t.value),
        _ => (50.0, p50),
    };
    report.set("op_tail_ms", tail);
    report.line(
        "op.count",
        ops as f64,
        "count",
        &format!("{what}; {n} sampled, tail is p{pct}"),
    );
    report.set("ops_per_s", ops as f64 / wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "objects_kv",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ObjectsKv);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (9, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "stream_pmem", "--seconds", "1"],
            &["--workload", "stream_pmem", "--seed", "1", "--seconds", "0"],
            &[
                "--workload",
                "stream_pmem",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}

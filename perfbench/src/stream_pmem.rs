//! `stream_pmem`: the paper's STREAM-PMem (Listing 2) on a pool provisioned
//! on the CXL expander, plus volatile STREAM and a plain single-threaded
//! roofline over the same array size.
//!
//! Bulk sequential bandwidth through `pmem::array` staging, the expander
//! backend and the `stream` kernels — no transactions, no coherence.

use crate::counters;
use crate::report::Report;
use crate::trace::{local, LocalSpan, Trace};
use crate::{machine, record_ops, stats, workers, Args, SETUPS};
use cxl_pmem::{RuntimeBuilder, TierPolicy};
use numa::AffinityPolicy;
use pmem::{PersistentArray, PmemPool};
use std::sync::Mutex;
use std::time::Instant;
use stream_bench::{Kernel, PmemStream, StreamArray, StreamConfig, VolatileStream};

/// Bytes per array. On a 2-vCPU VM whose sysfs reports a 300 MiB LLC, four
/// times that per array (the STREAM rule) needs ~8 GB of resident memory and
/// ~8 s per iteration, more than a shared 16 GB machine and a 20 s run can
/// carry. 256 MiB per array keeps the working set of one iteration (three
/// arrays on the device plus the per-worker staging copies) above 1.5 GiB.
const ARRAY_BYTES: u64 = 256 << 20;
/// Iterations never exceed this: values grow 15x per iteration and an f64
/// overflows after ~260.
const MAX_ITERATIONS: usize = 200;
/// Volatile STREAM iterations after one untimed warm-up.
const VOLATILE_ITERATIONS: usize = 5;
/// Timed roofline repetitions after one untimed warm-up.
const ROOFLINE_REPS: usize = 3;
/// Largest relative error `validate` may report.
const TOLERANCE: f64 = 1e-12;

pub fn run(args: &Args, report: &mut Report, llc: Option<u64>) {
    let elements = (ARRAY_BYTES / 8) as usize;
    report.line(
        "stream.array_bytes",
        ARRAY_BYTES as f64,
        "B",
        "per array, three arrays",
    );
    if let Some(llc) = llc {
        report.line(
            "stream.array_over_llc",
            ARRAY_BYTES as f64 / llc as f64,
            "ratio",
            "",
        );
    }
    let threads = workers();
    report.line("stream.workers", threads as f64, "count", "min(2, cores)");
    let base = StreamConfig {
        elements,
        ntimes: 1,
        scalar: 3.0,
    };
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut timed = Timed::new(elements);
    for _ in 0..setups {
        let start = Instant::now();
        // Provision, populate and first-touch: runtime + expander pool, the
        // three arrays initialised and persisted, one untimed warm-up
        // iteration (the first Copy after initiate runs far below warm speed).
        let runtime = RuntimeBuilder::setup1().build();
        let Some(pinned) = report.check(
            "worker pool",
            runtime.worker_pool_for(&AffinityPolicy::close(), threads),
        ) else {
            return;
        };
        let pool_bytes = 3 * ARRAY_BYTES + (64 << 20);
        let Some(pool) = report.check(
            "provision expander pool",
            runtime.provision_pool(&TierPolicy::CxlExpander, "stream-pmem", pool_bytes),
        ) else {
            return;
        };
        let Some(mut stream) = report.check("initiate", PmemStream::initiate(&pool, base)) else {
            return;
        };
        if report
            .check("warm-up iteration", stream.run(&pinned))
            .is_none()
        {
            return;
        }
        setup_times.push(start.elapsed().as_secs_f64());
        let mut done = 1; // the warm-up
        if !args.trace {
            timed_iterations(
                &mut stream,
                &pinned,
                args.seconds / setups as u32,
                &mut done,
                &mut timed,
                report,
            );
            let view = PmemStream::reattach(
                &pool,
                StreamConfig {
                    ntimes: done,
                    ..base
                },
                stream.root(),
            );
            validate_pmem(report, view.validate(), done);
            continue;
        }
        timed_iterations(
            &mut stream,
            &pinned,
            args.seconds / 2,
            &mut done,
            &mut timed,
            report,
        );
        let root = stream.root();
        // The replay stages through its own buffers: free the stream's.
        drop(stream);
        let pool_ref: &PmemPool = &pool;
        let arrays = [
            PersistentArray::from_oid(pool_ref, root.a),
            PersistentArray::from_oid(pool_ref, root.b),
            PersistentArray::from_oid(pool_ref, root.c),
        ];
        let device = [runtime.fpga().expect("setup #1 has an expander").endpoint()];
        let persist0 = pool_ref.persist_stats();
        let device0 = counters::devices(&device);
        let replay = replay_iterations(
            pool_ref,
            &arrays,
            &pinned,
            base,
            args.seconds / 2,
            &mut done,
        );
        let iterations = replay.iter_ns.len() as f64;
        counters::record_persist(report, persist0, pool_ref.persist_stats(), iterations);
        let (dev_read, dev_written) =
            counters::record_device(report, device0, counters::devices(&device), iterations);
        report.attempted += replay.iter_ns.len() as u64;
        for e in &replay.errors {
            report.fail(e);
        }
        let traced_s: Vec<f64> = replay.iter_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        trace_metrics(report, &replay, threads, &timed, &traced_s);
        let stream_bytes = iterations
            * Kernel::ALL
                .iter()
                .map(|k| base.bytes_per_invocation(*k) as f64)
                .sum::<f64>();
        let write_bytes = iterations * 4.0 * (elements * 8) as f64;
        report.set(
            "pmem.bytes_amplification",
            (dev_read + dev_written) / stream_bytes,
        );
        report.set("pmem.write_amplification", dev_written / write_bytes);
        let view = PmemStream::reattach(
            pool_ref,
            StreamConfig {
                ntimes: done,
                ..base
            },
            root,
        );
        validate_pmem(report, view.validate(), done);
        return;
    }
    report.set("setup_s", stats::median(&setup_times).unwrap_or(0.0));
    record_ops(
        report,
        &timed.iter_s,
        timed.iter_s.len() as u64,
        timed.wall,
        "STREAM-PMem iterations",
    );
    let mut gbs = Vec::new();
    for (kernel, name) in [
        (Kernel::Copy, "pmem_copy_gbs"),
        (Kernel::Triad, "pmem_triad_gbs"),
    ] {
        let value = timed.gbs(kernel);
        report.line(
            name,
            value,
            "GB/s",
            &format!("median of n={}", timed.kernel_s(kernel).len()),
        );
        gbs.push((name, value));
    }
    for kernel in [Kernel::Scale, Kernel::Add] {
        let name = format!("pmem_{}_gbs", kernel.name().to_lowercase());
        report.line(&name, timed.gbs(kernel), "GB/s", "context");
    }
    // The runtime (and with it the expander's device memory) is gone; the
    // volatile arrays and the roofline do not add to its peak.
    gbs.push(("volatile_triad_gbs", volatile(report, base, threads)));
    let roof = machine::roofline(elements, ROOFLINE_REPS);
    report.line(
        "machine.roofline_copy_gbs",
        roof.copy_gbs,
        "GB/s",
        "single thread, same array size",
    );
    report.line(
        "machine.roofline_triad_gbs",
        roof.triad_gbs,
        "GB/s",
        "single thread, same array size",
    );
    for (name, value) in gbs {
        let roof_gbs = if name.contains("copy") {
            roof.copy_gbs
        } else {
            roof.triad_gbs
        };
        let stem = name.trim_end_matches("_gbs");
        report.line(
            &format!("{stem}_of_roofline"),
            value / roof_gbs,
            "ratio",
            "context",
        );
    }
}

fn validate_pmem(report: &mut Report, result: pmem::Result<f64>, iterations: usize) {
    if let Some(err) = report.check("PmemStream::validate", result) {
        report.line(
            "stream.pmem_max_rel_error",
            err,
            "ratio",
            &format!("after {iterations} iterations"),
        );
        if err > TOLERANCE {
            report.fail(&format!(
                "STREAM-PMem arrays off by {err} after {iterations} iterations"
            ));
        }
    }
}

/// Per-iteration and per-kernel times of the untraced loop.
struct Timed {
    iter_s: Vec<f64>,
    kernels: Vec<(Kernel, f64)>,
    wall: f64,
    elements: usize,
}

impl Timed {
    fn new(elements: usize) -> Self {
        Timed {
            iter_s: Vec::new(),
            kernels: Vec::new(),
            wall: 0.0,
            elements,
        }
    }

    fn kernel_s(&self, kernel: Kernel) -> Vec<f64> {
        self.kernels
            .iter()
            .filter(|(k, _)| *k == kernel)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Median STREAM-counted bandwidth of `kernel`'s invocations.
    fn gbs(&self, kernel: Kernel) -> f64 {
        let bytes = self.elements as f64 * kernel.bytes_per_element() as f64;
        let rates: Vec<f64> = self
            .kernel_s(kernel)
            .iter()
            .map(|s| bytes / s / 1e9)
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    }
}

/// Runs untraced iterations for `budget`, adding their times to `timed`.
fn timed_iterations(
    stream: &mut PmemStream<'_>,
    pinned: &numa::PinnedPool,
    budget: std::time::Duration,
    done: &mut usize,
    timed: &mut Timed,
    report: &mut Report,
) {
    let start = Instant::now();
    while start.elapsed() < budget && *done < MAX_ITERATIONS / 2 {
        let t = Instant::now();
        let result = stream.run(pinned);
        let seconds = t.elapsed().as_secs_f64();
        let Some(bw) = report.check("STREAM-PMem iteration", result) else {
            break;
        };
        *done += 1;
        timed.iter_s.push(seconds);
        timed
            .kernels
            .extend(bw.measurements().iter().map(|m| (m.kernel, m.seconds)));
    }
    timed.wall += start.elapsed().as_secs_f64();
}

/// Per-worker staging buffers of the replay.
#[derive(Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

struct Replay {
    trace: Trace,
    iter_ns: Vec<u64>,
    /// Summed over invocations: the run span minus the slowest worker's busy
    /// time.
    wait_ns: u64,
    errors: Vec<String>,
}

/// Replays kernel invocations through the public calls `PmemStream` makes —
/// `PinnedPool::run`, then per worker `load_slice` → `Kernel::apply` →
/// `store_slice` → `flush`, then one `PmemPool::drain` — with a span around
/// each call.
fn replay_iterations(
    pool: &PmemPool,
    arrays: &[PersistentArray<'_, f64>; 3],
    workers: &numa::PinnedPool,
    config: StreamConfig,
    budget: std::time::Duration,
    done: &mut usize,
) -> Replay {
    let mut trace = Trace::new();
    let clock = trace.clock();
    let scratch: Vec<Mutex<Scratch>> = (0..workers.len()).map(|_| Mutex::default()).collect();
    let mut iter_ns = Vec::new();
    let mut wait_ns = 0u64;
    let mut errors = Vec::new();
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed() < budget && *done < MAX_ITERATIONS {
        let iteration = trace.open("stream.iteration", None, req);
        for kernel in Kernel::ALL {
            let inv = trace.open("stream.invocation", Some(iteration), req);
            let run = trace.open("numa.pool.run", Some(inv), req);
            let results = workers.run(|ctx| {
                let mut spans: Vec<LocalSpan> = Vec::with_capacity(4);
                let (lo, hi) = ctx.chunk(config.elements);
                if lo == hi {
                    return (Ok(()), spans);
                }
                let len = hi - lo;
                let mut guard = scratch[ctx.thread].lock().expect("replay scratch lock");
                let s = &mut *guard;
                s.a.resize(len, 0.0);
                s.b.resize(len, 0.0);
                s.c.resize(len, 0.0);
                let (reads_a, reads_b, reads_c) = kernel.reads();
                let loaded = local(
                    &clock,
                    &mut spans,
                    "pmem.array.load_slice",
                    || -> pmem::Result<()> {
                        if reads_a {
                            arrays[0].load_slice(lo as u64, &mut s.a)?;
                        }
                        if reads_b {
                            arrays[1].load_slice(lo as u64, &mut s.b)?;
                        }
                        if reads_c {
                            arrays[2].load_slice(lo as u64, &mut s.c)?;
                        }
                        Ok(())
                    },
                );
                if loaded.is_err() {
                    return (loaded, spans);
                }
                local(&clock, &mut spans, "stream.kernel.apply", || {
                    kernel.apply(&mut s.a, &mut s.b, &mut s.c, config.scalar)
                });
                let (output, buf) = match kernel.output() {
                    StreamArray::A => (&arrays[0], &s.a),
                    StreamArray::B => (&arrays[1], &s.b),
                    StreamArray::C => (&arrays[2], &s.c),
                };
                let stored = local(&clock, &mut spans, "pmem.array.store_slice", || {
                    output.store_slice(lo as u64, buf)
                });
                if stored.is_err() {
                    return (stored, spans);
                }
                let flushed = local(&clock, &mut spans, "pmem.array.flush", || {
                    output.flush(lo as u64, len as u64)
                });
                (flushed, spans)
            });
            let run_ns = trace.close(run);
            let busiest = results
                .iter()
                .map(|(_, spans)| spans.iter().map(|s| s.end - s.start).sum::<u64>())
                .max()
                .unwrap_or(0);
            wait_ns += run_ns.saturating_sub(busiest);
            for (result, spans) in results {
                trace.adopt(run, req, &spans);
                if let Err(e) = result {
                    errors.push(format!("replayed {} invocation: {e}", kernel.name()));
                }
            }
            trace.span("pmem.pool.drain", Some(inv), req, || pool.drain());
            trace.close(inv);
        }
        iter_ns.push(trace.close(iteration));
        *done += 1;
        req += 1;
    }
    Replay {
        trace,
        iter_ns,
        wait_ns,
        errors,
    }
}

/// Derives the per-layer shares from the replay's spans and checks the
/// replay against the untraced `PmemStream` iteration time.
fn trace_metrics(
    report: &mut Report,
    replay: &Replay,
    threads: usize,
    untraced: &Timed,
    traced_s: &[f64],
) {
    let (trace, wait_ns) = (&replay.trace, replay.wait_ns);
    let invocations = trace.total("stream.invocation") as f64;
    let per_worker = |name: &str| trace.total(name) as f64 / threads as f64;
    report.set(
        "pmem.array.load_share",
        per_worker("pmem.array.load_slice") / invocations,
    );
    report.set(
        "pmem.array.store_share",
        per_worker("pmem.array.store_slice") / invocations,
    );
    report.set(
        "stream.kernel.apply_share",
        per_worker("stream.kernel.apply") / invocations,
    );
    report.set(
        "pmem.persist.flush_share",
        per_worker("pmem.array.flush") / invocations,
    );
    report.set(
        "pmem.persist.drain_share",
        trace.total("pmem.pool.drain") as f64 / invocations,
    );
    report.set("numa.pool.wait_share", wait_ns as f64 / invocations);
    report.line(
        "numa.pool.run_self_share",
        trace.self_total("numa.pool.run") as f64 / invocations,
        "share",
        "run span not covered by any worker's layer calls: dispatch and barrier",
    );
    // Staging rates, aggregated over workers: bytes over the mean per-worker
    // time spent in the call.
    let elements = untraced.elements as f64;
    let iterations = traced_s.len() as f64;
    let loaded = iterations
        * Kernel::ALL
            .iter()
            .map(|k| k.read_bytes_per_element() as f64)
            .sum::<f64>()
        * elements;
    let stored = iterations * 4.0 * 8.0 * elements;
    report.set(
        "pmem.array.load_gbs",
        loaded / per_worker("pmem.array.load_slice"),
    );
    report.set(
        "pmem.array.store_gbs",
        stored / per_worker("pmem.array.store_slice"),
    );
    let untraced_p50 = stats::median(&untraced.iter_s).unwrap_or(0.0);
    let traced_p50 = stats::median(traced_s).unwrap_or(0.0);
    report.line(
        "stream.untraced_iteration_ms",
        untraced_p50 * 1e3,
        "ms",
        &format!("median of n={}", untraced.iter_s.len()),
    );
    report.line(
        "stream.traced_iteration_ms",
        traced_p50 * 1e3,
        "ms",
        &format!("median of n={}", traced_s.len()),
    );
    report.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    // The replay stands in for PmemStream only if it does the same work in
    // about the same time.
    let ratio = traced_p50 / untraced_p50;
    if !(0.5..=2.0).contains(&ratio) {
        report.fail(&format!(
            "replayed iteration takes {ratio:.2}x the PmemStream iteration"
        ));
    }
}

/// Volatile STREAM on the same array size, with a fresh runtime's worker
/// pool.
fn volatile(report: &mut Report, base: StreamConfig, threads: usize) -> f64 {
    let runtime = RuntimeBuilder::setup1().build();
    let Some(pinned) = report.check(
        "worker pool",
        runtime.worker_pool_for(&AffinityPolicy::close(), threads),
    ) else {
        return 0.0;
    };
    let config = StreamConfig {
        ntimes: 1 + VOLATILE_ITERATIONS,
        ..base
    };
    let mut stream = VolatileStream::new(config);
    report.attempt();
    let bw = stream.run(&pinned);
    let triad_bytes = base.bytes_per_invocation(Kernel::Triad) as f64;
    let rates: Vec<f64> = bw
        .measurements()
        .iter()
        .skip(Kernel::ALL.len())
        .filter(|m| m.kernel == Kernel::Triad)
        .map(|m| triad_bytes / m.seconds / 1e9)
        .collect();
    let gbs = stats::median(&rates).unwrap_or(0.0);
    report.line(
        "volatile_triad_gbs",
        gbs,
        "GB/s",
        &format!("median of n={}", rates.len()),
    );
    report.attempt();
    let err = stream.validate();
    if err > TOLERANCE {
        report.fail(&format!("volatile STREAM arrays off by {err}"));
    }
    gbs
}

//! STREAM-PMem: the three arrays live in a persistent pool (App-Direct).
//!
//! This mirrors Listing 2 of the paper: the pool is created (or opened), the
//! three arrays are allocated from it, and the rest of the benchmark proceeds
//! unchanged. The arrays can live on any pool — including one provisioned on
//! the CXL expander by `cxl-pmem` — which is exactly the programming-model
//! portability argument the paper makes.
//!
//! The execution core stages as little as possible, through a cache-sized
//! block. Each worker walks its chunk `[lo, hi)` in blocks of 8192 elements
//! (one 64 KiB [`pmem::STAGING_BLOCK_BYTES`] block per array): it loads this
//! block of only the arrays its kernel *reads*, applies the kernel, and
//! stores this block of the one array the kernel *writes*, so the block
//! stays in cache from load to store and no whole-chunk copy is ever made.
//! After its last block the worker issues one `flush` for its whole chunk,
//! and a single `drain` fence per kernel invocation then makes every chunk
//! durable — the persist-granularity batching that keeps the PMDK overhead
//! at the paper's 10–15 % instead of a per-range fence storm:
//!
//! ```text
//! worker t:  for each block in [lo, hi):  load_slice(inputs) → apply → store_slice(output)
//!            flush(output, lo, hi - lo)            (one per worker, no fence)
//! caller:    drain()                               (one per invocation)
//! ```
//!
//! The scratch buffers (at most one block per array) live **with the
//! stream**, matching the persistent [`PinnedPool`] worker lifecycle: the
//! resident workers re-claim the same [`PerWorker`] slots on every `run`
//! (and every epoch within a run) instead of getting freshly allocated
//! staging buffers per call.

use crate::exec::{AccessSink, PerWorker};
use crate::kernels::{Kernel, StreamArray, StreamConfig};
use crate::report::{BandwidthReport, KernelMeasurement};
use numa::{PinnedPool, WorkerCtx};
use pmem::{PersistentArray, PmemPool, Result as PmemResult, TypedOid};
use std::sync::Arc;
use std::time::Instant;

/// Elements of one staged block: one [`pmem::STAGING_BLOCK_BYTES`] block of
/// `f64`s per array, so a block's load → kernel → store stays in cache.
const BLOCK_ELEMS: usize = pmem::STAGING_BLOCK_BYTES / std::mem::size_of::<f64>();

/// Per-worker staging buffers of at most one block per array, reused across
/// every kernel invocation of every run of the stream.
#[derive(Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Scratch {
    /// Grows each buffer to `len` elements (never past one block).
    fn grow(&mut self, len: usize) {
        let len = len.min(BLOCK_ELEMS);
        if self.a.len() < len {
            self.a.resize(len, 0.0);
            self.b.resize(len, 0.0);
            self.c.resize(len, 0.0);
        }
    }
}

/// STREAM-PMem over three persistent arrays in a pool.
pub struct PmemStream<'p> {
    config: StreamConfig,
    pool: &'p PmemPool,
    a: PersistentArray<'p, f64>,
    b: PersistentArray<'p, f64>,
    c: PersistentArray<'p, f64>,
    /// Staging buffers owned for the stream's lifetime; slot `t` is re-claimed
    /// by resident worker `t` on every epoch. Re-sized lazily when a run uses
    /// a pool with a different worker count.
    scratch: PerWorker<Scratch>,
    /// Optional access-sampling sink (the tiering engine's heat counters).
    tracker: Option<Arc<dyn AccessSink>>,
}

/// The pool-root record STREAM-PMem stores so a restarted run can reattach to
/// its arrays (the `POBJ_LAYOUT`/root-object pattern).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRoot {
    /// Array `a`.
    pub a: TypedOid<f64>,
    /// Array `b`.
    pub b: TypedOid<f64>,
    /// Array `c`.
    pub c: TypedOid<f64>,
}

impl<'p> PmemStream<'p> {
    /// Allocates the three arrays in `pool` and initialises them with the
    /// STREAM initial values (the `initiate()` function of Listing 2).
    pub fn initiate(pool: &'p PmemPool, config: StreamConfig) -> PmemResult<Self> {
        let a = PersistentArray::allocate(pool, config.elements as u64)?;
        let b = PersistentArray::allocate(pool, config.elements as u64)?;
        let c = PersistentArray::allocate(pool, config.elements as u64)?;
        a.fill(2.0)?;
        b.fill(2.0)?;
        c.fill(0.0)?;
        a.persist_all()?;
        b.persist_all()?;
        c.persist_all()?;
        Ok(PmemStream {
            config,
            pool,
            a,
            b,
            c,
            scratch: PerWorker::new(0, |_| Scratch::default()),
            tracker: None,
        })
    }

    /// Reattaches to arrays allocated by a previous run.
    pub fn reattach(pool: &'p PmemPool, config: StreamConfig, root: StreamRoot) -> Self {
        PmemStream {
            config,
            pool,
            a: PersistentArray::from_oid(pool, root.a),
            b: PersistentArray::from_oid(pool, root.b),
            c: PersistentArray::from_oid(pool, root.c),
            scratch: PerWorker::new(0, |_| Scratch::default()),
            tracker: None,
        }
    }

    /// Attaches (or detaches) an access-sampling sink — every worker's staged
    /// window is recorded with the same byte accounting as the in-place path.
    pub fn set_tracker(&mut self, tracker: Option<Arc<dyn AccessSink>>) {
        self.tracker = tracker;
    }

    /// The oids of the three arrays, to be stored via the pool root object.
    pub fn root(&self) -> StreamRoot {
        StreamRoot {
            a: self.a.typed_oid(),
            b: self.b.typed_oid(),
            c: self.c.typed_oid(),
        }
    }

    /// The run configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// One kernel invocation: load inputs, compute, store + flush per chunk,
    /// one drain fence for the whole invocation.
    fn run_kernel_once(
        &self,
        kernel: Kernel,
        pool: &PinnedPool,
        scratch: &PerWorker<Scratch>,
    ) -> PmemResult<f64> {
        let scalar = self.config.scalar;
        let elements = self.config.elements;
        let start = Instant::now();
        let results: Vec<PmemResult<()>> = pool.run(|ctx: WorkerCtx| {
            let (lo, hi) = ctx.chunk(elements);
            if lo == hi {
                return Ok(());
            }
            let len = hi - lo;
            scratch.with(ctx.thread, |s| {
                s.grow(len);
                // Stage only the inputs this kernel reads; the unread buffers
                // keep stale contents that the kernel never looks at.
                let (reads_a, reads_b, reads_c) = kernel.reads();
                let output = match kernel.output() {
                    StreamArray::A => &self.a,
                    StreamArray::B => &self.b,
                    StreamArray::C => &self.c,
                };
                for block in (lo..hi).step_by(BLOCK_ELEMS) {
                    let n = BLOCK_ELEMS.min(hi - block);
                    let (a, b, c) = (&mut s.a[..n], &mut s.b[..n], &mut s.c[..n]);
                    if reads_a {
                        self.a.load_slice(block as u64, a)?;
                    }
                    if reads_b {
                        self.b.load_slice(block as u64, b)?;
                    }
                    if reads_c {
                        self.c.load_slice(block as u64, c)?;
                    }
                    kernel.apply(a, b, c, scalar);
                    let written = match kernel.output() {
                        StreamArray::A => &*a,
                        StreamArray::B => &*b,
                        StreamArray::C => &*c,
                    };
                    output.store_slice(block as u64, written)?;
                }
                // One flush (no fence) for the worker's whole chunk of the
                // array the kernel wrote; the caller issues a single drain
                // for all chunks.
                output.flush(lo as u64, len as u64)?;
                if let Some(sink) = &self.tracker {
                    crate::exec::record_kernel_span(sink.as_ref(), kernel, lo, hi);
                }
                Ok(())
            })
        });
        for result in results {
            result?;
        }
        // One store fence covers every worker's flushed chunk (`pmem_drain`).
        self.pool.drain();
        Ok(start.elapsed().as_secs_f64())
    }

    /// Runs the full STREAM-PMem sequence and returns per-kernel best-of-N
    /// bandwidths.
    ///
    /// The per-worker scratch is owned by the stream and persists across
    /// calls: a second `run` on the same pool stages through the exact same
    /// buffers, claimed epoch-by-epoch by the pool's resident workers.
    pub fn run(&mut self, pool: &PinnedPool) -> PmemResult<BandwidthReport> {
        if self.scratch.len() != pool.len() {
            self.scratch = PerWorker::new(pool.len(), |_| Scratch::default());
        }
        let mut report = BandwidthReport::new(pool.len());
        for _ in 0..self.config.ntimes {
            for kernel in Kernel::ALL {
                let seconds = self.run_kernel_once(kernel, pool, &self.scratch)?;
                report.record(KernelMeasurement {
                    kernel,
                    threads: pool.len(),
                    seconds,
                    bytes: self.config.bytes_per_invocation(kernel),
                });
            }
        }
        Ok(report)
    }

    /// Number of per-worker scratch slots currently provisioned (0 before the
    /// first run; thereafter the worker count of the last pool used).
    pub fn scratch_slots(&self) -> usize {
        self.scratch.len()
    }

    /// Validates the persistent arrays against the analytic expected values;
    /// returns the maximum relative error.
    pub fn validate(&self) -> PmemResult<f64> {
        let (ea, eb, ec) = self.config.expected_values();
        let mut max_err = 0.0f64;
        let mut check = |expected: f64, array: &PersistentArray<'p, f64>| -> PmemResult<()> {
            const CHUNK: usize = 8192;
            let mut buf = vec![0.0f64; CHUNK];
            let mut index = 0u64;
            while index < array.len() {
                let n = CHUNK.min((array.len() - index) as usize);
                array.load_slice(index, &mut buf[..n])?;
                for &v in &buf[..n] {
                    let err = ((v - expected) / expected).abs();
                    if err > max_err {
                        max_err = err;
                    }
                }
                index += n as u64;
            }
            Ok(())
        };
        check(ea, &self.a)?;
        check(eb, &self.b)?;
        check(ec, &self.c)?;
        Ok(max_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sz;
    use numa::topology::sapphire_rapids_cxl;
    use numa::AffinityPolicy;
    use pmem::PmemPool;

    fn worker_pool(threads: usize) -> PinnedPool {
        let topo = sapphire_rapids_cxl();
        let placement = AffinityPolicy::close().place(&topo, threads).unwrap();
        PinnedPool::new(&topo, &placement)
    }

    fn pmem_pool(bytes: u64) -> PmemPool {
        PmemPool::create_volatile("stream-pmem", bytes).unwrap()
    }

    #[test]
    fn initiate_run_validate() {
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(20_000));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        let report = stream.run(&worker_pool(4)).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
        assert_eq!(report.measurements().len(), 4 * config.ntimes);
        // Persist instrumentation proves the App-Direct path flushed data.
        assert!(pool.persist_stats().bytes_persisted > 0);
    }

    #[test]
    fn flush_batching_is_chunk_granular() {
        // Regression test for the flush-batched persist path: each kernel
        // invocation must issue at most one flush per worker (only workers
        // with non-empty chunks flush) and exactly one drain fence.
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(10_007));
        let threads = 6;
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        let before = pool.persist_stats();
        stream.run(&worker_pool(threads)).unwrap();
        let after = pool.persist_stats();
        let invocations = (config.ntimes * Kernel::ALL.len()) as u64;
        let flushes = after.flushes - before.flushes;
        let drains = after.drains - before.drains;
        assert!(
            flushes <= invocations * threads as u64,
            "{flushes} flushes for {invocations} invocations × {threads} workers"
        );
        assert_eq!(
            drains, invocations,
            "exactly one drain fence per kernel invocation"
        );
        // Every written byte still reaches the backend: one chunk flush per
        // worker covers the worker's whole written range.
        let written_per_invocation = (config.elements * 8) as u64;
        assert_eq!(
            after.bytes_persisted - before.bytes_persisted,
            invocations * written_per_invocation
        );
    }

    /// The largest staging buffer any worker slot of `stream` holds.
    fn scratch_elems(stream: &PmemStream<'_>) -> usize {
        (0..stream.scratch.len())
            .map(|t| {
                stream.scratch.with(t, |s| {
                    [&s.a, &s.b, &s.c]
                        .iter()
                        .map(|v| v.len().max(v.capacity()))
                        .max()
                        .unwrap_or(0)
                })
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    #[cfg_attr(miri, ignore = "each worker spans several 8192-element blocks")]
    fn multi_block_chunks_keep_the_persist_contract_and_bounded_scratch() {
        let threads = 3;
        let workers = worker_pool(threads);
        // Each worker's chunk spans two or five whole blocks plus a ragged
        // tail; the scratch must stay one block per array either way.
        for elements in [
            threads * (2 * BLOCK_ELEMS + 1_000) + 2,
            threads * (5 * BLOCK_ELEMS + 7),
        ] {
            let pool = pmem_pool(8 * 1024 * 1024);
            let config = StreamConfig::small(elements);
            let mut stream = PmemStream::initiate(&pool, config).unwrap();
            stream.scratch = PerWorker::new(threads, |_| Scratch::default());
            for _ in 0..config.ntimes {
                for kernel in Kernel::ALL {
                    let before = pool.persist_stats();
                    stream
                        .run_kernel_once(kernel, &workers, &stream.scratch)
                        .unwrap();
                    let after = pool.persist_stats();
                    assert!(after.flushes - before.flushes <= threads as u64);
                    assert_eq!(after.drains - before.drains, 1);
                    assert_eq!(
                        after.bytes_persisted - before.bytes_persisted,
                        elements as u64 * 8
                    );
                }
            }
            assert!(stream.validate().unwrap() < 1e-12);
            assert_eq!(scratch_elems(&stream), BLOCK_ELEMS, "{elements} elements");
        }
    }

    #[test]
    fn scratch_never_exceeds_the_chunk() {
        let pool = pmem_pool(4 * 1024 * 1024);
        let config = StreamConfig::small(sz(1_000));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.run(&worker_pool(2)).unwrap();
        assert_eq!(scratch_elems(&stream), config.elements.div_ceil(2));
    }

    #[test]
    fn more_workers_than_elements_flushes_only_nonempty_chunks() {
        let pool = pmem_pool(4 * 1024 * 1024);
        let config = StreamConfig::small(3);
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        let before = pool.persist_stats();
        stream.run(&worker_pool(8)).unwrap();
        let after = pool.persist_stats();
        let invocations = (config.ntimes * Kernel::ALL.len()) as u64;
        // Only the 3 workers with non-empty chunks flush.
        assert_eq!(after.flushes - before.flushes, invocations * 3);
        assert!(stream.validate().unwrap() < 1e-12);
    }

    #[test]
    fn scratch_is_resident_across_runs_and_tracks_pool_size() {
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(4_096));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        assert_eq!(stream.scratch_slots(), 0, "no scratch before the first run");
        stream.run(&worker_pool(4)).unwrap();
        assert_eq!(stream.scratch_slots(), 4);
        // A second run on the same worker count keeps the same slots (the
        // resident workers re-claim them); a different count re-provisions.
        stream.run(&worker_pool(4)).unwrap();
        assert_eq!(stream.scratch_slots(), 4);
        stream.run(&worker_pool(2)).unwrap();
        assert_eq!(stream.scratch_slots(), 2);
        // Three back-to-back runs advance the arrays by 3 × ntimes iterations;
        // validate through a view whose config expects exactly that.
        let accumulated = StreamConfig {
            ntimes: config.ntimes * 3,
            ..config
        };
        let view = PmemStream::reattach(&pool, accumulated, stream.root());
        assert!(view.validate().unwrap() < 1e-12);
    }

    #[test]
    fn arrays_survive_reattach() {
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(5_000));
        let root = {
            let mut stream = PmemStream::initiate(&pool, config).unwrap();
            stream.run(&worker_pool(2)).unwrap();
            stream.root()
        };
        let reattached = PmemStream::reattach(&pool, config, root);
        assert!(reattached.validate().unwrap() < 1e-12);
    }

    #[test]
    fn attached_tracker_samples_the_staged_hot_path() {
        use std::sync::Arc;

        let pool = pmem_pool(8 * 1024 * 1024);
        let elements = sz(8_192);
        let config = StreamConfig::small(elements);
        let tracker = Arc::new(cxl_pmem::AccessTracker::new(elements as u64 * 8, 2048));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.set_tracker(Some(tracker.clone()));
        stream.run(&worker_pool(4)).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
        let heat = tracker.heat();
        let span = elements as u64 * 8;
        let ntimes = config.ntimes as u64;
        assert_eq!(
            heat.iter().map(|h| h.read_bytes).sum::<u64>(),
            ntimes * span * 6,
            "Copy+Scale read once, Add+Triad read twice"
        );
        assert_eq!(
            heat.iter().map(|h| h.write_bytes).sum::<u64>(),
            ntimes * span * 4
        );
        assert!(heat.iter().all(|h| h.total() > 0));
    }

    #[test]
    fn pool_too_small_for_arrays_errors() {
        let pool = pmem_pool(512 * 1024);
        let config = StreamConfig::small(1_000_000);
        assert!(PmemStream::initiate(&pool, config).is_err());
    }

    #[test]
    fn single_thread_matches_expected_values_exactly() {
        let pool = pmem_pool(4 * 1024 * 1024);
        let config = StreamConfig::small(sz(1_000));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.run(&worker_pool(1)).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
    }

    #[test]
    fn awkward_partition_sizes_validate() {
        for (elements, threads) in [(sz(9973), 7), (11, 8), (1, 2)] {
            let pool = pmem_pool(8 * 1024 * 1024);
            let config = StreamConfig::small(elements);
            let mut stream = PmemStream::initiate(&pool, config).unwrap();
            stream.run(&worker_pool(threads)).unwrap();
            assert!(
                stream.validate().unwrap() < 1e-12,
                "{elements} elements on {threads} threads"
            );
        }
    }
}

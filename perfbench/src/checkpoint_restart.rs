//! `checkpoint_restart`: the HPC fault-tolerance path. Two hosts share one
//! checkpoint segment on switch-pooled expanders; the owner commits
//! checkpoints that each rewrite a seeded quarter of the chunks, and every
//! round the other host acquires, restores, checks the bytes and continues
//! the epoch chain as the new owner.
//!
//! Stresses `pmem::checkpoint` (chunk hashing, dirty set, one undo-log
//! transaction per commit) and the failover reopen in `core::cluster`.

use crate::counters;
use crate::gen::{mix, mutate_chunks, pick_chunks, Rng};
use crate::report::Report;
use crate::trace::Trace;
use crate::{record_ops, stats, workers, Args, SETUPS};
use cxl::{CoherenceMode, FpgaPrototype, Type3Device};
use cxl_pmem::{
    DisaggregatedCluster, HostSegment, PooledChunkExecutor, RuntimeBuilder, TierPolicy,
};
use numa::{AffinityPolicy, PinnedPool};
use pmem::CheckpointRegion;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Snapshot bytes. A snapshot whose two slots exceed a 300 MiB LLC (128 MiB)
/// commits in ~0.22 s on a 2-vCPU VM; a 20 s run then cannot reach the 100
/// commits a p90 needs. At 32 MiB a commit takes ~60 ms, so a run stays well
/// above 100 commits even when the host steals a third of the CPU time, and
/// the tail reported is the same percentile in every run.
const SNAPSHOT_BYTES: usize = 32 << 20;
/// Chunk size the segment persists at.
const CHUNK_BYTES: usize = 1 << 20;
/// Share of the chunks each checkpoint rewrites.
const DIRTY_FRACTION: f64 = 0.25;
/// Commits per ownership round, before the other host takes over. A round
/// (~0.7 s) is the workload's end-to-end op: long enough that the host's
/// preemptions average out within it, unlike one ~60 ms commit whose p90
/// mostly measures them.
const COMMITS_PER_ROUND: usize = 8;
/// Pooled expander cards behind the switch.
const CARDS: usize = 2;

/// One set-up: the cluster, both host handles and the workload state.
struct Rig {
    /// Owns the switch the segment was carved from.
    _cluster: DisaggregatedCluster,
    devices: Vec<Arc<Type3Device>>,
    hosts: [HostSegment; 2],
    owner: usize,
    epoch: u64,
    snapshot: Vec<u8>,
    restored: Vec<u8>,
    rng: Rng,
}

fn setup(seed: u64, pinned: &PinnedPool, report: &mut Report) -> Option<Rig> {
    let cluster = DisaggregatedCluster::new("checkpoint-rack", CoherenceMode::SoftwareManaged);
    let devices: Vec<Arc<Type3Device>> = (0..CARDS)
        .map(|_| FpgaPrototype::paper_prototype().endpoint())
        .collect();
    for d in &devices {
        cluster.attach_device(Arc::clone(d));
    }
    let owner = report.check(
        "create_segment",
        cluster
            .host(0)
            .create_segment("checkpoint", SNAPSHOT_BYTES as u64, CHUNK_BYTES as u64),
    )?;
    let spare = report.check(
        "attach_segment",
        cluster.host(1).attach_segment("checkpoint"),
    )?;
    let mut rng = Rng::new(seed);
    let mut snapshot = vec![0u8; SNAPSHOT_BYTES];
    rng.fill(&mut snapshot);
    let mut rig = Rig {
        _cluster: cluster,
        devices,
        hosts: [owner, spare],
        owner: 0,
        epoch: 0,
        snapshot,
        restored: vec![0u8; SNAPSHOT_BYTES],
        rng,
    };
    // Populate: the first commit writes every chunk.
    rig.commit(pinned, report)?;
    // First touch of the failover path and the restore buffer.
    rig.failover(report)?;
    Some(rig)
}

/// Timings of one phase of the loop.
#[derive(Default)]
struct Phase {
    /// One checkpoint-restart cycle: the round's commits plus its failover.
    round_s: Vec<f64>,
    commit_s: Vec<f64>,
    failover_s: Vec<f64>,
    chunks_written: usize,
    chunks_total: usize,
    wall: f64,
}

impl Rig {
    /// Mutates a seeded quarter of the chunks (untimed) and commits.
    fn mutate(&mut self) {
        let dirty = pick_chunks(&mut self.rng, SNAPSHOT_BYTES / CHUNK_BYTES, DIRTY_FRACTION);
        mutate_chunks(&mut self.rng, &mut self.snapshot, CHUNK_BYTES, &dirty);
    }

    /// One checkpoint commit by the owner; returns (seconds, chunks written,
    /// chunks total).
    fn commit(&mut self, pinned: &PinnedPool, report: &mut Report) -> Option<(f64, usize, usize)> {
        let t = Instant::now();
        let result =
            self.hosts[self.owner].checkpoint_with(&self.snapshot, &PooledChunkExecutor(pinned));
        let seconds = t.elapsed().as_secs_f64();
        let stats = report.check("checkpoint commit", result)?;
        self.epoch += 1;
        if stats.epoch != self.epoch {
            report.fail(&format!(
                "commit returned epoch {} for {}",
                stats.epoch, self.epoch
            ));
            return None;
        }
        Some((seconds, stats.chunks_written, stats.chunks_total))
    }

    /// The spare host acquires and restores (timed), the bytes are checked,
    /// and it becomes the owner.
    fn failover(&mut self, report: &mut Report) -> Option<f64> {
        let spare = 1 - self.owner;
        let t = Instant::now();
        let acquired = self.hosts[spare].acquire();
        let restored = acquired.and_then(|_| self.hosts[spare].restore(&mut self.restored));
        let seconds = t.elapsed().as_secs_f64();
        let epoch = report.check("failover acquire + restore", restored)?;
        self.check_restored(epoch, report)?;
        self.owner = spare;
        Some(seconds)
    }

    fn check_restored(&self, epoch: u64, report: &mut Report) -> Option<()> {
        check_restored(epoch, self.epoch, &self.restored, &self.snapshot, report)
    }

    /// Rounds of commits and failovers until `budget` is spent. With a
    /// `trace`, records spans around the cluster calls and a replay of the
    /// commit's chunk hashing.
    fn rounds(
        &mut self,
        pinned: &PinnedPool,
        budget: Duration,
        report: &mut Report,
        mut trace: Option<&mut Trace>,
        phase: &mut Phase,
    ) {
        let start = Instant::now();
        let mut req = 0u64;
        'rounds: while start.elapsed() < budget {
            let mut round = 0.0;
            for _ in 0..COMMITS_PER_ROUND {
                self.mutate();
                if let Some(t) = trace.as_deref_mut() {
                    // The commit hashes every chunk once to find the dirty
                    // set; this replays that hashing on its own.
                    let chunks = &self.snapshot;
                    t.span("pmem.fnv1a", None, req, || {
                        for chunk in chunks.chunks(CHUNK_BYTES) {
                            std::hint::black_box(pmem::pool::fnv1a(chunk));
                        }
                    });
                }
                let span = trace
                    .as_deref_mut()
                    .map(|t| t.open("core.cluster.checkpoint_with", None, req));
                let committed = self.commit(pinned, report);
                if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
                    t.close(id);
                }
                let Some((seconds, written, total)) = committed else {
                    break 'rounds;
                };
                round += seconds;
                phase.commit_s.push(seconds);
                phase.chunks_written += written;
                phase.chunks_total += total;
                req += 1;
            }
            let failed_over = match trace.as_deref_mut() {
                None => self.failover(report),
                Some(t) => self.traced_failover(t, req, report),
            };
            let Some(seconds) = failed_over else {
                break;
            };
            phase.failover_s.push(seconds);
            phase.round_s.push(round + seconds);
            req += 1;
        }
        phase.wall += start.elapsed().as_secs_f64();
    }

    /// A failover with spans around acquire, the first (cold) restore and a
    /// second (warm) restore.
    fn traced_failover(&mut self, t: &mut Trace, req: u64, report: &mut Report) -> Option<f64> {
        let spare = 1 - self.owner;
        let host = &mut self.hosts[spare];
        let out = &mut self.restored;
        let start = Instant::now();
        let acquired = t.span("core.cluster.acquire", None, req, || host.acquire());
        let restored = acquired
            .and_then(|_| t.span("core.cluster.restore_cold", None, req, || host.restore(out)));
        let seconds = start.elapsed().as_secs_f64();
        let epoch = report.check("failover acquire + restore", restored)?;
        check_restored(epoch, self.epoch, out, &self.snapshot, report)?;
        let warm = t.span("core.cluster.restore_warm", None, req, || host.restore(out));
        let epoch = report.check("warm restore", warm)?;
        check_restored(epoch, self.epoch, out, &self.snapshot, report)?;
        self.owner = spare;
        Some(seconds)
    }
}

/// A restore must return the last committed epoch, bit-exact.
fn check_restored(
    epoch: u64,
    expected: u64,
    restored: &[u8],
    snapshot: &[u8],
    report: &mut Report,
) -> Option<()> {
    if epoch != expected || restored != snapshot {
        report.fail(&format!(
            "restore of epoch {epoch} (expected {expected}) is not bit-exact"
        ));
        return None;
    }
    Some(())
}

pub fn run(args: &Args, report: &mut Report) {
    report.line("checkpoint.snapshot_bytes", SNAPSHOT_BYTES as f64, "B", "");
    report.line("checkpoint.chunk_bytes", CHUNK_BYTES as f64, "B", "");
    let runtime = RuntimeBuilder::setup1().build();
    let Some(pinned) = report.check(
        "worker pool",
        runtime.worker_pool_for(&AffinityPolicy::close(), workers()),
    ) else {
        return;
    };
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut phase = Phase::default();
    for i in 0..setups {
        let start = Instant::now();
        let Some(mut rig) = setup(mix(args.seed.wrapping_add(i as u64)), &pinned, report) else {
            return;
        };
        setup_times.push(start.elapsed().as_secs_f64());
        if !args.trace {
            rig.rounds(
                &pinned,
                args.seconds / setups as u32,
                report,
                None,
                &mut phase,
            );
            continue;
        }
        rig.rounds(&pinned, args.seconds / 2, report, None, &mut phase);
        let untraced = phase;
        let mut traced = Phase::default();
        let mut trace = Trace::new();
        let region = rig.hosts[0].region();
        let dev0 = counters::devices(&rig.devices);
        let share0 = counters::sharing(&region, 2);
        rig.rounds(
            &pinned,
            args.seconds / 2,
            report,
            Some(&mut trace),
            &mut traced,
        );
        trace_metrics(report, &trace, &untraced, &traced);
        let commits = traced.commit_s.len() as f64;
        let (dev_read, dev_written) =
            counters::record_device(report, dev0, counters::devices(&rig.devices), commits);
        report.line(
            "cxl.device.bytes_written_per_checkpoint",
            dev_written / commits,
            "B",
            "includes the phase's failover traffic",
        );
        let user = SNAPSHOT_BYTES as f64 * (commits + 2.0 * traced.failover_s.len() as f64);
        report.set("pmem.bytes_amplification", (dev_read + dev_written) / user);
        report.set(
            "pmem.write_amplification",
            dev_written / (SNAPSHOT_BYTES as f64 * commits),
        );
        let shared =
            counters::record_sharing(report, share0, counters::sharing(&region, 2), commits);
        report.line(
            "cxl.sharing.publishes",
            shared.publishes as f64,
            "count",
            "traced phase",
        );
        report.line(
            "cxl.sharing.acquires",
            shared.acquires as f64,
            "count",
            "traced phase",
        );
        report.set(
            "pmem.checkpoint.written_ratio",
            traced.chunks_written as f64 / traced.chunks_total.max(1) as f64,
        );
        drop(rig);
        bare_replay(mix(args.seed), &pinned, report);
        return;
    }
    report.set("setup_s", stats::median(&setup_times).unwrap_or(0.0));
    record_ops(
        report,
        &phase.round_s,
        phase.round_s.len() as u64,
        phase.wall,
        "checkpoint-restart rounds: 8 commits + failover",
    );
    print_e2e(report, &phase);
}

/// The cluster handles keep their pool to themselves, so the persist counts
/// come from a few commits of the same shape on a bare `CheckpointRegion` in
/// a pool on the CXL expander.
fn bare_replay(seed: u64, pinned: &PinnedPool, report: &mut Report) {
    const COMMITS: u64 = 4;
    let runtime = RuntimeBuilder::setup1().build();
    let Some(pool) = report.check(
        "provision bare checkpoint pool",
        runtime.checkpoint_region(
            &TierPolicy::CxlExpander,
            "checkpoint-bare",
            SNAPSHOT_BYTES as u64,
            CHUNK_BYTES as u64,
        ),
    ) else {
        return;
    };
    let Some(mut region) = report.check("open bare region", CheckpointRegion::open_root(&pool))
    else {
        return;
    };
    let mut rng = Rng::new(seed);
    let mut snapshot = vec![0u8; SNAPSHOT_BYTES];
    rng.fill(&mut snapshot);
    let exec = PooledChunkExecutor(pinned);
    // The populating commit writes every chunk; it is not counted.
    if report
        .check("bare populate", region.checkpoint_with(&snapshot, &exec))
        .is_none()
    {
        return;
    }
    let before = pool.persist_stats();
    for _ in 0..COMMITS {
        let dirty = pick_chunks(&mut rng, SNAPSHOT_BYTES / CHUNK_BYTES, DIRTY_FRACTION);
        mutate_chunks(&mut rng, &mut snapshot, CHUNK_BYTES, &dirty);
        if report
            .check("bare commit", region.checkpoint_with(&snapshot, &exec))
            .is_none()
        {
            return;
        }
    }
    counters::record_persist(report, before, pool.persist_stats(), COMMITS as f64);
    let mut restored = vec![0u8; SNAPSHOT_BYTES];
    if let Some(epoch) = report.check("bare restore", region.restore(&mut restored)) {
        check_restored(epoch, COMMITS + 1, &restored, &snapshot, report);
    }
}

fn print_e2e(report: &mut Report, phase: &Phase) {
    let ms: Vec<f64> = phase.commit_s.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    report.line(
        "checkpoint_p50_ms",
        stats::median(&ms).unwrap_or(0.0),
        "ms",
        &format!("n={n}"),
    );
    match stats::supported_percentile(&ms, 90.0) {
        Some(p90) => report.line("checkpoint_p90_ms", p90, "ms", &format!("n={n}")),
        None => println!(
            "# checkpoint_p90_ms unsupported: n={n} leaves fewer than 10 samples beyond p90"
        ),
    }
    let failover: Vec<f64> = phase.failover_s.iter().map(|s| s * 1e3).collect();
    report.line(
        "failover_p50_ms",
        stats::median(&failover).unwrap_or(0.0),
        "ms",
        &format!("acquire + first restore, n={}", failover.len()),
    );
    report.line(
        "checkpoint.written_ratio",
        phase.chunks_written as f64 / phase.chunks_total.max(1) as f64,
        "ratio",
        "chunks_written / chunks_total",
    );
}

fn trace_metrics(report: &mut Report, trace: &Trace, untraced: &Phase, traced: &Phase) {
    let ms = |ns: f64| ns / 1e6;
    let med = |name: &str| {
        stats::median(
            &trace
                .durations(name)
                .iter()
                .map(|&d| d as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let hash_ns = trace.total("pmem.fnv1a") as f64;
    let commit_ns = trace.total("core.cluster.checkpoint_with") as f64;
    report.set(
        "pmem.hash_gbs",
        traced.commit_s.len() as f64 * SNAPSHOT_BYTES as f64 / hash_ns,
    );
    report.set("pmem.checkpoint.hash_share", hash_ns / commit_ns);
    let acquire = med("core.cluster.acquire");
    let cold = med("core.cluster.restore_cold");
    let warm = med("core.cluster.restore_warm");
    report.line("core.cluster.acquire_us", acquire / 1e3, "us", "median");
    report.line(
        "core.cluster.restore_cold_ms",
        ms(cold),
        "ms",
        "median, first restore after acquire",
    );
    report.line(
        "core.cluster.restore_warm_ms",
        ms(warm),
        "ms",
        "median, second restore",
    );
    report.line(
        "core.cluster.reopen_ms",
        ms(cold - warm),
        "ms",
        "cold minus warm",
    );
    report.set("core.cluster.acquire_share", acquire / (acquire + cold));
    report.set(
        "core.cluster.reopen_share",
        (cold - warm) / (acquire + cold),
    );
    let untraced_p50 = stats::median(&untraced.commit_s).unwrap_or(0.0);
    let traced_p50 = stats::median(&traced.commit_s).unwrap_or(0.0);
    report.line(
        "checkpoint.untraced_commit_ms",
        untraced_p50 * 1e3,
        "ms",
        &format!("n={}", untraced.commit_s.len()),
    );
    report.line(
        "checkpoint.traced_commit_ms",
        traced_p50 * 1e3,
        "ms",
        &format!("n={}", traced.commit_s.len()),
    );
    report.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
}

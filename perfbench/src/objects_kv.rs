//! `objects_kv`: a versioned KV over shared far memory. One store of 200k
//! 256 B objects on a two-card software-coherent cluster with four host
//! handles; Zipfian keys (θ = 0.99). Each round the owner put-commits, then
//! every other host acquires and gets; ownership rotates every round.
//!
//! Stresses small ops through `pmem::object`, `pmem::tx`, the `cxl::sharing`
//! locks and the coherence handle. The store fits in the LLC on purpose.

use crate::counters;
use crate::gen::{kv_value, mix, KvRound, KvSchedule};
use crate::report::Report;
use crate::stats::Sampler;
use crate::trace::Trace;
use crate::{record_ops, stats, Args, SETUPS};
use cxl::{CoherenceMode, FpgaPrototype, Type3Device};
use cxl_pmem::{DisaggregatedCluster, HostStore, RuntimeBuilder, TierPolicy};
use pmem::ObjectStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECTS: u64 = 200_000;
const VALUE_BYTES: usize = 256;
const HOSTS: usize = 4;
const THETA: f64 = 0.99;
/// Put-commits by the owner per round.
const WRITES_PER_ROUND: usize = 10;
/// Gets per non-owner host per round: 3 x 30 reads to 10 writes.
const READS_PER_HOST: usize = 30;
/// Pooled expander cards behind the switch.
const CARDS: usize = 2;
/// Versions every object holds after set-up.
const POPULATED_VERSIONS: u64 = 2;

/// One op of the traced phase, replayed on a bare store.
#[derive(Debug, Clone, Copy)]
enum Op {
    Put(u64),
    Get(u64),
}

/// Latency samples (seconds) each op kind keeps at most. A sampler holds
/// at least half of this, far more than the 1000 a p99 needs.
const SAMPLES: usize = 1 << 16;

/// Latency samples (seconds) of one phase.
struct Phase {
    /// Every op, whatever its kind.
    all: Sampler,
    get: Sampler,
    put_commit: Sampler,
    /// Acquire + first get after another host published.
    acquire_get: Sampler,
    /// Acquires that advanced the host's view.
    refreshes: u64,
    wall: f64,
}

impl Phase {
    fn new() -> Self {
        Phase {
            all: Sampler::new(SAMPLES),
            get: Sampler::new(SAMPLES),
            put_commit: Sampler::new(SAMPLES),
            acquire_get: Sampler::new(SAMPLES),
            refreshes: 0,
            wall: 0.0,
        }
    }

    fn reads(&self) -> u64 {
        self.get.seen() + self.acquire_get.seen()
    }
}

/// One set-up: the cluster, the four host handles and the shadow map.
struct Rig {
    /// Owns the switch the store's segment was carved from.
    _cluster: DisaggregatedCluster,
    devices: Vec<Arc<Type3Device>>,
    hosts: Vec<HostStore>,
    /// id -> last committed version; the value is `kv_value(seed, id, v)`.
    shadow: Vec<u64>,
    seed: u64,
    schedule: KvSchedule,
    value: Vec<u8>,
}

fn setup(seed: u64, report: &mut Report) -> Option<Rig> {
    let cluster = DisaggregatedCluster::new("kv-rack", CoherenceMode::SoftwareManaged);
    let devices: Vec<Arc<Type3Device>> = (0..CARDS)
        .map(|_| FpgaPrototype::paper_prototype().endpoint())
        .collect();
    for d in &devices {
        cluster.attach_device(Arc::clone(d));
    }
    let mut hosts = vec![report.check(
        "create_store",
        cluster
            .host(0)
            .create_store("kv", OBJECTS, VALUE_BYTES as u64),
    )?];
    let mut value = vec![0u8; VALUE_BYTES];
    // Populate: versions 1 and 2 of every object, committed by host 0, so
    // both staging slots of every object hold bytes before the timed loop
    // and memory does not grow with the number of ops a run completes.
    for version in 1..=POPULATED_VERSIONS {
        for id in 0..OBJECTS {
            kv_value(seed, id, version, &mut value);
            let epoch = report.check("populate put_commit", hosts[0].put_commit(id, &value))?;
            if epoch != version {
                report.fail(&format!("populate of {id} committed epoch {epoch}"));
                return None;
            }
        }
    }
    for h in 1..HOSTS {
        hosts.push(report.check("open_store", cluster.host(h).open_store("kv"))?);
    }
    let mut rig = Rig {
        _cluster: cluster,
        devices,
        hosts,
        shadow: vec![POPULATED_VERSIONS; OBJECTS as usize],
        seed,
        schedule: KvSchedule::new(
            seed,
            OBJECTS,
            THETA,
            HOSTS,
            WRITES_PER_ROUND,
            READS_PER_HOST,
        ),
        value,
    };
    // First touch: every other host acquires and opens the store.
    for h in 1..HOSTS {
        report.check("first acquire", rig.hosts[h].acquire())?;
        let got = report.check("first get", rig.hosts[h].get(0))?;
        rig.check_value(0, &got, report)?;
    }
    Some(rig)
}

impl Rig {
    fn check_value(&mut self, id: u64, got: &[u8], report: &mut Report) -> Option<()> {
        kv_value(self.seed, id, self.shadow[id as usize], &mut self.value);
        if got != self.value.as_slice() {
            report.fail(&format!(
                "get({id}) differs from committed version {}",
                self.shadow[id as usize]
            ));
            return None;
        }
        Some(())
    }

    /// Rounds until `budget` is spent. With a trace, records spans around
    /// every cluster call (splitting put_commit into put and commit) and the
    /// op sequence for the bare-store replay.
    fn rounds(
        &mut self,
        budget: Duration,
        report: &mut Report,
        mut trace: Option<(&mut Trace, &mut Vec<Op>)>,
        phase: &mut Phase,
    ) {
        let start = Instant::now();
        let mut req = 0u64;
        'rounds: while start.elapsed() < budget {
            let round: KvRound = self.schedule.next().expect("the schedule is endless");
            for &id in &round.writes {
                let version = self.shadow[id as usize] + 1;
                kv_value(self.seed, id, version, &mut self.value);
                let host = &mut self.hosts[round.owner];
                let value = &self.value;
                let t = Instant::now();
                let result = match trace.as_mut() {
                    None => host.put_commit(id, value),
                    Some((tr, ops)) => {
                        ops.push(Op::Put(id));
                        let put = tr.span("core.cluster.put", None, req, || host.put(id, value));
                        put.and_then(|_| {
                            tr.span("core.cluster.commit", None, req, || host.commit(id))
                        })
                    }
                };
                let seconds = t.elapsed().as_secs_f64();
                req += 1;
                let Some(epoch) = report.check("put_commit", result) else {
                    break 'rounds;
                };
                if epoch != version {
                    report.fail(&format!(
                        "put_commit({id}) committed epoch {epoch}, expected {version}"
                    ));
                    break 'rounds;
                }
                self.shadow[id as usize] = version;
                phase.put_commit.push(seconds);
                phase.all.push(seconds);
            }
            for (h, ids) in &round.reads {
                for (k, &id) in ids.iter().enumerate() {
                    let host = &mut self.hosts[*h];
                    let t = Instant::now();
                    let result = match trace.as_mut() {
                        None if k == 0 => host.acquire().and_then(|_| host.get(id)),
                        None => host.get(id),
                        Some((tr, ops)) => {
                            ops.push(Op::Get(id));
                            if k == 0 {
                                let acquired =
                                    tr.span("core.cluster.acquire", None, req, || host.acquire());
                                acquired.and_then(|_| {
                                    tr.span("core.cluster.get_first", None, req, || host.get(id))
                                })
                            } else {
                                tr.span("core.cluster.get", None, req, || host.get(id))
                            }
                        }
                    };
                    let seconds = t.elapsed().as_secs_f64();
                    req += 1;
                    let Some(got) = report.check("get", result) else {
                        break 'rounds;
                    };
                    if self.check_value(id, &got, report).is_none() {
                        break 'rounds;
                    }
                    if k == 0 {
                        // Every round's owner published, so each first read
                        // follows a view-advancing acquire.
                        phase.refreshes += 1;
                        phase.acquire_get.push(seconds);
                    } else {
                        phase.get.push(seconds);
                    }
                    phase.all.push(seconds);
                }
            }
        }
        phase.wall += start.elapsed().as_secs_f64();
    }

    /// Conservation at the end: a host acquires and audits the directory.
    fn verify(&mut self, report: &mut Report) {
        let host = &mut self.hosts[0];
        let check = report
            .check("final acquire", host.acquire())
            .and_then(|_| report.check("verify", host.verify()));
        if let Some(check) = check {
            let max_version = self.shadow.iter().copied().max().unwrap_or(0);
            if check.live != OBJECTS || check.free != 0 || check.max_epoch != max_version {
                report.fail(&format!(
                    "verify found live={} free={} max_epoch={}, expected {OBJECTS}/0/{max_version}",
                    check.live, check.free, check.max_epoch
                ));
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    report.line("kv.objects", OBJECTS as f64, "count", "");
    report.line("kv.value_bytes", VALUE_BYTES as f64, "B", "");
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut phase = Phase::new();
    for i in 0..setups {
        let start = Instant::now();
        let Some(mut rig) = setup(mix(args.seed.wrapping_add(i as u64)), report) else {
            return;
        };
        setup_times.push(start.elapsed().as_secs_f64());
        if !args.trace {
            rig.rounds(args.seconds / setups as u32, report, None, &mut phase);
            rig.verify(report);
            continue;
        }
        rig.rounds(args.seconds / 2, report, None, &mut phase);
        let untraced = phase;
        let mut traced = Phase::new();
        let mut trace = Trace::new();
        let mut ops = Vec::new();
        let region = rig.hosts[0].region();
        let dev0 = counters::devices(&rig.devices);
        let share0 = counters::sharing(&region, HOSTS);
        // The bare-store replay takes part of the traced half.
        rig.rounds(
            args.seconds * 2 / 5,
            report,
            Some((&mut trace, &mut ops)),
            &mut traced,
        );
        let n_ops = ops.len() as f64;
        let puts = traced.put_commit.seen() as f64;
        let gets = traced.reads() as f64;
        let (dev_read, dev_written) =
            counters::record_device(report, dev0, counters::devices(&rig.devices), n_ops);
        let user = VALUE_BYTES as f64 * n_ops;
        report.set("pmem.bytes_amplification", (dev_read + dev_written) / user);
        report.set(
            "pmem.write_amplification",
            dev_written / (VALUE_BYTES as f64 * puts),
        );
        let bytes_read =
            counters::record_sharing(report, share0, counters::sharing(&region, HOSTS), n_ops)
                .bytes_read;
        report.line(
            "cxl.sharing.bytes_read_per_get",
            bytes_read as f64 / gets,
            "B",
            "",
        );
        report.set("objects.refresh_ratio", traced.refreshes as f64 / gets);
        let bare = bare_replay(rig.seed, &ops, report);
        trace_metrics(report, &trace, &untraced, &traced, bare.as_ref());
        rig.verify(report);
        return;
    }
    report.set("setup_s", stats::median(&setup_times).unwrap_or(0.0));
    record_ops(
        report,
        phase.all.values(),
        phase.all.seen(),
        phase.wall,
        "KV ops: gets, put_commits, acquire+first get",
    );
    print_e2e(report, &phase);
}

fn print_e2e(report: &mut Report, phase: &Phase) {
    let us = |s: &Sampler| s.values().iter().map(|s| s * 1e6).collect::<Vec<f64>>();
    for (name, samples) in [
        ("get", us(&phase.get)),
        ("put_commit", us(&phase.put_commit)),
    ] {
        let n = samples.len();
        report.line(
            &format!("{name}_p50_us"),
            stats::median(&samples).unwrap_or(0.0),
            "us",
            &format!("n={n}"),
        );
        match stats::supported_percentile(&samples, 99.0) {
            Some(p99) => report.line(&format!("{name}_p99_us"), p99, "us", &format!("n={n}")),
            None => println!(
                "# {name}_p99_us unsupported: n={n} leaves fewer than 10 samples beyond p99"
            ),
        }
    }
    let acquire_get = us(&phase.acquire_get);
    report.line(
        "acquire_get_p50_us",
        stats::median(&acquire_get).unwrap_or(0.0),
        "us",
        &format!(
            "acquire + first get after another host published, n={}",
            acquire_get.len()
        ),
    );
    let ops = phase.all.seen() as f64;
    report.line(
        "kv_ops_per_s",
        ops / phase.wall,
        "ops/s",
        "closed loop, one client thread",
    );
}

/// Latencies (ns) of the bare-store replay.
struct Bare {
    get_ns: Vec<f64>,
    put_commit_ns: Vec<f64>,
}

/// Replays the traced op sequence on a bare `pmem::ObjectStore` in a pool on
/// the CXL expander, checking every get against its own shadow map.
fn bare_replay(seed: u64, ops: &[Op], report: &mut Report) -> Option<Bare> {
    let runtime = RuntimeBuilder::setup1().build();
    let pool = report.check(
        "provision bare pool",
        runtime.provision_pool(
            &TierPolicy::CxlExpander,
            "kv-bare",
            ObjectStore::required_pool_size(OBJECTS, VALUE_BYTES as u64),
        ),
    )?;
    let mut store = report.check(
        "format bare store",
        ObjectStore::format(&pool, OBJECTS, VALUE_BYTES as u64),
    )?;
    let mut value = vec![0u8; VALUE_BYTES];
    let mut shadow = vec![0u64; OBJECTS as usize];
    // Populate only the objects the replay touches.
    for op in ops {
        let (Op::Put(id) | Op::Get(id)) = *op;
        if shadow[id as usize] == 0 {
            kv_value(seed, id, 1, &mut value);
            report.check("bare populate", store.put_commit(id, &value))?;
            shadow[id as usize] = 1;
        }
    }
    let persist0 = pool.persist_stats();
    let mut bare = Bare {
        get_ns: Vec::new(),
        put_commit_ns: Vec::new(),
    };
    for op in ops {
        match *op {
            Op::Put(id) => {
                let version = shadow[id as usize] + 1;
                kv_value(seed, id, version, &mut value);
                let t = Instant::now();
                let result = store.put_commit(id, &value);
                bare.put_commit_ns.push(t.elapsed().as_nanos() as f64);
                report.check("bare put_commit", result)?;
                shadow[id as usize] = version;
            }
            Op::Get(id) => {
                let t = Instant::now();
                let result = store.get(id);
                bare.get_ns.push(t.elapsed().as_nanos() as f64);
                let got = report.check("bare get", result)?;
                kv_value(seed, id, shadow[id as usize], &mut value);
                if got != value {
                    report.fail(&format!(
                        "bare get({id}) differs from version {}",
                        shadow[id as usize]
                    ));
                }
            }
        }
    }
    counters::record_persist(
        report,
        persist0,
        pool.persist_stats(),
        ops.len().max(1) as f64,
    );
    // The value hash every get checks, on this workload's value size.
    let values: Vec<u8> = (0..4096u64)
        .flat_map(|i| {
            let mut v = vec![0u8; VALUE_BYTES];
            kv_value(seed, i, 1, &mut v);
            v
        })
        .collect();
    let t = Instant::now();
    for v in values.chunks(VALUE_BYTES) {
        std::hint::black_box(pmem::pool::fnv1a(std::hint::black_box(v)));
    }
    report.set(
        "pmem.hash_gbs",
        values.len() as f64 / t.elapsed().as_nanos() as f64,
    );
    Some(bare)
}

fn trace_metrics(
    report: &mut Report,
    trace: &Trace,
    untraced: &Phase,
    traced: &Phase,
    bare: Option<&Bare>,
) {
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
    let get = med("core.cluster.get");
    let put = med("core.cluster.put");
    let commit = med("core.cluster.commit");
    let acquire = med("core.cluster.acquire");
    let first = med("core.cluster.get_first");
    report.line("core.cluster.put_us", put / 1e3, "us", "median");
    report.line("core.cluster.commit_us", commit / 1e3, "us", "median");
    report.line("core.cluster.acquire_us", acquire / 1e3, "us", "median");
    report.line(
        "core.cluster.refresh_us",
        (first - get) / 1e3,
        "us",
        "first get after a view-advancing acquire minus a warm get",
    );
    report.set("core.cluster.commit_share", commit / (put + commit));
    report.set("core.cluster.acquire_share", acquire / (acquire + first));
    report.set(
        "core.cluster.refresh_share",
        (first - get) / (acquire + first),
    );
    if let Some(bare) = bare {
        let bare_get = stats::median(&bare.get_ns).unwrap_or(0.0);
        let bare_pc = stats::median(&bare.put_commit_ns).unwrap_or(0.0);
        report.line(
            "pmem.object.get_us",
            bare_get / 1e3,
            "us",
            &format!("bare store, n={}", bare.get_ns.len()),
        );
        report.line(
            "pmem.object.put_commit_us",
            bare_pc / 1e3,
            "us",
            &format!("bare store, n={}", bare.put_commit_ns.len()),
        );
        report.line(
            "core.cluster.get_self_us",
            (get - bare_get) / 1e3,
            "us",
            "HostStore get minus bare get",
        );
        report.line(
            "core.cluster.put_commit_self_us",
            (put + commit - bare_pc) / 1e3,
            "us",
            "HostStore put+commit minus bare",
        );
        report.set("pmem.object.get_share", bare_get / get);
        report.set("pmem.object.put_commit_share", bare_pc / (put + commit));
    }
    let untraced_p50 = stats::median(untraced.all.values()).unwrap_or(0.0);
    let traced_p50 = stats::median(traced.all.values()).unwrap_or(0.0);
    report.line(
        "kv.untraced_op_us",
        untraced_p50 * 1e6,
        "us",
        &format!("n={}", untraced.all.seen()),
    );
    report.line(
        "kv.traced_op_us",
        traced_p50 * 1e6,
        "us",
        &format!("n={}", traced.all.seen()),
    );
    report.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
}

//! Counters the layers keep themselves — persist, device and sharing
//! statistics — read before and after a phase and reported per op.

use crate::report::Report;
use cxl::sharing::HostShareStats;
use cxl::{DeviceStats, SharedRegion, Type3Device};
use pmem::PersistStats;
use std::sync::Arc;

/// Device activity summed over `devices`.
pub fn devices(devices: &[Arc<Type3Device>]) -> DeviceStats {
    let mut sum = DeviceStats::default();
    for s in devices.iter().map(|d| d.stats()) {
        sum.bytes_read += s.bytes_read;
        sum.bytes_written += s.bytes_written;
        sum.gpf_flushes += s.gpf_flushes;
    }
    sum
}

/// Shared-region activity summed over hosts `0..hosts`.
pub fn sharing(region: &SharedRegion, hosts: usize) -> HostShareStats {
    let mut sum = HostShareStats::default();
    for s in (0..hosts).filter_map(|h| region.stats(h)) {
        sum.bytes_read += s.bytes_read;
        sum.bytes_written += s.bytes_written;
        sum.publishes += s.publishes;
        sum.acquires += s.acquires;
    }
    sum
}

/// Sets `pmem.persist.*_per_op` from a `persist_stats()` delta.
pub fn record_persist(report: &mut Report, before: PersistStats, after: PersistStats, ops: f64) {
    let per = |a: u64, b: u64| (a - b) as f64 / ops;
    report.set(
        "pmem.persist.flushes_per_op",
        per(after.flushes, before.flushes),
    );
    report.set(
        "pmem.persist.lines_flushed_per_op",
        per(after.lines_flushed, before.lines_flushed),
    );
    report.set(
        "pmem.persist.drains_per_op",
        per(after.drains, before.drains),
    );
    report.set(
        "pmem.persist.bytes_per_op",
        per(after.bytes_persisted, before.bytes_persisted),
    );
}

/// Sets `cxl.device.*_per_op` from a device-stats delta and returns the
/// bytes read and written in it.
pub fn record_device(
    report: &mut Report,
    before: DeviceStats,
    after: DeviceStats,
    ops: f64,
) -> (f64, f64) {
    let read = (after.bytes_read - before.bytes_read) as f64;
    let written = (after.bytes_written - before.bytes_written) as f64;
    report.set("cxl.device.bytes_read_per_op", read / ops);
    report.set("cxl.device.bytes_written_per_op", written / ops);
    report.set(
        "cxl.device.gpf_flushes_per_op",
        (after.gpf_flushes - before.gpf_flushes) as f64 / ops,
    );
    (read, written)
}

/// Sets `cxl.sharing.*_per_op` from a sharing-stats delta and returns it.
pub fn record_sharing(
    report: &mut Report,
    before: HostShareStats,
    after: HostShareStats,
    ops: f64,
) -> HostShareStats {
    let delta = HostShareStats {
        bytes_written: after.bytes_written - before.bytes_written,
        bytes_read: after.bytes_read - before.bytes_read,
        publishes: after.publishes - before.publishes,
        acquires: after.acquires - before.acquires,
    };
    report.set("cxl.sharing.publishes_per_op", delta.publishes as f64 / ops);
    report.set("cxl.sharing.acquires_per_op", delta.acquires as f64 / ops);
    report.set(
        "cxl.sharing.bytes_read_per_op",
        delta.bytes_read as f64 / ops,
    );
    delta
}

//! The two-slot epoch primitive under `CheckpointRegion`, `ObjectStore` and
//! `ResidencyMap`, holding each shared part of their discipline once: the
//! slot rule (epoch `e` in slot `e % 2`), checksummed records, the
//! descriptor header (magic `u64` at byte 0, version `u32` at 8, two shape
//! words at 16 and 24; two words of the structure's own at 32 and 40, when
//! it reserves them), checked sizing, root
//! open, and crash injection at the torn write of an uncommitted record and
//! at the commit record, one undo-log transaction. A [`Spec`] carries its
//! structure's error constructor, so every error keeps that variant.

use crate::error::PmemError;
use crate::oid::PmemOid;
use crate::pool::{fnv1a, PmemPool, MIN_POOL_SIZE};
use crate::tx::{CrashPoint, Transaction};
use crate::Result;
use std::sync::Arc;

/// Largest descriptor any structure reserves.
const DESC_MAX: usize = 64;
/// Heap-bookkeeping slack `required_pool_size` adds on top of the region.
const HEAP_SLACK: u64 = 64 * 1024;

/// The slot holding epoch `epoch`.
pub(crate) fn slot_for(epoch: u64) -> usize {
    (epoch % 2) as usize
}

/// The slot the epoch after `committed` is staged into.
pub(crate) fn staging_slot(committed: u64) -> usize {
    slot_for(committed + 1)
}

/// The little-endian `u64` at byte `at` (0 past the end of `bytes`).
pub(crate) fn word(bytes: &[u8], at: usize) -> u64 {
    bytes
        .get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Seals `N` words into a checksummed record: the words little-endian,
/// then the FNV-1a checksum of their `8 × N` bytes (`M = 8 × N + 8`).
pub(crate) fn seal<const N: usize, const M: usize>(words: [u64; N]) -> [u8; M] {
    const { assert!(M == 8 * N + 8) };
    let mut record = [0u8; M];
    for (out, word) in record.chunks_exact_mut(8).zip(words) {
        out.copy_from_slice(&word.to_le_bytes());
    }
    let checksum = fnv1a(&record[..8 * N]);
    record[8 * N..].copy_from_slice(&checksum.to_le_bytes());
    record
}

/// The words of a sealed record; `None` when the checksum fails (torn).
pub(crate) fn unseal<const N: usize, const M: usize>(record: &[u8; M]) -> Option<[u64; N]> {
    const { assert!(M == 8 * N + 8) };
    (fnv1a(&record[..8 * N]) == word(record, 8 * N))
        .then(|| std::array::from_fn(|i| word(record, 8 * i)))
}

/// A structure's pool: borrowed for in-stack use, or shared for long-lived
/// handles (the cluster's per-host payloads, the tiering residency map).
pub(crate) enum PoolRef<'p> {
    Borrowed(&'p PmemPool),
    Shared(Arc<PmemPool>),
}

impl std::ops::Deref for PoolRef<'_> {
    type Target = PmemPool;
    fn deref(&self) -> &PmemPool {
        match self {
            PoolRef::Borrowed(pool) => pool,
            PoolRef::Shared(pool) => pool,
        }
    }
}

/// The on-media identity and geometry of one two-slot structure. A region
/// of shape `s` spans `fixed + units × (entry + 2 × slot_len)` bytes, where
/// `(units, slot_len) = (self.units)(s)`; its descriptor is the first
/// `desc_size` (≤ [`DESC_MAX`]) of the `fixed` bytes.
pub(crate) struct Spec {
    pub(crate) magic: u64,
    pub(crate) version: u32,
    pub(crate) desc_size: u64,
    pub(crate) fixed: u64,
    pub(crate) entry: u64,
    pub(crate) units: fn([u64; 2]) -> (u64, u64),
    pub(crate) error: fn(&'static str) -> PmemError,
}

impl Spec {
    /// Bytes a region of `shape` occupies, with checked arithmetic.
    pub(crate) fn checked_size(&self, shape: [u64; 2]) -> Result<u64> {
        let (units, slot_len) = (self.units)(shape);
        slot_len
            .checked_mul(2)
            .and_then(|slots| slots.checked_add(self.entry))
            .and_then(|per_unit| per_unit.checked_mul(units))
            .and_then(|body| body.checked_add(self.fixed))
            .ok_or(PmemError::SizeOverflow)
    }

    /// [`checked_size`](Self::checked_size), saturating at an unallocatable size.
    pub(crate) fn region_size(&self, shape: [u64; 2]) -> u64 {
        self.checked_size(shape).unwrap_or(u64::MAX)
    }

    /// A pool size fitting one region of `shape`: [`MIN_POOL_SIZE`] covers
    /// the pool header and undo log, the slack the heap bookkeeping.
    pub(crate) fn required_pool_size(&self, shape: [u64; 2]) -> u64 {
        MIN_POOL_SIZE
            .saturating_add(self.region_size(shape))
            .saturating_add(HEAP_SLACK)
    }

    /// Allocates a region of `shape` and writes its descriptor, the
    /// structure's own words zero. Nothing is persisted yet.
    pub(crate) fn format<'p>(&self, pool: PoolRef<'p>, shape: [u64; 2]) -> Result<Descriptor<'p>> {
        let base = pool.alloc_bytes(self.checked_size(shape)?)?.offset;
        let mut bytes = [0u8; DESC_MAX];
        bytes[0..8].copy_from_slice(&self.magic.to_le_bytes());
        bytes[8..12].copy_from_slice(&self.version.to_le_bytes());
        bytes[16..24].copy_from_slice(&shape[0].to_le_bytes());
        bytes[24..32].copy_from_slice(&shape[1].to_le_bytes());
        // in-bounds: every Spec's desc_size ≤ DESC_MAX (descriptors_fit_the_buffer).
        pool.write(base, &bytes[..self.desc_size as usize])?;
        Ok(Descriptor {
            pool,
            base,
            shape,
            own: [0; 2],
        })
    }

    /// Reads and validates the descriptor at `oid`. The shape must be
    /// non-zero and its region must end inside the pool, checked against
    /// the pool's capacity alone, so no further media read.
    pub(crate) fn open<'p>(&self, pool: PoolRef<'p>, oid: PmemOid) -> Result<Descriptor<'p>> {
        let base = oid.offset;
        let mut bytes = [0u8; DESC_MAX];
        // in-bounds: every Spec's desc_size ≤ DESC_MAX.
        pool.read(base, &mut bytes[..self.desc_size as usize])?;
        if word(&bytes, 0) != self.magic {
            return Err((self.error)("descriptor magic mismatch"));
        }
        if u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != self.version {
            return Err((self.error)("unsupported descriptor version"));
        }
        let shape = [word(&bytes, 16), word(&bytes, 24)];
        let end = self
            .checked_size(shape)
            .ok()
            .and_then(|n| base.checked_add(n));
        if shape.contains(&0) || end.is_none_or(|end| end > pool.capacity()) {
            return Err((self.error)("corrupt descriptor"));
        }
        let own = [word(&bytes, 32), word(&bytes, 40)];
        Ok(Descriptor {
            pool,
            base,
            shape,
            own,
        })
    }

    /// [`open`](Self::open) on the pool's root object.
    pub(crate) fn open_root<'p>(&self, pool: PoolRef<'p>) -> Result<Descriptor<'p>> {
        let (oid, _) = pool.root().ok_or((self.error)("pool has no root object"))?;
        self.open(pool, oid)
    }
}

/// A validated descriptor: the region's pool, base, shape, and the
/// structure's own words (bytes 32 and 40; zero past `desc_size`).
pub(crate) struct Descriptor<'p> {
    pub(crate) pool: PoolRef<'p>,
    pub(crate) base: u64,
    pub(crate) shape: [u64; 2],
    pub(crate) own: [u64; 2],
}

/// Writes `bytes` at `off` as far as `point`'s ordinal says, then returns
/// the injected crash `site`: 0 writes nothing, 1 the first half (torn),
/// 2 everything unflushed, 3 everything persisted (complete, uncommitted).
pub(crate) fn torn_write(
    pool: &PmemPool,
    off: u64,
    bytes: &[u8],
    point: CrashPoint,
    site: &'static str,
) -> PmemError {
    let len = bytes.len();
    let written = match point.ordinal() {
        0 => Ok(()),
        // in-bounds: len / 2 ≤ len.
        1 => pool.write(off, &bytes[..len / 2]),
        2 => pool.write(off, bytes),
        _ => pool
            .write(off, bytes)
            .and_then(|()| pool.persist(off, len as u64)),
    };
    written.err().unwrap_or(PmemError::InjectedCrash(site))
}

/// How an injected crash meets a commit-record transaction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CommitCrash {
    /// Armed at its native transaction site ([`CrashPoint::DuringRecovery`]
    /// never fires there, so that case commits cleanly).
    InTx(CrashPoint),
    /// The log is stranded at [`CrashPoint::BeforeCommit`] and the point
    /// re-armed for the next [`PmemPool::recover`].
    Recovery(CrashPoint),
}

/// Runs a commit record, one undo-log transaction, under `crash`.
pub(crate) fn commit_record<T>(
    pool: &PmemPool,
    crash: Option<CommitCrash>,
    body: impl FnOnce(&mut Transaction<'_>) -> Result<T>,
) -> Result<T> {
    match crash {
        Some(CommitCrash::InTx(point)) => pool.set_crash_point(Some(point)),
        Some(CommitCrash::Recovery(_)) => pool.set_crash_point(Some(CrashPoint::BeforeCommit)),
        None => {}
    }
    let result = pool.run_tx(body);
    if let (Err(e), Some(CommitCrash::Recovery(point))) = (&result, crash) {
        if e.is_injected_crash() {
            pool.set_crash_point(Some(point));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{checkpoint, object, residency, CheckpointRegion, ObjectStore, ResidencyMap};

    const POOL_SIZE: u64 = 2 * 1024 * 1024;

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::create_volatile("epoch", POOL_SIZE).unwrap())
    }

    fn descriptor_head(pool: &PmemPool, base: u64) -> [u8; 32] {
        let mut head = [0u8; 32];
        pool.read(base, &mut head).unwrap();
        head
    }

    #[test]
    fn slot_rule_alternates_and_stages_the_other_slot() {
        assert_eq!(slot_for(1), 1);
        assert_eq!(slot_for(2), 0);
        for committed in 0..6 {
            assert_ne!(staging_slot(committed), slot_for(committed));
            assert_eq!(staging_slot(committed), slot_for(committed + 1));
        }
    }

    #[test]
    fn descriptors_fit_the_buffer() {
        for spec in [&checkpoint::SPEC, &object::SPEC, &residency::SPEC] {
            assert!(spec.desc_size as usize <= DESC_MAX);
            assert!(spec.desc_size >= 32, "room for the shared header");
            assert!(spec.fixed >= spec.desc_size);
        }
    }

    #[test]
    fn sizing_is_checked_and_the_public_sizes_saturate() {
        let spec = &object::SPEC;
        assert_eq!(spec.checked_size([10, 100]).unwrap(), 64 + 10 * (40 + 200));
        assert!(matches!(
            spec.checked_size([u64::MAX / 8, 4]),
            Err(PmemError::SizeOverflow)
        ));
        assert_eq!(spec.region_size([u64::MAX / 8, 4]), u64::MAX);
        assert_eq!(spec.required_pool_size([u64::MAX / 8, 4]), u64::MAX);
        assert_eq!(
            spec.required_pool_size([10, 100]),
            MIN_POOL_SIZE + spec.region_size([10, 100]) + HEAP_SLACK
        );
    }

    /// The first 32 descriptor bytes of each structure, formatted at a fixed
    /// shape, against literal bytes: a layout change fails here even though
    /// every reopen test would still agree with itself.
    #[test]
    fn on_media_layouts_are_pinned() {
        let pool = pool();
        let region = CheckpointRegion::format(&pool, 2048, 256).unwrap();
        let store = ObjectStore::format(&pool, 16, 48).unwrap();
        let map = ResidencyMap::format(Arc::clone(&pool), 3, &[0, 1, 2, 1]).unwrap();
        #[rustfmt::skip]
        let table: [(&str, u64, [u8; 32]); 3] = [
            ("checkpoint", region.oid().offset, [
                0x31, 0x4E, 0x47, 0x52, 0x54, 0x50, 0x4B, 0x43, // "CKPTRGN1"
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 2
                0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // data_len 2048
                0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // chunk_len 256
            ]),
            ("object store", store.oid().offset, [
                0x31, 0x52, 0x4F, 0x54, 0x53, 0x4A, 0x42, 0x4F, // "OBJSTOR1"
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 2
                0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // capacity 16
                0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // value_len 48
            ]),
            ("residency map", map.oid().offset, [
                0x50, 0x41, 0x4D, 0x52, 0x52, 0x45, 0x49, 0x54, // "TIERRMAP"
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 1
                0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 4 chunks
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 3 tiers
            ]),
        ];
        for (name, base, expected) in table {
            assert_eq!(descriptor_head(&pool, base), expected, "{name} descriptor");
        }
        // A fresh checkpoint's committed epoch and both slot headers are zero.
        let base = region.oid().offset;
        let mut rest = [0xFFu8; 8 + 64 + 64];
        pool.read(base + 32, &mut rest[..8]).unwrap();
        pool.read(base + 64, &mut rest[8..]).unwrap();
        assert!(
            rest.iter().all(|&b| b == 0),
            "committed epoch + slot headers"
        );
        // The residency entries follow the 32-byte header as u32 tiers.
        let mut entries = [0u8; 16];
        pool.read(map.oid().offset + 32, &mut entries).unwrap();
        assert_eq!(entries, [0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0]);
    }

    /// Media written before the XXH64 content hash (descriptor version 1)
    /// is refused by version, never misread as a failed slot or payload.
    #[test]
    fn version_1_media_is_an_unsupported_version() {
        let pool = pool();
        let region = CheckpointRegion::format(&pool, 2048, 256).unwrap().oid();
        let store = ObjectStore::format(&pool, 16, 48).unwrap().oid();
        pool.write(region.offset + 8, &[1]).unwrap();
        pool.write(store.offset + 8, &[1]).unwrap();
        assert!(matches!(
            CheckpointRegion::open(&pool, region),
            Err(PmemError::Checkpoint("unsupported descriptor version"))
        ));
        assert!(matches!(
            ObjectStore::open(&pool, store),
            Err(PmemError::ObjectStore("unsupported descriptor version"))
        ));
    }

    #[test]
    fn open_rejects_foreign_and_out_of_pool_descriptors() {
        let pool = pool();
        let spec = &object::SPEC;
        let base = spec.format(PoolRef::Borrowed(&pool), [4, 8]).unwrap().base;
        let oid = PmemOid::new(pool.uuid(), base);
        let open = |shape_word: u64| {
            pool.write(base + 24, &shape_word.to_le_bytes()).unwrap();
            spec.open(PoolRef::Borrowed(&pool), oid).map(|d| d.shape)
        };
        assert_eq!(open(8).unwrap(), [4, 8]);
        for corrupt in [0, POOL_SIZE, u64::MAX / 2, u64::MAX] {
            assert!(matches!(
                open(corrupt),
                Err(PmemError::ObjectStore("corrupt descriptor"))
            ));
        }
        pool.write(base, &[0u8; 8]).unwrap();
        assert!(matches!(
            spec.open(PoolRef::Borrowed(&pool), oid),
            Err(PmemError::ObjectStore("descriptor magic mismatch"))
        ));
        assert!(matches!(
            spec.open_root(PoolRef::Borrowed(&pool)),
            Err(PmemError::ObjectStore("pool has no root object"))
        ));
    }

    #[test]
    fn torn_write_stops_at_the_point_ordinal() {
        let pool = pool();
        let off = pool.alloc_bytes(64).unwrap().offset;
        let record = [0xABu8; 32];
        for point in CrashPoint::ALL {
            pool.write(off, &[0u8; 32]).unwrap();
            let before = pool.persist_stats();
            let err = torn_write(&pool, off, &record, point, "test-site");
            assert!(matches!(err, PmemError::InjectedCrash("test-site")));
            let mut now = [0u8; 32];
            pool.read(off, &mut now).unwrap();
            let written = now.iter().filter(|&&b| b == 0xAB).count();
            let expected = [0, 16, 32, 32][point.ordinal()];
            assert_eq!(written, expected, "{point:?}");
            let persisted = (pool.persist_stats() - before).bytes_persisted;
            assert_eq!(persisted > 0, point.ordinal() == 3, "{point:?}");
        }
    }

    #[test]
    fn recovery_crash_strands_the_record_and_rearms_the_point() {
        let pool = pool();
        let off = pool.alloc_bytes(8).unwrap().offset;
        let crash = Some(CommitCrash::Recovery(CrashPoint::DuringRecovery));
        let result = commit_record(&pool, crash, |tx| tx.write(off, &[1u8; 8]));
        assert!(result.unwrap_err().is_injected_crash());
        assert!(pool.tx_log_active().unwrap(), "stranded commit record");
        assert!(pool.recover().unwrap_err().is_injected_crash());
        assert!(pool.recover().unwrap(), "a second pass rolls it back");
        let mut now = [0xFFu8; 8];
        pool.read(off, &mut now).unwrap();
        assert_eq!(now, [0u8; 8]);
    }
}

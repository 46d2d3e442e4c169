//! Typed persistent arrays — the STREAM-PMem `a`, `b`, `c` vectors.
//!
//! Listing 2 of the paper replaces STREAM's three static arrays with
//! `POBJ_ALLOC`ed arrays of `double`. [`PersistentArray`] provides the same
//! facility: an array of a fixed-width scalar type living entirely inside a
//! pool, with element accessors, bulk slice transfers (what the kernels use)
//! and explicit persist calls.

use crate::error::PmemError;
use crate::oid::TypedOid;
use crate::pool::PmemPool;
use crate::Result;
use std::cell::RefCell;

/// Scalar element types that can live in a persistent array.
///
/// The trait is deliberately small: fixed size, little-endian byte conversion.
pub trait PmemScalar: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Size of the scalar in bytes.
    const SIZE: usize;
    /// Encodes the value into `out` (little endian).
    fn write_le(&self, out: &mut [u8]);
    /// Decodes a value from `bytes` (little endian).
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_pmem_scalar {
    ($($ty:ty),*) => {
        $(
            impl PmemScalar for $ty {
                const SIZE: usize = std::mem::size_of::<$ty>();
                #[inline]
                fn write_le(&self, out: &mut [u8]) {
                    out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn read_le(bytes: &[u8]) -> Self {
                    let mut buf = [0u8; std::mem::size_of::<$ty>()];
                    buf.copy_from_slice(&bytes[..Self::SIZE]);
                    <$ty>::from_le_bytes(buf)
                }
            }
        )*
    };
}

impl_pmem_scalar!(f64, f32, u64, u32, i64, i32);

/// Bytes one bulk transfer stages at a time. [`PersistentArray::load_slice`],
/// [`store_slice`](PersistentArray::store_slice) and
/// [`store_slice_tx`](PersistentArray::store_slice_tx) encode and decode
/// through one block of this size, however long the slice, so a transfer
/// stays cache-resident. Equal to the device's sparse chunk.
pub const STAGING_BLOCK_BYTES: usize = cxl::sparse::CHUNK_BYTES;

thread_local! {
    /// The calling thread's staging block, zeroed once and reused by every
    /// bulk transfer the thread makes: a transfer neither allocates nor
    /// clears a buffer. Backends never re-enter a bulk transfer, so the
    /// borrow is never contended.
    static STAGING: RefCell<Box<[u8]>> =
        RefCell::new(vec![0u8; STAGING_BLOCK_BYTES].into_boxed_slice());
}

/// A typed array allocated inside a pool.
pub struct PersistentArray<'p, T: PmemScalar> {
    pool: &'p PmemPool,
    oid: TypedOid<T>,
}

impl<'p, T: PmemScalar> PersistentArray<'p, T> {
    /// Allocates an array of `len` elements (`POBJ_ALLOC` equivalent). The
    /// contents start zeroed (all-default).
    pub fn allocate(pool: &'p PmemPool, len: u64) -> Result<Self> {
        let bytes = len
            .checked_mul(T::SIZE as u64)
            .ok_or(PmemError::SizeOverflow)?;
        let oid = pool.alloc_bytes(bytes.max(T::SIZE as u64))?;
        Ok(PersistentArray {
            pool,
            oid: TypedOid::new(oid, len),
        })
    }

    /// Re-attaches to an existing allocation (after reopening a pool).
    pub fn from_oid(pool: &'p PmemPool, oid: TypedOid<T>) -> Self {
        PersistentArray { pool, oid }
    }

    /// The typed oid, to be stored in the pool root for later reattachment.
    pub fn typed_oid(&self) -> TypedOid<T> {
        self.oid
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.oid.len()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.oid.is_empty()
    }

    /// Total payload size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.len() * T::SIZE as u64
    }

    fn offset_of(&self, index: u64) -> Result<u64> {
        self.oid
            .element_offset(index, T::SIZE as u64)
            .ok_or(PmemError::OutOfBounds {
                offset: index,
                len: T::SIZE as u64,
                pool_size: self.len(),
            })
    }

    /// Reads element `index`.
    pub fn get(&self, index: u64) -> Result<T> {
        let offset = self.offset_of(index)?;
        let mut buf = vec![0u8; T::SIZE];
        self.pool.read(offset, &mut buf)?;
        Ok(T::read_le(&buf))
    }

    /// Writes element `index` (non-transactional; call [`persist`](Self::persist)
    /// or wrap in a pool transaction for durability/atomicity).
    pub fn set(&self, index: u64, value: T) -> Result<()> {
        let offset = self.offset_of(index)?;
        let mut buf = vec![0u8; T::SIZE];
        value.write_le(&mut buf);
        self.pool.write(offset, &buf)
    }

    /// Fills the whole array with `value`.
    pub fn fill(&self, value: T) -> Result<()> {
        // Chunked fill: keeps buffers modest for very large arrays.
        const CHUNK_ELEMS: u64 = 64 * 1024;
        let mut template = vec![0u8; (CHUNK_ELEMS as usize) * T::SIZE];
        for i in 0..CHUNK_ELEMS as usize {
            value.write_le(&mut template[i * T::SIZE..]);
        }
        let mut written = 0u64;
        while written < self.len() {
            let n = CHUNK_ELEMS.min(self.len() - written);
            let offset = self.offset_of(written)?;
            self.pool
                .write(offset, &template[..(n as usize) * T::SIZE])?;
            written += n;
        }
        Ok(())
    }

    /// Pool offset of the element range `[start, start + len)`, `len > 0`,
    /// checked without overflow.
    fn range_offset(&self, start: u64, len: usize) -> Result<u64> {
        let last = start
            .checked_add(len as u64 - 1)
            .ok_or(PmemError::OutOfBounds {
                offset: start,
                len: len as u64,
                pool_size: self.len(),
            })?;
        self.offset_of(last)?; // bounds check
        self.offset_of(start)
    }

    /// Elements per staging block (a scalar wider than a block fails to
    /// compile).
    const BLOCK_ELEMS: usize = {
        assert!(T::SIZE > 0 && T::SIZE <= STAGING_BLOCK_BYTES);
        STAGING_BLOCK_BYTES / T::SIZE
    };

    /// Reads elements `[start, start + out.len())` into `out`, one staging
    /// block at a time.
    pub fn load_slice(&self, start: u64, out: &mut [T]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        let mut offset = self.range_offset(start, out.len())?;
        STAGING.with_borrow_mut(|block| {
            for elems in out.chunks_mut(Self::BLOCK_ELEMS) {
                let bytes = &mut block[..elems.len() * T::SIZE];
                self.pool.read(offset, bytes)?;
                for (slot, raw) in elems.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                    *slot = T::read_le(raw);
                }
                offset += bytes.len() as u64;
            }
            Ok(())
        })
    }

    /// Reads the whole array into a freshly allocated vector.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut out = vec![T::default(); self.len() as usize];
        self.load_slice(0, &mut out)?;
        Ok(out)
    }

    /// Encodes `values` one staging block at a time and writes each block at
    /// its pool offset, starting at `offset`.
    fn write_blocks(&self, mut offset: u64, values: &[T]) -> Result<()> {
        STAGING.with_borrow_mut(|block| {
            for elems in values.chunks(Self::BLOCK_ELEMS) {
                let bytes = &mut block[..elems.len() * T::SIZE];
                for (value, raw) in elems.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                    value.write_le(raw);
                }
                self.pool.write(offset, bytes)?;
                offset += bytes.len() as u64;
            }
            Ok(())
        })
    }

    /// Writes `values` starting at element `start`, one staging block at a
    /// time.
    pub fn store_slice(&self, start: u64, values: &[T]) -> Result<()> {
        if values.is_empty() {
            return Ok(());
        }
        let offset = self.range_offset(start, values.len())?;
        self.write_blocks(offset, values)
    }

    /// Makes the element range `[start, start+len)` durable.
    pub fn persist(&self, start: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let offset = self.offset_of(start)?;
        self.pool.persist(offset, len * T::SIZE as u64)
    }

    /// Flushes the element range `[start, start+len)` without a fence
    /// (`pmem_flush`). Pair with [`PmemPool::drain`] after batching all
    /// chunks of an update — one fence then covers every flushed range.
    pub fn flush(&self, start: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let offset = self.offset_of(start)?;
        self.pool.flush(offset, len * T::SIZE as u64)
    }

    /// Makes the whole array durable.
    pub fn persist_all(&self) -> Result<()> {
        self.persist(0, self.len())
    }

    /// Transactionally updates the element range `[start, start + values.len())`:
    /// either every element is updated and durable, or none are. The whole
    /// range is logged once (`TX_ADD_RANGE`), then written block by block.
    pub fn store_slice_tx(&self, start: u64, values: &[T]) -> Result<()> {
        if values.is_empty() {
            return Ok(());
        }
        let offset = self.range_offset(start, values.len())?;
        let bytes = values.len() as u64 * T::SIZE as u64;
        self.pool.run_tx(|tx| {
            tx.add_range(offset, bytes)?;
            self.write_blocks(offset, values)
        })
    }

    /// Frees the array's allocation. Consumes the handle.
    pub fn free(self) -> Result<()> {
        self.pool.free(self.oid.oid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SharedBackend, VolatileBackend};
    use crate::tx::CrashPoint;
    use proptest::prelude::*;
    use std::sync::Arc;

    const POOL_SIZE: u64 = 4 * 1024 * 1024;

    fn pool() -> PmemPool {
        PmemPool::create_volatile("array", POOL_SIZE).unwrap()
    }

    #[test]
    fn allocate_zeroed_and_set_get() {
        let pool = pool();
        let array = PersistentArray::<f64>::allocate(&pool, 1000).unwrap();
        assert_eq!(array.len(), 1000);
        assert_eq!(array.byte_len(), 8000);
        assert_eq!(array.get(0).unwrap(), 0.0);
        array.set(500, 3.5).unwrap();
        assert_eq!(array.get(500).unwrap(), 3.5);
        assert!(array.get(1000).is_err());
        assert!(array.set(1000, 1.0).is_err());
    }

    #[test]
    fn fill_sets_every_element() {
        let pool = pool();
        let array = PersistentArray::<f64>::allocate(&pool, 10_000).unwrap();
        array.fill(2.0).unwrap();
        assert_eq!(array.get(0).unwrap(), 2.0);
        assert_eq!(array.get(9_999).unwrap(), 2.0);
        assert_eq!(array.get(5_000).unwrap(), 2.0);
    }

    #[test]
    fn slice_round_trip() {
        let pool = pool();
        let array = PersistentArray::<u64>::allocate(&pool, 256).unwrap();
        let values: Vec<u64> = (0..100).collect();
        array.store_slice(50, &values).unwrap();
        let mut back = vec![0u64; 100];
        array.load_slice(50, &mut back).unwrap();
        assert_eq!(back, values);
        let all = array.to_vec().unwrap();
        assert_eq!(all.len(), 256);
        assert_eq!(&all[50..150], &values[..]);
        // Out-of-range slices are rejected.
        assert!(array.store_slice(200, &values).is_err());
        let mut too_big = vec![0u64; 300];
        assert!(array.load_slice(0, &mut too_big).is_err());
        // Empty slices are no-ops.
        array.store_slice(0, &[]).unwrap();
        array.load_slice(0, &mut []).unwrap();
    }

    #[test]
    fn persist_ranges_and_stats() {
        let pool = pool();
        let array = PersistentArray::<f64>::allocate(&pool, 128).unwrap();
        array.store_slice(0, &[1.0; 128]).unwrap();
        let before = pool.persist_stats();
        array.persist(0, 64).unwrap();
        array.persist_all().unwrap();
        array.persist(0, 0).unwrap();
        let after = pool.persist_stats();
        assert!(after.bytes_persisted >= before.bytes_persisted + 64 * 8 + 128 * 8);
    }

    #[test]
    fn reattach_after_reopen() {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool1 = PmemPool::create_with_backend(shared, "array").unwrap();
        let oid = {
            let array = PersistentArray::<f64>::allocate(&pool1, 64).unwrap();
            array.store_slice(0, &[42.0; 64]).unwrap();
            array.persist_all().unwrap();
            array.typed_oid()
        };
        pool1.set_root(oid.oid(), oid.len()).unwrap();
        drop(pool1);

        let shared2: SharedBackend = Arc::new(backend);
        let pool2 = PmemPool::open_with_backend(shared2, "array").unwrap();
        let (root, len) = pool2.root().unwrap();
        let array = PersistentArray::<f64>::from_oid(&pool2, TypedOid::new(root, len));
        assert_eq!(array.get(63).unwrap(), 42.0);
    }

    #[test]
    fn transactional_store_rolls_back_on_crash() {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool1 = PmemPool::create_with_backend(shared, "array").unwrap();
        let array = PersistentArray::<u64>::allocate(&pool1, 64).unwrap();
        array.store_slice(0, &[7u64; 64]).unwrap();
        array.persist_all().unwrap();
        let oid = array.typed_oid();
        pool1.set_root(oid.oid(), oid.len()).unwrap();

        pool1.set_crash_point(Some(CrashPoint::BeforeCommit));
        assert!(array.store_slice_tx(0, &[9u64; 64]).is_err());
        drop(pool1);

        let shared2: SharedBackend = Arc::new(backend);
        let pool2 = PmemPool::open_with_backend(shared2, "array").unwrap();
        let (root, len) = pool2.root().unwrap();
        let array = PersistentArray::<u64>::from_oid(&pool2, TypedOid::new(root, len));
        let mut values = vec![0u64; 64];
        array.load_slice(0, &mut values).unwrap();
        assert!(values.iter().all(|&v| v == 7), "rollback must restore 7s");
        // A committed transaction sticks.
        array.store_slice_tx(0, &[9u64; 64]).unwrap();
        array.load_slice(0, &mut values).unwrap();
        assert!(values.iter().all(|&v| v == 9));
    }

    #[test]
    fn free_releases_heap_space() {
        let pool = pool();
        let before = pool.alloc_stats().unwrap();
        let array = PersistentArray::<f64>::allocate(&pool, 1024).unwrap();
        assert!(pool.alloc_stats().unwrap().allocated > before.allocated);
        array.free().unwrap();
        assert_eq!(pool.alloc_stats().unwrap().allocated, before.allocated);
    }

    #[test]
    fn different_scalar_types_coexist() {
        let pool = pool();
        let doubles = PersistentArray::<f64>::allocate(&pool, 16).unwrap();
        let ints = PersistentArray::<i32>::allocate(&pool, 16).unwrap();
        doubles.set(0, 1.5).unwrap();
        ints.set(0, -7).unwrap();
        assert_eq!(doubles.get(0).unwrap(), 1.5);
        assert_eq!(ints.get(0).unwrap(), -7);
    }

    #[test]
    fn slice_range_overflow_is_a_typed_error() {
        let pool = pool();
        let array = PersistentArray::<u64>::allocate(&pool, 16).unwrap();
        let mut out = [0u64; 2];
        for result in [
            array.load_slice(u64::MAX, &mut out),
            array.store_slice(u64::MAX, &[1, 2]),
            array.store_slice_tx(u64::MAX, &[1, 2]),
        ] {
            assert!(
                matches!(result, Err(PmemError::OutOfBounds { .. })),
                "{result:?}"
            );
        }
    }

    /// Slice lengths straddling the staging-block edges of `T`.
    fn block_edge_lengths<T: PmemScalar>() -> [usize; 5] {
        let block = STAGING_BLOCK_BYTES / T::SIZE;
        [1, block - 1, block, block + 1, 3 * block + 5]
    }

    /// Stores `len` seeded elements at `start` (plain, then transactional),
    /// and checks the pool's bytes are exactly their little-endian image,
    /// the neighbours are untouched, and `load_slice` decodes the image back.
    fn check_block_edges<T: PmemScalar>(start: u64, len: usize, seed: u64) {
        let pool = pool();
        let array = PersistentArray::<T>::allocate(&pool, start + len as u64 + 1).unwrap();
        let sentinel = vec![0xA5u8; T::SIZE];
        let mut rng = TestRng::from_seed(seed);
        let mut image = vec![0u8; len * T::SIZE];
        for byte in image.iter_mut() {
            *byte = rng.next_u64() as u8;
        }
        let values: Vec<T> = image.chunks_exact(T::SIZE).map(T::read_le).collect();
        let base = array.typed_oid().oid().offset + start * T::SIZE as u64;
        for tx in [false, true] {
            array.fill(T::read_le(&sentinel)).unwrap();
            if tx {
                array.store_slice_tx(start, &values).unwrap();
            } else {
                array.store_slice(start, &values).unwrap();
            }
            let mut raw = vec![0u8; (len + 2) * T::SIZE];
            pool.read(base - T::SIZE as u64, &mut raw).unwrap();
            let (before, rest) = raw.split_at(T::SIZE);
            let (stored, after) = rest.split_at(len * T::SIZE);
            assert_eq!(stored, &image[..], "tx={tx}: stored bytes differ");
            assert_eq!((before, after), (&sentinel[..], &sentinel[..]));
            let mut back = vec![T::default(); len];
            array.load_slice(start, &mut back).unwrap();
            let mut decoded = vec![0u8; len * T::SIZE];
            for (value, out) in back.iter().zip(decoded.chunks_exact_mut(T::SIZE)) {
                value.write_le(out);
            }
            assert_eq!(decoded, image, "tx={tx}: loaded values differ");
        }
        let mut too_long = vec![T::default(); len + 2];
        assert!(array.load_slice(start, &mut too_long).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_slices_round_trip_across_block_edges(start in 1u64..64, seed in any::<u64>()) {
            fn check_all<T: PmemScalar>(start: u64, seed: u64) {
                for len in block_edge_lengths::<T>() {
                    check_block_edges::<T>(start, len, seed);
                }
            }
            check_all::<f64>(start, seed);
            check_all::<f32>(start, seed);
            check_all::<u64>(start, seed);
            check_all::<u32>(start, seed);
            check_all::<i64>(start, seed);
            check_all::<i32>(start, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_store_load_round_trip(values in proptest::collection::vec(any::<f64>(), 1..200),
                                      start in 0u64..100) {
            let pool = pool();
            let array = PersistentArray::<f64>::allocate(&pool, 400).unwrap();
            array.store_slice(start, &values).unwrap();
            let mut back = vec![0.0f64; values.len()];
            array.load_slice(start, &mut back).unwrap();
            for (a, b) in values.iter().zip(back.iter()) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }

        #[test]
        fn prop_scalar_encoding_round_trips(v in any::<f64>(), w in any::<u64>(), x in any::<i32>()) {
            let mut buf = [0u8; 8];
            v.write_le(&mut buf);
            prop_assert_eq!(f64::read_le(&buf).to_bits(), v.to_bits());
            w.write_le(&mut buf);
            prop_assert_eq!(u64::read_le(&buf), w);
            let mut buf4 = [0u8; 4];
            x.write_le(&mut buf4);
            prop_assert_eq!(i32::read_le(&buf4), x);
        }
    }
}

//! Sparse byte store used as the backing memory of modelled devices.
//!
//! A real expander carries tens of GiB; allocating that eagerly in a test
//! process is wasteful and slow. [`SparseMemory`] provides the same semantics
//! as a zero-initialised `Vec<u8>` of the full capacity — reads of untouched
//! regions return zeros — while only materialising 64 KiB chunks that have
//! actually been written.
//!
//! # Layout and concurrency
//!
//! The store is a fixed two-level chunk table. The top level holds one slot
//! per 32 MiB directory of the capacity; a directory (512 chunks) is
//! allocated on the first write into it and lives until the store is
//! dropped. Each 64 KiB chunk has its own reader-writer lock over its bytes,
//! so accesses to different chunks never wait on each other, and every
//! method takes `&self`.
//!
//! **Atomicity unit.** A transfer is atomic per 64 KiB chunk, not per call:
//! each chunk it touches is read or written under that chunk's lock, one
//! chunk at a time, as a bulk transfer on real CXL.mem is a stream of
//! independent requests. A line-sized [`write_masked`](SparseMemory::write_masked)
//! merges under one chunk's write lock, so it is atomic per line whenever
//! the line does not straddle a chunk boundary (a line-aligned one never
//! does), and a concurrent write to other bytes of the chunk is never lost.

use parking_lot::RwLock;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Chunk granularity of the sparse store.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Chunks per directory of the chunk table (32 MiB of capacity).
const DIR_CHUNKS: usize = 512;

/// Bytes of capacity one directory covers.
const DIR_BYTES: u64 = (CHUNK_BYTES * DIR_CHUNKS) as u64;

/// One chunk: `None` until first written, then its `CHUNK_BYTES` bytes.
type Chunk = RwLock<Option<Box<[u8]>>>;

/// A sparse, zero-default byte store with a fixed logical capacity.
pub struct SparseMemory {
    capacity: u64,
    directories: Box<[OnceLock<Box<[Chunk]>>]>,
    resident_chunks: AtomicU64,
}

impl SparseMemory {
    /// Creates a store with the given logical capacity. The top level of the
    /// chunk table costs one slot per 32 MiB of capacity; nothing else is
    /// allocated until written.
    pub fn new(capacity: u64) -> Self {
        let directories = usize::try_from(capacity.div_ceil(DIR_BYTES))
            .expect("the chunk directory count fits in the address space");
        SparseMemory {
            capacity,
            directories: (0..directories).map(|_| OnceLock::new()).collect(),
            resident_chunks: AtomicU64::new(0),
        }
    }

    /// Logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of physical memory actually materialised.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_chunks.load(Ordering::Relaxed) * CHUNK_BYTES as u64
    }

    /// Returns `true` if the range `[offset, offset + len)` fits in the store.
    pub fn in_bounds(&self, offset: u64, len: usize) -> bool {
        offset
            .checked_add(len as u64)
            .map(|end| end <= self.capacity)
            .unwrap_or(false)
    }

    /// Reads `buf.len()` bytes at `offset`. Untouched regions read as zero.
    /// Panics if out of bounds — callers bound-check first.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        assert!(
            self.in_bounds(offset, buf.len()),
            "sparse read out of bounds"
        );
        for (index, within, range) in pieces(offset, buf.len()) {
            let dst = &mut buf[range];
            let chunk = self.directories[index / DIR_CHUNKS]
                .get()
                .map(|chunks| chunks[index % DIR_CHUNKS].read());
            match chunk.as_deref().and_then(Option::as_deref) {
                Some(bytes) => dst.copy_from_slice(&bytes[within..within + dst.len()]),
                None => dst.fill(0),
            }
        }
    }

    /// Writes `data` at `offset`, materialising chunks as needed.
    /// Panics if out of bounds — callers bound-check first.
    pub fn write(&self, offset: u64, data: &[u8]) {
        self.update(offset, data.len(), |dst, range| {
            dst.copy_from_slice(&data[range])
        });
    }

    /// Writes the bytes of `data` (at most 64) whose bit is set in
    /// `byte_enable`, leaving the others as they are. The read-merge-write
    /// of each chunk piece happens under that chunk's write lock.
    /// Panics if out of bounds — callers bound-check first.
    pub fn write_masked(&self, offset: u64, data: &[u8], byte_enable: u64) {
        assert!(data.len() <= 64, "a byte-enable mask covers 64 bytes");
        self.update(offset, data.len(), |dst, range| {
            for ((byte, &new), i) in dst.iter_mut().zip(&data[range.clone()]).zip(range) {
                if byte_enable >> i & 1 == 1 {
                    *byte = new;
                }
            }
        });
    }

    /// Clears every byte back to zero (drops all chunks).
    pub fn clear(&self) {
        let chunks = self.directories.iter().filter_map(OnceLock::get).flatten();
        for chunk in chunks {
            if chunk.write().take().is_some() {
                self.resident_chunks.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Applies `apply(chunk_bytes, data_range)` to each chunk piece of
    /// `[offset, offset + len)` under that chunk's write lock, materialising
    /// directories and chunks on the way.
    fn update(&self, offset: u64, len: usize, mut apply: impl FnMut(&mut [u8], Range<usize>)) {
        assert!(self.in_bounds(offset, len), "sparse write out of bounds");
        for (index, within, range) in pieces(offset, len) {
            let chunks = self.directories[index / DIR_CHUNKS]
                .get_or_init(|| (0..DIR_CHUNKS).map(|_| RwLock::new(None)).collect());
            let mut chunk = chunks[index % DIR_CHUNKS].write();
            let bytes = chunk.get_or_insert_with(|| {
                self.resident_chunks.fetch_add(1, Ordering::Relaxed);
                vec![0u8; CHUNK_BYTES].into_boxed_slice()
            });
            apply(&mut bytes[within..within + range.len()], range);
        }
    }
}

/// Splits `[offset, offset + len)` at chunk boundaries into
/// `(chunk index, offset within the chunk, range of the caller's buffer)`.
fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let pos = offset + done as u64;
            let index = (pos / CHUNK_BYTES as u64) as usize;
            let within = (pos % CHUNK_BYTES as u64) as usize;
            let take = (CHUNK_BYTES - within).min(len - done);
            done += take;
            (index, within, done - take..done)
        })
    })
}

impl fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseMemory")
            .field("capacity", &self.capacity)
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = SparseMemory::new(1 << 40); // a terabyte costs nothing
        let mut buf = [0xFFu8; 256];
        mem.read((1 << 39) + 17, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn write_read_round_trip_across_chunk_boundary() {
        let mem = SparseMemory::new(1 << 20);
        let offset = CHUNK_BYTES as u64 - 10;
        let data: Vec<u8> = (0..64u8).collect();
        mem.write(offset, &data);
        let mut back = vec![0u8; 64];
        mem.read(offset, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.resident_bytes(), 2 * CHUNK_BYTES as u64);
    }

    #[test]
    fn round_trip_across_directory_boundary() {
        let mem = SparseMemory::new(4 * DIR_BYTES);
        let offset = DIR_BYTES - 3 * CHUNK_BYTES as u64 / 2;
        let data: Vec<u8> = (0..3 * CHUNK_BYTES).map(|i| (i % 253) as u8).collect();
        mem.write(offset, &data);
        let mut back = vec![0u8; data.len() + 2];
        mem.read(offset - 1, &mut back);
        assert_eq!(back[0], 0);
        assert_eq!(&back[1..=data.len()], &data[..]);
        assert_eq!(back[data.len() + 1], 0);
        // Two chunks on each side of the directory boundary.
        assert_eq!(mem.resident_bytes(), 4 * CHUNK_BYTES as u64);
    }

    #[test]
    fn racing_first_touch_materialises_a_chunk_once() {
        const THREADS: usize = 4;
        let mem = SparseMemory::new(1 << 20);
        let base = 3 * CHUNK_BYTES as u64;
        let slice = CHUNK_BYTES / THREADS;
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (mem, start) = (&mem, &start);
                scope.spawn(move || {
                    start.wait();
                    mem.write(base + (t * slice) as u64, &vec![t as u8 + 1; slice]);
                });
            }
        });
        assert_eq!(mem.resident_bytes(), CHUNK_BYTES as u64);
        let mut back = vec![0u8; CHUNK_BYTES];
        mem.read(base, &mut back);
        for (t, part) in back.chunks(slice).enumerate() {
            assert!(part.iter().all(|&b| b == t as u8 + 1), "thread {t} lost");
        }
    }

    #[test]
    fn masked_write_merges_enabled_bytes() {
        let mem = SparseMemory::new(1 << 20);
        mem.write(128, &[0xFF; 64]);
        mem.write_masked(128, &[0u8; 64], 0xF0);
        let mut back = [0u8; 64];
        mem.read(128, &mut back);
        assert_eq!(&back[..4], &[0xFF; 4]);
        assert_eq!(&back[4..8], &[0; 4]);
        assert!(back[8..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn bounds_checking() {
        let mem = SparseMemory::new(1024);
        assert!(mem.in_bounds(0, 1024));
        assert!(!mem.in_bounds(1, 1024));
        assert!(!mem.in_bounds(u64::MAX, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let mem = SparseMemory::new(16);
        let mut buf = [0u8; 32];
        mem.read(0, &mut buf);
    }

    #[test]
    fn clear_resets_to_zero() {
        let mem = SparseMemory::new(4096);
        mem.write(0, &[1u8; 128]);
        mem.clear();
        let mut buf = [9u8; 128];
        mem.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.resident_bytes(), 0);
    }

    proptest! {
        #[test]
        fn prop_round_trip(steps in proptest::collection::vec(any::<u64>(), 1..24)) {
            // 1 MiB across 16 chunks, checked against a flat shadow: random
            // writes (often straddling chunks), reads and the occasional
            // clear; resident bytes count exactly the distinct chunks touched
            // since the last clear.
            const CAPACITY: usize = 1 << 20;
            let mem = SparseMemory::new(CAPACITY as u64);
            let mut shadow = vec![0u8; CAPACITY];
            let mut touched = std::collections::BTreeSet::new();
            for step in steps {
                let fill = (step >> 3) as u8;
                let offset = (step >> 29) as usize % (CAPACITY - 1);
                let len = (1 + (step >> 11) as usize % (3 * CHUNK_BYTES)).min(CAPACITY - offset);
                let range = offset..offset + len;
                match step & 7 {
                    0 => {
                        mem.clear();
                        shadow.fill(0);
                        touched.clear();
                    }
                    1..=4 => {
                        let data: Vec<u8> = (0..len).map(|i| fill ^ i as u8).collect();
                        mem.write(offset as u64, &data);
                        shadow[range.clone()].copy_from_slice(&data);
                        touched.extend(range.start / CHUNK_BYTES..=(range.end - 1) / CHUNK_BYTES);
                    }
                    _ => {
                        let mut back = vec![0xA5u8; len];
                        mem.read(offset as u64, &mut back);
                        prop_assert_eq!(&back[..], &shadow[range]);
                    }
                }
                prop_assert_eq!(mem.resident_bytes(), (touched.len() * CHUNK_BYTES) as u64);
            }
            let mut whole = vec![0u8; CAPACITY];
            mem.read(0, &mut whole);
            prop_assert!(whole == shadow);
        }

        #[test]
        fn prop_disjoint_writes_do_not_interfere(
            a_off in 0u64..1000u64,
            b_off in 2000u64..3000u64,
        ) {
            let mem = SparseMemory::new(1 << 20);
            mem.write(a_off, &[0xAA; 100]);
            mem.write(b_off, &[0xBB; 100]);
            let mut a = [0u8; 100];
            let mut b = [0u8; 100];
            mem.read(a_off, &mut a);
            mem.read(b_off, &mut b);
            prop_assert!(a.iter().all(|&x| x == 0xAA));
            prop_assert!(b.iter().all(|&x| x == 0xBB));
        }
    }
}

//! Seeded input generators. Every input a workload feeds the program comes
//! from here and from the `--seed` argument alone, so one seed always yields
//! the same op sequence, key draws, values and dirty-chunk sets.

/// SplitMix64: a small, fast, full-period generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut words = out.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = words.into_remainder();
        let last = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }
}

/// The SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipfian keys over `0..n` with skew `theta` (Gray et al.'s generator, as
/// YCSB uses). Rank 0 is the hottest; ranks are scattered over the key space
/// by a fixed bijection so hot keys are not neighbours.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    stride: u64,
    offset: u64,
}

impl Zipf {
    /// A generator over `0..n` (`n >= 2`, `0 < theta < 1`). `offset` picks
    /// which key gets rank 0.
    pub fn new(n: u64, theta: f64, offset: u64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0, "zipf parameters");
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        // A prime stride coprime to n makes rank -> key a bijection.
        let stride = [7919u64, 7927, 7933, 7937]
            .into_iter()
            .find(|p| !n.is_multiple_of(*p))
            .expect("n is not divisible by all four primes");
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            stride,
            offset: offset % n,
        }
    }

    /// The rank (0 = hottest) of the next draw.
    pub fn next_rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The key of the next draw.
    pub fn next_key(&self, rng: &mut Rng) -> u64 {
        let rank = self.next_rank(rng);
        ((rank as u128 * self.stride as u128 + self.offset as u128) % self.n as u128) as u64
    }
}

/// Picks `round(total * fraction)` distinct chunk indices out of `total`,
/// sorted ascending.
pub fn pick_chunks(rng: &mut Rng, total: usize, fraction: f64) -> Vec<usize> {
    let k = ((total as f64 * fraction).round() as usize).clamp(1, total);
    let mut all: Vec<usize> = (0..total).collect();
    for i in 0..k {
        let j = i + rng.below((total - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut picked = all[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Rewrites the chunks `dirty` of `snapshot` (chunk size `chunk_len`) with
/// fresh random bytes drawn from `rng`.
pub fn mutate_chunks(rng: &mut Rng, snapshot: &mut [u8], chunk_len: usize, dirty: &[usize]) {
    for &chunk in dirty {
        let start = chunk * chunk_len;
        let end = (start + chunk_len).min(snapshot.len());
        Rng::new(rng.next_u64()).fill(&mut snapshot[start..end]);
    }
}

/// The value a KV workload writes as `version` of object `id`: a pure
/// function of the seed, the id and the version, so a shadow map needs only
/// the version to know the bytes a get must return.
pub fn kv_value(seed: u64, id: u64, version: u64, out: &mut [u8]) {
    let key = mix(seed ^ mix(id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ version));
    Rng::new(key).fill(out);
}

/// One round of the KV workload: the owner commits `writes`, then every other
/// host acquires and gets its `reads`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRound {
    /// The host that owns (writes) this round.
    pub owner: usize,
    /// Object ids the owner put-commits, in order.
    pub writes: Vec<u64>,
    /// `(host, ids)` for every other host, in host order after the owner.
    pub reads: Vec<(usize, Vec<u64>)>,
}

/// The KV op sequence: rounds with rotating ownership and Zipfian keys.
#[derive(Debug, Clone)]
pub struct KvSchedule {
    rng: Rng,
    zipf: Zipf,
    hosts: usize,
    writes_per_round: usize,
    reads_per_host: usize,
    round: usize,
}

impl KvSchedule {
    /// A schedule over `objects` keys for `hosts` hosts.
    pub fn new(
        seed: u64,
        objects: u64,
        theta: f64,
        hosts: usize,
        writes_per_round: usize,
        reads_per_host: usize,
    ) -> Self {
        let mut rng = Rng::new(mix(seed ^ 0x6b76));
        let offset = rng.next_u64();
        KvSchedule {
            rng,
            zipf: Zipf::new(objects, theta, offset),
            hosts,
            writes_per_round,
            reads_per_host,
            round: 0,
        }
    }
}

impl Iterator for KvSchedule {
    type Item = KvRound;

    fn next(&mut self) -> Option<KvRound> {
        let owner = self.round % self.hosts;
        self.round += 1;
        let writes = (0..self.writes_per_round)
            .map(|_| self.zipf.next_key(&mut self.rng))
            .collect();
        let reads = (1..self.hosts)
            .map(|k| {
                let host = (owner + k) % self.hosts;
                let ids = (0..self.reads_per_host)
                    .map(|_| self.zipf.next_key(&mut self.rng))
                    .collect();
                (host, ids)
            })
            .collect();
        Some(KvRound {
            owner,
            writes,
            reads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_kv_op_sequence() {
        let a: Vec<KvRound> = KvSchedule::new(7, 200_000, 0.99, 4, 10, 30)
            .take(50)
            .collect();
        let b: Vec<KvRound> = KvSchedule::new(7, 200_000, 0.99, 4, 10, 30)
            .take(50)
            .collect();
        assert_eq!(a, b);
        let c: Vec<KvRound> = KvSchedule::new(8, 200_000, 0.99, 4, 10, 30)
            .take(50)
            .collect();
        assert_ne!(a, c);
        // Ownership rotates and every other host reads each round.
        for (i, round) in a.iter().enumerate() {
            assert_eq!(round.owner, i % 4);
            let readers: Vec<usize> = round.reads.iter().map(|(h, _)| *h).collect();
            assert_eq!(readers.len(), 3);
            assert!(!readers.contains(&round.owner));
        }
    }

    #[test]
    fn same_seed_same_zipf_draws_and_they_are_skewed() {
        let zipf = Zipf::new(200_000, 0.99, 12345);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000)
                .map(|_| zipf.next_key(&mut rng))
                .collect::<Vec<u64>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&k| k < 200_000));
        // θ = 0.99 over 200k keys: the hottest key takes several percent of
        // the draws, far above uniform (0.0005 %).
        let mut counts = std::collections::HashMap::new();
        for k in &a {
            *counts.entry(*k).or_insert(0usize) += 1;
        }
        let top = counts.values().copied().max().unwrap();
        assert!(top > 20_000 / 50, "top key drawn {top} times");
    }

    #[test]
    fn zipf_rank_to_key_is_a_bijection() {
        let zipf = Zipf::new(1000, 0.99, 17);
        let mut seen = vec![false; 1000];
        for rank in 0..1000u64 {
            let key = ((rank as u128 * zipf.stride as u128 + zipf.offset as u128) % 1000) as usize;
            assert!(!seen[key]);
            seen[key] = true;
        }
    }

    #[test]
    fn same_seed_same_dirty_chunk_sets_and_bytes() {
        let run = |seed| {
            let mut rng = Rng::new(seed);
            let mut snapshot = vec![0u8; 64 * 1024];
            let mut sets = Vec::new();
            for _ in 0..10 {
                let dirty = pick_chunks(&mut rng, 64, 0.25);
                mutate_chunks(&mut rng, &mut snapshot, 1024, &dirty);
                sets.push(dirty);
            }
            (sets, snapshot)
        };
        let (sets, bytes) = run(11);
        assert_eq!((sets.clone(), bytes.clone()), run(11));
        assert_ne!(sets, run(12).0);
        for set in &sets {
            assert_eq!(set.len(), 16, "25 % of 64 chunks");
            assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        }
    }

    #[test]
    fn kv_values_depend_on_seed_id_and_version() {
        let value = |seed, id, version| {
            let mut out = [0u8; 256];
            kv_value(seed, id, version, &mut out);
            out
        };
        assert_eq!(value(1, 2, 3), value(1, 2, 3));
        assert_ne!(value(1, 2, 3), value(1, 2, 4));
        assert_ne!(value(1, 2, 3), value(1, 3, 3));
        assert_ne!(value(1, 2, 3), value(2, 2, 3));
    }
}

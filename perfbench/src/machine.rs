//! The machine block: cores, last-level cache, peak memory and a plain
//! single-threaded roofline measured in the same process as the workload.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Logical CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bytes of the highest-level data or unified cache of CPU 0, read from
/// sysfs. `None` when sysfs does not describe the caches.
pub fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let read = |file: &str| fs::read_to_string(path.join(file)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parses a sysfs cache size such as `32K`, `2048K` or `300M`.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1u64 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the time the
/// hypervisor ran something else while a vCPU wanted to run, and all time.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Single-threaded plain copy and triad bandwidth over `elements`-element
/// arrays, the median of `reps` timed repetitions after one untimed one.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// `c = a`, STREAM-counted GB/s (16 bytes per element).
    pub copy_gbs: f64,
    /// `a = b + s*c`, STREAM-counted GB/s (24 bytes per element).
    pub triad_gbs: f64,
}

/// Measures the roofline. Allocates three `elements`-element arrays.
pub fn roofline(elements: usize, reps: usize) -> Roofline {
    let mut a = vec![1.0f64; elements];
    let mut b = vec![2.0f64; elements];
    let mut c = vec![0.0f64; elements];
    let mut copy = Vec::with_capacity(reps);
    let mut triad = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        c.copy_from_slice(black_box(&a));
        black_box(&mut c);
        let copy_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
        let triad_s = t.elapsed().as_secs_f64();
        // Keep the values bounded across repetitions.
        b.copy_from_slice(black_box(&c));
        if rep > 0 {
            copy.push(16.0 * elements as f64 / copy_s / 1e9);
            triad.push(24.0 * elements as f64 / triad_s / 1e9);
        }
    }
    Roofline {
        copy_gbs: crate::stats::median(&copy).unwrap_or(0.0),
        triad_gbs: crate::stats::median(&triad).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn roofline_is_positive() {
        let r = roofline(1 << 16, 3);
        assert!(r.copy_gbs > 0.0 && r.triad_gbs > 0.0);
    }
}

//! Measurement primitives: a latency histogram with exact percentiles,
//! counter snapshots of the allocator's public statistics, the calling
//! thread's CPU time and the process's peak resident set.

use std::sync::atomic::Ordering;
use std::time::Duration;

use ralloc::Ralloc;

/// Samples below this many nanoseconds are counted exactly (one bucket
/// per nanosecond); above it each power of two splits into `1 << SUB_BITS`
/// buckets, so a reported percentile is within 0.1% of the sample.
const EXACT: u64 = 1 << 16;
const SUB_BITS: u32 = 10;
const BUCKETS: usize = EXACT as usize + (64 - 16) * (1 << SUB_BITS);

/// Latency histogram in nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], n: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    EXACT as usize + ((e - 16) as usize) * (1 << SUB_BITS) + sub as usize
}

fn lower_bound(i: usize) -> u64 {
    if (i as u64) < EXACT {
        return i as u64;
    }
    let j = i - EXACT as usize;
    let e = (j >> SUB_BITS) as u32 + 16;
    let sub = (j & ((1 << SUB_BITS) - 1)) as u64;
    ((1 << SUB_BITS) + sub) << (e - SUB_BITS)
}

fn width(i: usize) -> u64 {
    if (i as u64) < EXACT {
        return 1;
    }
    let e = ((i - EXACT as usize) >> SUB_BITS) as u32 + 16;
    1 << (e - SUB_BITS)
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile in nanoseconds (0 when empty). The `c`
    /// samples of a bucket are taken as spread evenly over its width, so
    /// the `k`-th of them reads `lower + width * (k - 0.5) / c`: a sample
    /// that read `v` ns lies in `[v, v + 1)`.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if cum + c >= rank {
                let k = (rank - cum) as f64 - 0.5;
                return lower_bound(i) as f64 + width(i) as f64 * k / c as f64;
            }
            cum += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run. On a paravirtualized guest this
/// excludes the time the host ran something else on the vCPU (steal), as
/// it excludes the time other tasks of the guest held the core.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// A point-in-time copy of the heap's slow-path and persistence
        /// counters (`slow_stats()` and `pool().stats()`).
        #[derive(Clone, Copy, Default, Debug)]
        pub struct Counters {
            $(pub $field: u64,)*
            pub flush_lines: u64,
            pub fences: u64,
            pub modeled_ns: u64,
        }

        impl Counters {
            pub fn read(heap: &Ralloc) -> Counters {
                let s = heap.slow_stats();
                let p = heap.pool().stats().snapshot();
                Counters {
                    $($field: s.$field.load(Ordering::Relaxed),)*
                    flush_lines: p.flush_lines,
                    fences: p.fences,
                    modeled_ns: p.modeled_ns,
                }
            }

            /// `self - earlier`, field by field.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                    flush_lines: self.flush_lines - earlier.flush_lines,
                    fences: self.fences - earlier.fences,
                    modeled_ns: self.modeled_ns - earlier.modeled_ns,
                }
            }
        }
    };
}

counters!(
    cache_fills,
    cache_fill_blocks,
    cache_flushes,
    cache_flushes_blocks,
    fill_anchor_cas,
    flush_anchor_cas,
    remote_anchor_cas,
    sb_carved,
    heap_grows,
    desc_grows,
    heap_shrinks,
    bin_parks,
    partial_pops_home,
    partial_steals,
    partial_shard_pushes,
    remote_free_blocks,
    remote_ring_pushes,
    remote_ring_drain_batches,
    remote_ring_drain_blocks,
    remote_ring_overflows,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_and_close_above() {
        for v in [0, 1, 999, EXACT - 1] {
            assert_eq!(lower_bound(index(v)), v);
        }
        for v in [EXACT, 123_456, 9_876_543_210] {
            let (lb, w) = (lower_bound(index(v)), width(index(v)));
            assert!(lb <= v && v - lb < w && w as f64 <= v as f64 / 1024.0, "{v} -> {lb} + {w}");
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 50.5);
        assert_eq!(h.percentile(0.99), 99.5);
        for _ in 0..3 {
            h.record(200);
        }
        // Ranks 101..=103 share the 200 ns bucket: 200 + (k - 0.5) / 3.
        assert_eq!(h.percentile(1.0), 200.0 + 2.5 / 3.0);
        assert_eq!(h.count(), 103);
    }
}

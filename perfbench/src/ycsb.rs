//! `ycsb_a` (paper fig. 5f): YCSB workload A against the library-mode
//! key-value store `pds::KvStore` — zipf(0.99) keys, 50% `get_into`,
//! 50% `set`. Value sizes cycle through three lengths, so an update
//! reallocates; every write pays an application persist. The heap
//! reserves far more than the working set but commits only a little at
//! first, so its frontier grows on demand while the store loads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pds::KvStore;
use ralloc::{Ralloc, RallocConfig};
use rand::{Rng, StdRng};
use workloads::zipf::Zipf;

use crate::harness::{self, run_workers, Phase, Worker, Workload};
use crate::trace::{self, Kind, Timed};

/// Reserved span of the heap (`RALLOC_MAX_CAP` can only raise it).
const RESERVE: usize = 256 << 20;
const INITIAL_COMMIT: usize = 4 << 20;
const RECORDS: u64 = 100_000;
const VALUE_SIZES: [usize; 3] = [100, 108, 116];
/// `KvStore`'s per-entry header.
const ENTRY_HEADER: usize = 24;

pub struct Ycsb {
    heap: Ralloc,
    kv: KvStore<Timed<Ralloc>>,
    zipf: Zipf,
    seed: u64,
    phases: u64,
}

/// The value written for `key`: the key itself, then filler.
fn fill_value(buf: &mut [u8], key: u64, filler: u8) {
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..].fill(filler);
}

fn set(kv: &KvStore<Timed<Ralloc>>, key: u64, value: &[u8]) -> bool {
    // `KvStore` panics when the allocator is exhausted: count it instead.
    catch_unwind(AssertUnwindSafe(|| trace::request(Kind::KvSet, || kv.set(key, value)))).is_ok()
}

impl Workload for Ycsb {
    const SETUPS: u64 = 9;

    /// Create the heap and load every record.
    fn setup(seed: u64, _round: u64) -> (Ycsb, Duration) {
        let cfg = RallocConfig { initial_capacity: Some(INITIAL_COMMIT), ..harness::config() };
        let (heap, create) = harness::create(RESERVE, cfg);
        let kv = KvStore::new(Timed(heap.clone()), 2 * RECORDS as usize);
        let mut value = [0u8; VALUE_SIZES[0]];
        for key in 0..RECORDS {
            fill_value(&mut value, key, key as u8);
            assert!(set(&kv, key, &value), "load of record {key} failed");
        }
        (Ycsb { heap, kv, zipf: Zipf::new(RECORDS, 0.99), seed, phases: 0 }, create)
    }

    fn heap(&self) -> &Ralloc {
        &self.heap
    }

    fn live_bytes(&self) -> f64 {
        (RECORDS as usize * (ENTRY_HEADER + VALUE_SIZES[1])) as f64
    }

    fn run(&mut self, length: Duration, traced: bool) -> Phase {
        self.phases += 1;
        let mut phase = Phase::default();
        let deadline = Instant::now() + length;
        let stream = self.phases << 8;
        run_workers(&mut phase, traced, |t, w| {
            client(&self.kv, &self.zipf, harness::rng(self.seed, stream | t as u64), deadline, w)
        });
        if let Some(trace) = &phase.trace {
            phase.mallocs = trace.hist(Kind::Malloc).count();
            phase.frees = trace.hist(Kind::Free).count();
        }
        phase
    }
}

fn client(
    kv: &KvStore<Timed<Ralloc>>,
    zipf: &Zipf,
    mut rng: StdRng,
    deadline: Instant,
    w: &mut Worker,
) {
    let mut buf = [0u8; 128];
    let mut value = [0u8; 128];
    let mut writes = 0usize;
    loop {
        let key = zipf.sample(rng.gen());
        let (ok, t0) = if rng.gen() {
            let t0 = Instant::now();
            let got = trace::request(Kind::KvGet, || kv.get_into(key, &mut buf));
            let ok = matches!(got, Some(n) if VALUE_SIZES.contains(&n));
            (ok && buf[..8] == key.to_le_bytes(), t0)
        } else {
            let value = &mut value[..VALUE_SIZES[writes % VALUE_SIZES.len()]];
            writes += 1;
            fill_value(value, key, writes as u8);
            let t0 = Instant::now();
            (set(kv, key, value), t0)
        };
        w.failed += !ok as u64;
        if w.done(t0, 1) >= deadline {
            break;
        }
    }
}

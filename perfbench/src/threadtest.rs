//! `threadtest` (paper fig. 5a): each client thread allocates a batch of
//! 64 B blocks and then frees all of them, with no sharing between
//! threads. A batch is eight 1024-block cache bins, so the work sits on
//! the thread-cache fast path with local fill and flush, and the workload
//! makes no cross-thread frees and no application persists. A request
//! is one malloc+free pair: the malloc and the later free of every
//! [`SAMPLE_EVERY`]-th block are timed, with the signature write and
//! check that go with them, and added.

use std::time::{Duration, Instant};

use ralloc::{PersistentAllocator, Ralloc};
use rand::Rng;

use crate::harness::{
    self, intact, ns_since, run_workers, sign, Phase, Worker, Workload, SAMPLE_EVERY,
};
use crate::trace::Timed;

const RESERVE: usize = 64 << 20;
const BATCH: usize = 8 * 1024;
const SIZE: usize = 64;

pub struct Threadtest {
    heap: Ralloc,
    salt: u64,
}

impl Workload for Threadtest {
    const SETUPS: u64 = 21;

    fn setup(seed: u64, _round: u64) -> (Threadtest, Duration) {
        let (heap, create) = harness::create(RESERVE, harness::config());
        (Threadtest { heap, salt: harness::rng(seed, 1).gen() }, create)
    }

    fn heap(&self) -> &Ralloc {
        &self.heap
    }

    fn live_bytes(&self) -> f64 {
        (harness::THREADS * BATCH * SIZE) as f64
    }

    fn run(&mut self, length: Duration, traced: bool) -> Phase {
        let mut phase = Phase::default();
        let deadline = Instant::now() + length;
        let salt = self.salt;
        if traced {
            let alloc = Timed(self.heap.clone());
            run_workers(&mut phase, true, |_, w| client(&alloc, salt, deadline, w));
        } else {
            let heap = &self.heap;
            run_workers(&mut phase, false, |_, w| client(heap, salt, deadline, w));
        }
        phase
    }
}

/// Allocate and sign one block; null when the heap is exhausted.
#[inline(always)]
fn malloc_signed<A: PersistentAllocator>(alloc: &A, salt: u64) -> *mut u8 {
    let p = alloc.malloc(SIZE);
    if !p.is_null() {
        // SAFETY: a fresh block of SIZE bytes.
        unsafe { sign(p, SIZE, salt) };
    }
    p
}

/// Check and free one block of the batch; false if its signature tore.
#[inline(always)]
fn free_checked<A: PersistentAllocator>(alloc: &A, p: *mut u8, salt: u64) -> bool {
    // SAFETY: signed by `malloc_signed` and still owned by this thread.
    let intact = unsafe { intact(p, SIZE..=SIZE, salt) };
    alloc.free(p);
    intact
}

fn client<A: PersistentAllocator>(alloc: &A, salt: u64, deadline: Instant, w: &mut Worker) {
    let stride = SAMPLE_EVERY as usize;
    let mut batch: Vec<*mut u8> = Vec::with_capacity(BATCH);
    // Malloc latency of each sampled block, added to its free's latency.
    let mut malloc_ns: Vec<u64> = Vec::with_capacity(BATCH / stride + 1);
    // Batch index of the first sampled block; the stride runs on across
    // batches, so the samples visit every position of a batch. Between
    // two samples the loops run untimed.
    let mut first = 0;
    loop {
        let mut next = first;
        while batch.len() < BATCH {
            while batch.len() < next.min(BATCH) {
                batch.push(malloc_signed(alloc, salt));
            }
            if batch.len() < BATCH {
                let t0 = Instant::now();
                batch.push(malloc_signed(alloc, salt));
                malloc_ns.push(ns_since(t0));
                next += stride;
            }
        }
        let live = batch.iter().filter(|p| !p.is_null()).count() as u64;
        let mut torn = 0;
        // A pair completes at its free: count them run by run.
        let (mut i, mut now) = (0, Instant::now());
        for (k, sample) in (first..BATCH).step_by(stride).chain([BATCH]).enumerate() {
            for &p in batch[i..sample].iter().filter(|p| !p.is_null()) {
                torn += !free_checked(alloc, p, salt) as u64;
            }
            let end = match batch.get(sample) {
                Some(&p) if !p.is_null() => {
                    let t0 = Instant::now();
                    torn += !free_checked(alloc, p, salt) as u64;
                    w.sample(malloc_ns[k] + ns_since(t0));
                    sample + 1
                }
                Some(_) => sample + 1,
                None => BATCH,
            };
            now = w.finish((end - i) as u64);
            i = end;
        }
        batch.clear();
        malloc_ns.clear();
        first = next - BATCH;
        w.failed += BATCH as u64 - live + torn;
        w.mallocs += live;
        w.frees += live;
        if now >= deadline {
            break;
        }
    }
}

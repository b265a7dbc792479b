//! `larson` (paper fig. 5c): each client thread replaces random blocks of
//! 64–400 B in a slot array, one free+malloc pair at a time. After every
//! round it swaps its array for the oldest one in a shared exchange that
//! holds one array more than there are threads, so arrays travel between
//! threads and inherited blocks are freed by a thread that did not
//! allocate them: the slow path runs through fill/flush, shard steals and
//! the remote-free rings. No thread ever waits for another. A request is
//! one free+malloc pair; one in [`SAMPLE_EVERY`] is timed.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ralloc::{PersistentAllocator, Ralloc};
use rand::{Rng, StdRng};

use crate::harness::{self, intact, ns_since, run_workers, sign, Phase, Worker, Workload};
use crate::harness::{SAMPLE_EVERY, THREADS};
use crate::trace::Timed;

const RESERVE: usize = 64 << 20;
const SLOTS: usize = 1000;
const OPS_PER_ROUND: u64 = 10_000;
const MIN_SIZE: usize = 64;
const MAX_SIZE: usize = 400;
const ARRAYS: usize = THREADS + 1;

pub struct Larson {
    heap: Ralloc,
    salt: u64,
    seed: u64,
    phases: u64,
    /// The exchange: slot arrays in hand-off order; 0 marks an empty slot.
    arrays: Mutex<VecDeque<Vec<usize>>>,
}

fn size(rng: &mut StdRng) -> usize {
    rng.gen_range(MIN_SIZE..=MAX_SIZE)
}

impl Workload for Larson {
    const SETUPS: u64 = 21;

    /// Create the heap and fill every slot array.
    fn setup(seed: u64, round: u64) -> (Larson, Duration) {
        let (heap, create) = harness::create(RESERVE, harness::config());
        let salt = harness::rng(seed, 1).gen();
        let mut rng = harness::rng(seed, 100 + round);
        let arrays = (0..ARRAYS)
            .map(|_| {
                (0..SLOTS)
                    .map(|_| {
                        let n = size(&mut rng);
                        let p = heap.malloc(n);
                        if !p.is_null() {
                            // SAFETY: a fresh block of n bytes.
                            unsafe { sign(p, n, salt) };
                        }
                        p as usize
                    })
                    .collect()
            })
            .collect();
        let state = Larson { heap, salt, seed, phases: 0, arrays: Mutex::new(arrays) };
        (state, create)
    }

    fn heap(&self) -> &Ralloc {
        &self.heap
    }

    fn live_bytes(&self) -> f64 {
        (ARRAYS * SLOTS * (MIN_SIZE + MAX_SIZE) / 2) as f64
    }

    fn run(&mut self, length: Duration, traced: bool) -> Phase {
        self.phases += 1;
        let mut phase = Phase::default();
        let deadline = Instant::now() + length;
        let stream = self.phases << 8;
        let state = &*self;
        let rng = |t: usize| harness::rng(state.seed, stream | t as u64);
        if traced {
            let alloc = Timed(state.heap.clone());
            run_workers(&mut phase, true, |t, w| client(&alloc, state, rng(t), deadline, w));
        } else {
            run_workers(&mut phase, false, |t, w| client(&state.heap, state, rng(t), deadline, w));
        }
        phase
    }
}

impl Larson {
    /// Hand `array` in and take the oldest array out.
    fn swap(&self, array: Vec<usize>) -> Vec<usize> {
        let mut arrays = self.arrays.lock().expect("exchange lock");
        arrays.push_back(array);
        arrays.pop_front().expect("the exchange holds a spare array")
    }
}

/// Replace the block in one random slot: free it, allocate and sign a
/// fresh block of random size. Counts what happened into `w`.
#[inline(always)]
fn replace<A: PersistentAllocator>(
    alloc: &A,
    slots: &mut [usize],
    rng: &mut StdRng,
    salt: u64,
    w: &mut Worker,
) {
    let i = rng.gen_range(0..SLOTS);
    let n = size(rng);
    if slots[i] != 0 {
        alloc.free(slots[i] as *mut u8);
        w.frees += 1;
    }
    let p = alloc.malloc(n);
    if p.is_null() {
        w.failed += 1;
    } else {
        // SAFETY: a fresh block of n bytes.
        unsafe { sign(p, n, salt) };
        w.mallocs += 1;
    }
    slots[i] = p as usize;
}

fn client<A: PersistentAllocator>(
    alloc: &A,
    state: &Larson,
    mut rng: StdRng,
    deadline: Instant,
    w: &mut Worker,
) {
    let salt = state.salt;
    let mut slots =
        state.arrays.lock().expect("exchange lock").pop_front().expect("an array per thread");
    // Operations before the next timed one; the stride runs on across
    // rounds, and between two samples the loop runs untimed.
    let mut untimed = 0;
    loop {
        let (mut left, mut now) = (OPS_PER_ROUND, Instant::now());
        while left > 0 {
            let mut done = untimed.min(left);
            for _ in 0..done {
                replace(alloc, &mut slots, &mut rng, salt, w);
            }
            untimed -= done;
            if left > done {
                let t0 = Instant::now();
                replace(alloc, &mut slots, &mut rng, salt, w);
                w.sample(ns_since(t0));
                (untimed, done) = (SAMPLE_EVERY - 1, done + 1);
            }
            left -= done;
            now = w.finish(done);
        }
        slots = state.swap(slots);
        // Inherited blocks must be exactly as their allocator left them.
        for &p in slots.iter().filter(|&&p| p != 0) {
            // SAFETY: live blocks signed by the thread that allocated them.
            w.failed += !unsafe { intact(p as *const u8, MIN_SIZE..=MAX_SIZE, salt) } as u64;
        }
        if now >= deadline {
            break;
        }
    }
    state.arrays.lock().expect("exchange lock").push_back(slots);
}

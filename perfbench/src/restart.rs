//! `restart` (paper fig. 6b): a worker thread fills a Natarajan–Mittal
//! tree (`pds::NmTree`) and exits, leaving a quiescent heap. The timed
//! phase then repeats: one single-worker `recover()`, a re-attach of the
//! tree, and a 40 ms burst of inserts, removes and gets on two client
//! threads against the recovered tree, after which the nodes the removes
//! unlinked go back to the allocator. The burst keeps sweep work that a
//! lazier recovery might defer inside the measured operations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pds::NmTree;
use ralloc::Ralloc;
use rand::{Rng, StdRng};

use crate::harness::{self, run_workers, Phase, Worker, Workload, THREADS};
use crate::measure::thread_cpu;
use crate::trace::{self, Kind};

const RESERVE: usize = 64 << 20;
const KEYS: usize = 200_000;
/// Length of each post-recovery burst. Bursts are timed, not counted:
/// both clients stop at the same instant, so a client the host delays
/// costs only its own operations, and neither waits for the other.
const BURST: Duration = Duration::from_millis(40);
const ROOT: usize = 0;
/// Blocks `NmTree::create` allocates besides one leaf and one internal
/// node per key.
const SENTINELS: u64 = 5;
/// `NmTree` node size.
const NODE: usize = 32;

pub struct Restart {
    heap: Ralloc,
    seed: u64,
    phases: u64,
    salt: u64,
    /// Live keys, partitioned by client thread (key parity).
    live: Vec<Vec<u64>>,
    /// CPU time of the run's first `recover()` call.
    first_recovery: Option<Duration>,
}

fn value_of(key: u64, salt: u64) -> u64 {
    key.rotate_left(17) ^ salt
}

/// A fresh key owned by client `t` (keys of client `t` have parity `t`).
fn draw_key(rng: &mut StdRng, t: usize) -> u64 {
    (rng.gen::<u64>() >> 3) << 1 | t as u64
}

fn insert(tree: &NmTree, key: u64, value: u64) -> Option<bool> {
    // `NmTree` panics when the heap is exhausted: count it instead.
    catch_unwind(AssertUnwindSafe(|| tree.insert(key, value))).ok()
}

impl Workload for Restart {
    const SETUPS: u64 = 9;

    /// Create the heap, then fill the tree from a worker thread that exits
    /// before the timed phase, so its caches drain.
    fn setup(seed: u64, round: u64) -> (Restart, Duration) {
        let (heap, create) = harness::create(RESERVE, harness::config());
        let salt = harness::rng(seed, 1).gen();
        let mut rng = harness::rng(seed, 100 + round);
        let live = std::thread::scope(|s| {
            s.spawn(|| {
                let tree = NmTree::create(&heap, ROOT);
                let mut live = vec![Vec::new(); THREADS];
                for i in 0..KEYS {
                    let t = i % THREADS;
                    loop {
                        let key = draw_key(&mut rng, t);
                        match insert(&tree, key, value_of(key, salt)) {
                            Some(true) => break live[t].push(key),
                            Some(false) => continue,
                            None => panic!("tree load failed at key {i}"),
                        }
                    }
                }
                live
            })
            .join()
            .expect("loader thread panicked")
        });
        let state = Restart { heap, seed, phases: 0, salt, live, first_recovery: None };
        (state, create)
    }

    fn heap(&self) -> &Ralloc {
        &self.heap
    }

    fn live_bytes(&self) -> f64 {
        ((2 * self.live_keys() + SENTINELS) as usize * NODE) as f64
    }

    fn run(&mut self, length: Duration, traced: bool) -> Phase {
        self.phases += 1;
        let mut phase = Phase::default();
        let deadline = Instant::now() + length;
        let mut burst = 0u64;
        while Instant::now() < deadline {
            self.recover(&mut phase);
            let Some(tree) = NmTree::attach(&self.heap, ROOT) else {
                phase.failed += 1;
                return phase;
            };
            let stream = (self.phases << 32 | burst) << 8;
            burst += 1;
            let (seed, salt) = (self.seed, self.salt);
            let parts: Vec<_> = self.live.iter_mut().map(std::sync::Mutex::new).collect();
            let end = Instant::now() + BURST;
            run_workers(&mut phase, traced, |t, w| {
                let mut live = parts[t].lock().expect("partition lock");
                client(&tree, &mut live, harness::rng(seed, stream | t as u64), salt, t, end, w);
            });
            // Both clients have stopped: return the nodes the removes
            // unlinked (two per remove) to the allocator.
            phase.frees += tree.quiesce() as u64;
        }
        self.verify_recovered_keys(&mut phase);
        phase
    }

    fn first_recovery(&self) -> Option<Duration> {
        self.first_recovery
    }
}

impl Restart {
    fn live_keys(&self) -> u64 {
        self.live.iter().map(|l| l.len() as u64).sum()
    }

    /// One `recover()` call, timed by the CPU time of the thread it runs
    /// on, with the reachable-block check.
    fn recover(&mut self, phase: &mut Phase) {
        let t0 = thread_cpu();
        let stats = self.heap.recover();
        let took = thread_cpu() - t0;
        self.first_recovery.get_or_insert(took);
        phase.attempted += 1;
        phase.failed += (stats.reachable_blocks != 2 * self.live_keys() + SENTINELS) as u64;
        phase.recoveries.push((took, stats));
    }

    /// Recover once more and compare the re-attached tree's key set with
    /// the keys the benchmark inserted.
    fn verify_recovered_keys(&mut self, phase: &mut Phase) {
        self.recover(phase);
        phase.recoveries.pop();
        let mut expected: Vec<u64> = self.live.iter().flatten().copied().collect();
        expected.sort_unstable();
        let same = NmTree::attach(&self.heap, ROOT).is_some_and(|tree| tree.keys() == expected);
        phase.attempted += 1;
        phase.failed += !same as u64;
    }
}

fn client(
    tree: &NmTree,
    live: &mut Vec<u64>,
    mut rng: StdRng,
    salt: u64,
    t: usize,
    end: Instant,
    w: &mut Worker,
) {
    loop {
        // Half the operations read a live key, a quarter insert a fresh
        // key (61 random bits: a clash with a live key is negligible) and
        // a quarter remove a live key.
        let op = rng.gen_range(0..4);
        let key = match op {
            2 => draw_key(&mut rng, t),
            3 => live.swap_remove(rng.gen_range(0..live.len())),
            _ => live[rng.gen_range(0..live.len())],
        };
        let value = value_of(key, salt);
        let t0 = Instant::now();
        let ok = trace::span(Kind::TreeOp, || match op {
            2 => insert(tree, key, value) == Some(true),
            3 => tree.remove(key) == Some(value),
            _ => tree.get(key) == Some(value),
        });
        let now = w.done(t0, 1);
        if op == 2 && ok {
            live.push(key);
            w.mallocs += 2;
        }
        w.failed += !ok as u64;
        if now >= end {
            break;
        }
    }
}

//! What every workload shares: heap configuration, the closed-loop
//! worker harness, the timed-phase record and the block signatures the
//! output checks read.

use std::time::{Duration, Instant};

use ralloc::{FlushModel, Ralloc, RallocConfig, RecoveryStats};
use rand::{SeedableRng, StdRng};

use crate::measure::{median, thread_cpu, Hist};
use crate::trace::{self, ThreadTrace};

/// Client threads of every timed phase (the benchmark host has 2 cores).
pub const THREADS: usize = 2;

/// The allocator-call workloads time one operation in this many; the
/// clock reads would otherwise cost more than the calls they time. The
/// stride is prime, so the samples do not alias with the 1024-block
/// period of cache fills and flushes.
pub const SAMPLE_EVERY: u64 = 1021;

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Throughput is counted per window of this length; a phase reports the
/// median window, so a stall that hits a few windows does not move it.
const WINDOW: Duration = Duration::from_millis(100);

/// Throughput divides each client's operations by the CPU time the client
/// thread ran, not by wall time: on a shared host the wall clock also
/// counts the time the host gave the core to someone else, which moves
/// from run to run by more than the allocator's own changes do. Time a
/// client spends blocked is not CPU time either; `Phase::cpu_share` shows
/// it together with the time the host took.
fn mops(ops: u64, cpu: Duration) -> Option<f64> {
    (ops > 0 && !cpu.is_zero()).then(|| ops as f64 / cpu.as_secs_f64() / 1e6)
}

/// The heap configuration of every workload: library defaults with the
/// Optane flush model, which busy-waits the modeled flush and fence cost.
pub fn config() -> RallocConfig {
    RallocConfig { flush_model: FlushModel::optane(), ..RallocConfig::default() }
}

/// The generator of one input stream of a run: `stream` tells apart the
/// streams (client thread, set-up round, phase, burst) drawn from one
/// `--seed`, so the same seed gives the same inputs.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Create a heap and time the `Ralloc::create` call alone.
pub fn create(reserve: usize, cfg: RallocConfig) -> (Ralloc, Duration) {
    let t0 = Instant::now();
    let heap = Ralloc::create(reserve, cfg);
    (heap, t0.elapsed())
}

/// One workload: its set-up, its heap and its closed-loop timed phase.
pub trait Workload: Sized {
    /// Set-ups per run; `setup_s` is their median.
    const SETUPS: u64;
    /// Build the workload's state from the run seed; `round` tells apart
    /// the repeated set-ups of one run. Returns the state and the time of
    /// the `Ralloc::create` call alone.
    fn setup(seed: u64, round: u64) -> (Self, Duration);
    fn heap(&self) -> &Ralloc;
    /// Bytes the workload keeps live at its peak, as it requested them.
    fn live_bytes(&self) -> f64;
    /// Run client threads until `length` has passed.
    fn run(&mut self, length: Duration, traced: bool) -> Phase;
    /// CPU time of the run's first `recover()` call, if it made one.
    fn first_recovery(&self) -> Option<Duration> {
        None
    }
}

/// The record of one timed phase.
#[derive(Default)]
pub struct Phase {
    /// Operations completed (the throughput unit of the workload).
    pub ops: u64,
    /// Throughput samples in Mops/s (see [`mops`]): one per full window
    /// of a long phase, one per call of a phase made of short bursts.
    pub rates: Vec<f64>,
    /// Wall time the client threads ran, summed over the threads.
    pub client_wall: Duration,
    /// CPU time the client threads ran, summed over the threads.
    pub client_cpu: Duration,
    /// Per-request latency.
    pub requests: Hist,
    pub attempted: u64,
    pub failed: u64,
    /// Blocks the workload allocated and freed, where it can count them.
    pub mallocs: u64,
    pub frees: u64,
    /// Each `recover()` call of the phase with its CPU time.
    pub recoveries: Vec<(Duration, RecoveryStats)>,
    /// Merged spans of a traced phase.
    pub trace: Option<ThreadTrace>,
}

impl Phase {
    /// Median throughput sample in Mops/s.
    pub fn mops(&self) -> f64 {
        median(&self.rates)
    }

    /// Share of the client threads' wall time that they ran on a CPU.
    pub fn cpu_share(&self) -> f64 {
        self.client_cpu.as_secs_f64() / self.client_wall.as_secs_f64()
    }

    /// Operations per second of wall time, both clients together.
    pub fn wall_mops(&self) -> f64 {
        let threads = THREADS as f64;
        self.ops as f64 * threads / self.client_wall.as_secs_f64() / 1e6
    }

    fn absorb(&mut self, w: &Worker) {
        self.ops += w.ops;
        self.requests.merge(&w.requests);
        self.attempted += w.ops;
        self.failed += w.failed;
        self.mallocs += w.mallocs;
        self.frees += w.frees;
        self.client_wall += w.wall;
        self.client_cpu += w.cpu - w.cpu_at_start;
    }

    fn absorb_trace(&mut self, trace: Option<ThreadTrace>) {
        if let Some(t) = trace {
            match &mut self.trace {
                Some(all) => all.merge(t),
                None => self.trace = Some(t),
            }
        }
    }
}

/// One client thread's share of a phase.
pub struct Worker {
    epoch: Instant,
    started: Instant,
    cpu_at_start: Duration,
    ops: u64,
    requests: Hist,
    /// Throughput of the thread in each window since `epoch`, if it
    /// completed an operation by the window's end.
    windows: Vec<Option<f64>>,
    /// The open segment: the window it began in, the operations completed
    /// in it and the thread's CPU time when it began. A segment ends at
    /// the first completion in a later window.
    window: usize,
    window_ops: u64,
    cpu: Duration,
    /// Wall time from the thread's start to its stop.
    wall: Duration,
    pub failed: u64,
    pub mallocs: u64,
    pub frees: u64,
}

impl Worker {
    fn new(epoch: Instant) -> Worker {
        let cpu = thread_cpu();
        Worker {
            epoch,
            started: Instant::now(),
            cpu_at_start: cpu,
            ops: 0,
            requests: Hist::default(),
            windows: Vec::new(),
            window: 0,
            window_ops: 0,
            cpu,
            wall: Duration::ZERO,
            failed: 0,
            mallocs: 0,
            frees: 0,
        }
    }

    /// Close the open segment at window `now`: its throughput stands for
    /// every window from the one it began in up to `now`, or for its own
    /// window when the thread stops in the window it began in.
    fn close_segment(&mut self, now: usize) {
        let cpu = thread_cpu();
        let rate = mops(self.window_ops, cpu - self.cpu);
        self.windows.resize(now.max(self.window + 1), rate);
        (self.window, self.window_ops, self.cpu) = (now, 0, cpu);
    }

    /// Record one request latency.
    pub fn sample(&mut self, ns: u64) {
        self.requests.record(ns);
    }

    /// Close the last segment when the thread's loop has returned.
    fn stop(&mut self) {
        self.wall = self.started.elapsed();
        self.close_segment((self.epoch.elapsed().as_nanos() / WINDOW.as_nanos()) as usize);
    }

    /// Count `ops` completed operations; returns when they completed.
    pub fn finish(&mut self, ops: u64) -> Instant {
        let t1 = Instant::now();
        self.ops += ops;
        self.window_ops += ops;
        let window = ((t1 - self.epoch).as_nanos() / WINDOW.as_nanos()) as usize;
        if window > self.window {
            self.close_segment(window);
        }
        t1
    }

    /// Record a request that started at `t0` and completed `ops`
    /// operations; returns when it completed.
    pub fn done(&mut self, t0: Instant, ops: u64) -> Instant {
        let t1 = self.finish(ops);
        self.sample((t1 - t0).as_nanos() as u64);
        t1
    }
}

/// Run `body(thread, &mut worker)` on [`THREADS`] client threads, each a
/// closed loop, and fold their records into `phase`. Traced threads record
/// spans from the moment they start.
pub fn run_workers<F>(phase: &mut Phase, traced: bool, body: F)
where
    F: Fn(usize, &mut Worker) + Sync,
{
    let epoch = Instant::now();
    let workers: Vec<(Worker, Option<ThreadTrace>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let body = &body;
                s.spawn(move || {
                    if traced {
                        trace::install(t as u64, epoch);
                    }
                    let mut w = Worker::new(epoch);
                    body(t, &mut w);
                    w.stop();
                    (w, trace::take())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = epoch.elapsed();
    if elapsed < 2 * WINDOW {
        let rates = workers.iter().map(|(w, _)| mops(w.ops, w.cpu - w.cpu_at_start));
        phase.rates.extend(rates.sum::<Option<f64>>());
    } else {
        // The last window is cut short by the deadline.
        let full =
            workers.iter().map(|(w, _)| w.windows.len()).min().unwrap_or(0).saturating_sub(1);
        let window = |i: usize| workers.iter().map(|(w, _)| w.windows[i]).sum::<Option<f64>>();
        phase.rates.extend((0..full).filter_map(window));
    }
    for (w, trace) in workers {
        phase.absorb(&w);
        phase.absorb_trace(trace);
    }
}

/// Stamp a fresh block of `size >= 24` bytes with an address-derived
/// signature: its address at the head, its size next, the complement at
/// the tail. A block handed out twice, or overwritten by a neighbour,
/// fails [`intact`].
///
/// # Safety
/// `p` must be a live block of at least `size` bytes.
pub unsafe fn sign(p: *mut u8, size: usize, salt: u64) {
    let w = p as *mut u64;
    let tag = p as u64 ^ salt;
    w.write(tag);
    w.add(1).write(size as u64);
    (p.add((size - 8) & !7) as *mut u64).write(!tag);
}

/// Whether a signed block of a size in `sizes` is still intact.
///
/// # Safety
/// `p` must be a live block signed by [`sign`] with a size in `sizes`.
pub unsafe fn intact(p: *const u8, sizes: std::ops::RangeInclusive<usize>, salt: u64) -> bool {
    let w = p as *const u64;
    let tag = p as u64 ^ salt;
    let size = w.add(1).read() as usize;
    w.read() == tag
        && sizes.contains(&size)
        && (p.add((size - 8) & !7) as *const u64).read() == !tag
}

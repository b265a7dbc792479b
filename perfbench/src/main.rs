//! Seeded benchmark of the Ralloc reproduction: the paper's workloads end
//! to end, and every core layer per operation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <threadtest|larson|ycsb_a|restart> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run. The last
//! line of standard output is one JSON object; the lines before it show
//! the same numbers for a reader. See `perfbench/README.md`.

mod harness;
mod larson;
mod measure;
mod restart;
mod threadtest;
mod trace;
mod ycsb;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ralloc::{check_heap, Ralloc, RecoveryStats, SB_SIZE};

use harness::{Phase, Workload};
use measure::{median, peak_rss_mib, ratio, thread_cpu, Counters};
use trace::Kind;

/// Recoveries of a copy of the final heap that give `recovery_ms` on the
/// workloads whose timed phase does not recover.
const RECOVERY_PROBES: usize = 25;
const MIB: f64 = (1 << 20) as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report { attempted: 0, failed: 0, metrics: Vec::new(), notes: Vec::new() }
    }

    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    /// Run the heap checker on a quiescent heap; a violation is a failure.
    fn check_heap(&mut self, heap: &Ralloc, when: &str) {
        let report = check_heap(heap);
        self.attempted += 1;
        if !report.is_consistent() {
            self.failed += 1;
            eprintln!("check_heap after {when}: {:?}", report.violations);
        }
    }

    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `W::SETUPS` set-ups; the last one's state is kept.
struct Setup<W> {
    state: W,
    setup_s: Vec<f64>,
    create_s: Vec<f64>,
}

fn setup<W: Workload>(seed: u64) -> Setup<W> {
    let (mut setup_s, mut create_s) = (Vec::new(), Vec::new());
    let mut state = None;
    for round in 0..W::SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        let (w, create) = W::setup(seed, round);
        setup_s.push(t0.elapsed().as_secs_f64());
        create_s.push(create.as_secs_f64());
        state = Some(w);
    }
    Setup { state: state.expect("at least one set-up"), setup_s, create_s }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn recovery_ms(recoveries: &[(Duration, RecoveryStats)]) -> f64 {
    median(&recoveries.iter().map(|(d, _)| ms(*d)).collect::<Vec<_>>())
}

/// Recover copies of the heap as the timed phase left it, as a restart
/// after a crash at that moment would. These heaps have no persistent
/// roots, so every block is garbage and the sweep frees it all.
fn probe_recovery(heap: &Ralloc, report: &mut Report) -> f64 {
    let image = heap.pool().persistent_image();
    let mut times = Vec::new();
    for _ in 0..RECOVERY_PROBES {
        let (copy, dirty) = Ralloc::from_image(&image, harness::config());
        let t0 = thread_cpu();
        let stats = copy.recover();
        times.push(ms(thread_cpu() - t0));
        report.attempted += 1;
        report.failed += (!dirty || stats.reachable_blocks != 0) as u64;
        report.check_heap(&copy, "a recovery probe");
    }
    median(&times)
}

fn end_to_end<W: Workload>(args: &Args) -> Report {
    let mut report = Report::new();
    let Setup { mut state, setup_s, .. } = setup::<W>(args.seed);
    let phase = state.run(Duration::from_secs(args.seconds), false);
    report.count(&phase);
    report.check_heap(state.heap(), "the timed phase");
    let rss = peak_rss_mib();
    let recovery = if phase.recoveries.is_empty() {
        probe_recovery(state.heap(), &mut report)
    } else {
        recovery_ms(&phase.recoveries)
    };
    report.add("throughput_mops", phase.mops(), "Mops/s");
    report.add("request_p50_us", phase.requests.percentile(0.50) / 1e3, "us");
    report.add("request_p99_us", phase.requests.percentile(0.99) / 1e3, "us");
    report.add("recovery_ms", recovery, "ms");
    report.add("peak_rss_mib", rss, "MiB");
    report.add("setup_s", median(&setup_s), "s");
    let mut rates = phase.rates.clone();
    rates.sort_by(f64::total_cmp);
    let q = |f: f64| rates[((rates.len() - 1) as f64 * f) as usize];
    report.notes.push(format!(
        "{} throughput samples (Mops/s): min {:.3} p25 {:.3} median {:.3} p75 {:.3} max {:.3}",
        rates.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    ));
    report.notes.push(format!(
        "by wall time {:.3} Mops/s; the clients ran on a CPU {:.3} of their wall time",
        phase.wall_mops(),
        phase.cpu_share()
    ));
    report.notes.push(format!(
        "{} requests timed; error_rate {} ({} of {})",
        phase.requests.count(),
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    report
}

fn per_layer<W: Workload>(args: &Args) -> Report {
    let mut report = Report::new();
    let Setup { mut state, create_s, .. } = setup::<W>(args.seed);
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let base = state.run(half, false);
    report.count(&base);
    report.check_heap(state.heap(), "the untraced phase");
    let before = Counters::read(state.heap());
    let t0 = Instant::now();
    let traced = state.run(half, true);
    let wall = t0.elapsed();
    let total = Counters::read(state.heap());
    let d = total.since(&before);
    report.count(&traced);
    report.check_heap(state.heap(), "the traced phase");

    let heap = state.heap();
    let trace = traced.trace.as_ref().expect("a traced phase records spans");
    let pct = |kind: Kind, q: f64| trace.hist(kind).percentile(q);
    let ops = traced.ops as f64;
    let kop = ops / 1e3;
    let per_kop = |n: u64| ratio(n as f64, kop);

    report.add("tcache.malloc_ns_p50", pct(Kind::Malloc, 0.50), "ns");
    report.add("tcache.malloc_ns_p99", pct(Kind::Malloc, 0.99), "ns");
    report.add("tcache.free_ns_p50", pct(Kind::Free, 0.50), "ns");
    report.add("tcache.free_ns_p99", pct(Kind::Free, 0.99), "ns");
    let hit_rate =
        if traced.mallocs == 0 { 0.0 } else { 1.0 - d.cache_fills as f64 / traced.mallocs as f64 };
    report.add("tcache.hit_rate", hit_rate, "ratio");

    report.add("heap.fills_per_kop", per_kop(d.cache_fills), "1/kop");
    report.add(
        "heap.fill_batch_blocks",
        ratio(d.cache_fill_blocks as f64, d.cache_fills as f64),
        "blocks",
    );
    report.add("heap.flushes_per_kop", per_kop(d.cache_flushes), "1/kop");
    report.add(
        "heap.flush_batch_blocks",
        ratio(d.cache_flushes_blocks as f64, d.cache_flushes as f64),
        "blocks",
    );
    report.add(
        "heap.anchor_cas_per_kop",
        per_kop(d.fill_anchor_cas + d.flush_anchor_cas + d.remote_anchor_cas),
        "1/kop",
    );
    report.add("heap.carves", d.sb_carved as f64, "count");
    report.add("heap.bin_parks", d.bin_parks as f64, "count");
    report.add("heap.create_s", median(&create_s), "s");

    report.add(
        "shard.steal_rate",
        ratio(d.partial_steals as f64, (d.partial_pops_home + d.partial_steals) as f64),
        "ratio",
    );
    report.add("shard.pushes_per_kop", per_kop(d.partial_shard_pushes), "1/kop");

    report.add(
        "remote.free_share",
        ratio(d.remote_free_blocks as f64, traced.frees as f64),
        "ratio",
    );
    report.add("remote.ring_pushes_per_kop", per_kop(d.remote_ring_pushes), "1/kop");
    report.add(
        "remote.drain_batch_blocks",
        ratio(d.remote_ring_drain_blocks as f64, d.remote_ring_drain_batches as f64),
        "blocks",
    );
    report.add(
        "remote.overflow_rate",
        ratio(d.remote_ring_overflows as f64, d.remote_ring_pushes as f64),
        "ratio",
    );
    report.add(
        "remote.anchor_cas_per_remote_free",
        ratio(d.remote_anchor_cas as f64, d.remote_free_blocks as f64),
        "ratio",
    );

    // The frontier moves in set-up as much as in the timed phase, so its
    // counts cover the kept heap's whole life.
    let committed = (heap.committed_superblocks() * SB_SIZE) as f64;
    report.add("frontier.grows", (total.heap_grows + total.desc_grows) as f64, "count");
    report.add("frontier.shrinks", total.heap_shrinks as f64, "count");
    report.add("frontier.committed_mib", committed / MIB, "MiB");
    report.add("frontier.committed_per_live", ratio(committed, state.live_bytes()), "ratio");

    report.add("nvm.flush_lines_per_kop", per_kop(d.flush_lines), "1/kop");
    report.add("nvm.fences_per_kop", per_kop(d.fences), "1/kop");
    report.add("nvm.modeled_ns_per_op", ratio(d.modeled_ns as f64, ops), "ns");
    let client_ns = wall.as_nanos() as f64 * harness::THREADS as f64;
    report.add("nvm.persist_share", ratio(d.modeled_ns as f64, client_ns), "ratio");
    report.add("nvm.persist_ns_p50", pct(Kind::Persist, 0.50), "ns");
    report.add("nvm.persist_ns_p99", pct(Kind::Persist, 0.99), "ns");

    report.add("pds.set_us_p50", pct(Kind::KvSet, 0.50) / 1e3, "us");
    report.add("pds.set_us_p99", pct(Kind::KvSet, 0.99) / 1e3, "us");
    report.add("pds.get_us_p50", pct(Kind::KvGet, 0.50) / 1e3, "us");
    report.add("pds.get_us_p99", pct(Kind::KvGet, 0.99) / 1e3, "us");
    report.add(
        "pds.set_alloc_share",
        ratio(trace.set_child_ns as f64, trace.set_ns as f64),
        "ratio",
    );
    let sets = trace.hist(Kind::KvSet).count() as f64;
    report.add("pds.realloc_share", ratio(trace.reallocs as f64, sets), "ratio");
    report.add("pds.tree_op_us_p50", pct(Kind::TreeOp, 0.50) / 1e3, "us");
    report.add("pds.tree_op_us_p99", pct(Kind::TreeOp, 0.99) / 1e3, "us");

    let recoveries: Vec<_> = base.recoveries.iter().chain(&traced.recoveries).cloned().collect();
    let last = recoveries.last().map(|(_, s)| s.clone()).unwrap_or_default();
    let median_ns = if recoveries.is_empty() { 0.0 } else { recovery_ms(&recoveries) * 1e6 };
    report.add("recovery.calls", recoveries.len() as f64, "count");
    report.add("recovery.first_ms", state.first_recovery().map_or(0.0, ms), "ms");
    report.add("recovery.ns_per_block", ratio(median_ns, last.reachable_blocks as f64), "ns");
    report.add("recovery.reachable_blocks", last.reachable_blocks as f64, "count");
    report.add("recovery.free_sb", last.free_superblocks as f64, "count");
    report.add("recovery.partial_sb", last.partial_superblocks as f64, "count");
    report.add("recovery.full_sb", last.full_superblocks as f64, "count");
    report.add("recovery.shrunk_sb", last.shrunk_superblocks as f64, "count");
    report.add("recovery.conservative_words", last.conservative_words_scanned as f64, "count");

    let (untraced_mops, traced_mops) = (base.mops(), traced.mops());
    report.add("trace.untraced_mops", untraced_mops, "Mops/s");
    report.add("trace.traced_mops", traced_mops, "Mops/s");
    report.add("trace.overhead", 1.0 - ratio(traced_mops, untraced_mops), "ratio");
    report.add("trace.span_floor_ns", trace::span_floor_ns(), "ns");
    report.add("client.cpu_share", traced.cpu_share(), "ratio");
    report.add("check.error_rate", ratio(report.failed as f64, report.attempted as f64), "ratio");

    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    let path = dir.join("perfbench-spans").join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match trace.write_spans(&path) {
        Ok(()) => report.notes.push(format!("span log: {}", path.display())),
        Err(e) => eprintln!("span log {}: {e}", path.display()),
    }
    report
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        per_layer::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <threadtest|larson|ycsb_a|restart> --seed <n> \\
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "threadtest" => run::<threadtest::Threadtest>(&args),
        "larson" => run::<larson::Larson>(&args),
        "ycsb_a" => run::<ycsb::Ycsb>(&args),
        "restart" => run::<restart::Restart>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `Ralloc::create` reads these over the configuration the workloads
    // set, so a run made with any of them says so.
    let mut overrides: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RALLOC_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    overrides.sort();
    report.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} threads {} cores {} env [{}]",
            args.workload,
            args.seed,
            args.seconds,
            args.trace as u8,
            harness::THREADS,
            cores,
            overrides.join(" ")
        ),
    );
    report.print();
}

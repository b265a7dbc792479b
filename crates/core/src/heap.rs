//! The Ralloc heap: initialization, allocation, deallocation, roots,
//! shutdown, and crash simulation (paper §4.1–§4.4).
//!
//! ## Persistence discipline (what gets flushed online)
//!
//! Normal-operation flushes are limited to the **bold** fields of the
//! paper's Figure 2:
//!
//! * the heap header (`magic`, length, **dirty flag**) at init/close,
//! * the `used` superblock count, once per region expansion,
//! * a descriptor's `size_class`/`block_size`, once per superblock (re)use,
//! * a root slot, on `set_root`.
//!
//! The malloc/free fast paths flush *nothing*; the slow paths flush one
//! cache line. Everything else — anchors, free lists, partial lists,
//! thread caches — is transient and reconstructed by [`crate::recovery`].

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use nvm::{CrashInjector, FlushModel, Mode, PmemPool, PoolGuard, RegionSpec};
use telemetry::{Counter, EventKind, Gauge, Histogram, Journal, Registry, SamplerHandle};

use crate::anchor::{Anchor, SbState};
use crate::descriptor::{Desc, DescKind};
use crate::flight::{self, FlightLevel, FlightRecorder, FlightScan};
use crate::frontier::{self, Frontier};
use crate::gc::{trace_thunk, Trace, TraceFn};
use crate::layout::{
    Geometry, Region, DESC_COMMITTED_LEN_OFF, DIRTY_OFF, FLIGHT_HDR_SIZE, FLIGHT_OFF, MAGIC,
    MAGIC_OFF, MAGIC_V3, MAGIC_V4, MAX_SB_OFF, META_SIZE, NUM_ROOTS, POOL_LEN_OFF, USED_SB_OFF,
};
use crate::lists::DescList;
use crate::remote::{RemoteBatch, RemoteRing};
use crate::shard::{self, ShardedPartial};
use crate::size_class::{
    cache_capacity, class_block_size, class_max_count, is_small_class, size_class_of,
    CLASS_CONTINUATION, NUM_CLASSES, SB_SIZE,
};
use crate::tcache::{self, CacheBin, HeapTls};

/// Best-effort read prefetch of the cache line at `addr`. The fill and
/// flush slow paths walk/link free chains whose next element is a
/// dependent load; issuing the prefetch as soon as an address is known
/// hides most of that latency on large batches. No-op on architectures
/// without a portable prefetch intrinsic.
#[inline(always)]
fn prefetch_read(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is permitted.
    unsafe {
        core::arch::x86_64::_mm_prefetch(addr as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

static NEXT_HEAP_ID: AtomicU64 = AtomicU64::new(1);

/// Whether the heap releases its fully-free committed tail back to the OS
/// (the shrink half of the reserve/commit model) on its own. Shrink is
/// only legal at quiescent points — `used` never decreases online — so
/// the two hooks are clean [`Ralloc::close`] and the end of recovery.
/// Env override: `RALLOC_SHRINK=off|both`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShrinkPolicy {
    /// Never shrink automatically (monotone frontiers).
    /// [`Ralloc::shrink`] still works when called explicitly.
    Off,
    /// Shrink at both quiescent points (the default).
    Both,
}

impl ShrinkPolicy {
    /// Parse an `RALLOC_SHRINK` value (pure, separately testable — unit
    /// tests must not mutate the process environment).
    fn parse(raw: &str) -> Option<ShrinkPolicy> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(ShrinkPolicy::Off),
            "both" | "on" | "1" => Some(ShrinkPolicy::Both),
            _ => None,
        }
    }
}

/// Cache bins a heap retains across thread exits, per size class. An
/// exiting thread *parks* its non-empty bins here (up to this bound)
/// instead of flushing them block-by-batch back to superblocks; the next
/// thread's first fill of the class adopts a parked bin wholesale — zero
/// anchor CASes, zero carves. This is the churn-fixpoint "bound per-class
/// cache retention" lever: thread-pool-style workloads that cycle worker
/// threads stop paying a fresh superblock per (thread × class) per
/// generation.
///
/// The bound is deliberately **one** bin per class: a parked bin is
/// visible only to the single future fill that adopts it, while a
/// *flushed* bin's blocks land on superblock free chains visible to every
/// thread (partial lists + work stealing). Retaining more than one bin
/// starves concurrent fills into carving fresh superblocks exactly when
/// thread overlap deepens — the churn workload's quantized
/// one-superblock-per-class demand spike. One parked bin keeps the
/// warm-handoff win for the common exit→spawn cycle; everything beyond it
/// goes back where every thread can see it.
const MAX_PARKED_BINS: usize = 1;

/// Extra partial-list candidates a fill inspects when the first one it
/// pops is mostly empty (more than half its blocks free). Claiming a
/// mostly-empty superblock hands one thread a huge chain while
/// concurrent fills find the list empty and carve; preferring the
/// *fullest* (smallest-free-count) candidate packs allocations into
/// nearly-full superblocks and leaves the emptier ones visible — the
/// churn-fixpoint "warm-start under memory pressure" lever.
const FILL_BESTFIT_PROBES: usize = 2;

/// Under the churn policy ([`RallocConfig::flush_half`]), a fill retains
/// at most `max_count / CHURN_FILL_RETAIN_DIV` blocks (min
/// [`CHURN_FILL_RETAIN_MIN`]) and returns the rest of its claimed chain
/// to the superblock, re-enlisted where every thread can see it. An
/// unbounded fill moves a whole superblock population into one thread's
/// private bin, so each additional *concurrently runnable* thread costs
/// one fresh superblock per class — the churn test's quantized +19
/// demand spike, and a footprint that depends on OS scheduling rather
/// than on the live set. Bounded retention makes one circulating
/// superblock feed `DIV` concurrent threads; the batch (≥ 128 blocks for
/// the 64 B class) still amortizes the anchor CAS three orders of
/// magnitude. Off by default: the paper's whole-superblock Fill maximizes
/// amortization when footprint convergence is not a goal.
const CHURN_FILL_RETAIN_DIV: u32 = 8;
/// Floor for the churn-policy fill-retention bound, so tiny-`max_count`
/// classes keep a useful batch.
const CHURN_FILL_RETAIN_MIN: u32 = 8;

/// Configuration for creating or opening a heap.
#[derive(Clone)]
pub struct RallocConfig {
    /// Persistence simulation mode of the underlying pool.
    pub mode: Mode,
    /// Latency charged per flush/fence (benchmarks use
    /// [`FlushModel::optane`]).
    pub flush_model: FlushModel,
    /// Optional crash-point injector shared with the test harness.
    pub injector: Option<Arc<CrashInjector>>,
    /// LRMalloc mode: skip every flush and fence. This is exactly how the
    /// paper produced its LRMalloc baseline ("Ralloc without flush and
    /// fence", §6.1). A transient heap cannot be recovered.
    pub transient: bool,
    /// Partial-list shards per size class (see [`crate::shard`]). Clamped
    /// to `1..=MAX_SHARDS` at heap construction; the `RALLOC_SHARDS`
    /// environment variable overrides it (benchmarks sweep shard counts
    /// through one binary that way). Shards are transient metadata, so the
    /// same pool image can be reopened under any shard count.
    pub partial_shards: usize,
    /// Makalu-style churn policy (paper §6.3): when a full cache bin
    /// overflows, return only the *older* half to the heap instead of the
    /// whole bin. Halves the flush batch size but keeps recently-freed
    /// blocks cached, damping the refill/flush oscillation that inflates
    /// the footprint under churn. Env override: `RALLOC_FLUSH_HALF=1`/`0`.
    pub flush_half: bool,
    /// Superblock-region bytes committed at creation. `None` (default)
    /// commits the full reserved capacity upfront — the historical
    /// one-fixed-pool behavior. A smaller value makes the heap start
    /// small and grow its committed frontier on demand (cold path only).
    /// Env override: `RALLOC_INIT_CAP` (bytes, `K`/`M`/`G` suffixes ok).
    pub initial_capacity: Option<usize>,
    /// Ceiling on the superblock-region capacity: the *reserved* virtual
    /// span, fixed for the heap's life (geometry is computed from it
    /// once). `None` reserves exactly the `create` capacity argument.
    /// Env override: `RALLOC_MAX_CAP`.
    pub max_capacity: Option<usize>,
    /// Whether the committed frontiers shrink back on their own (release
    /// of the trailing fully-free superblock run at quiescent points).
    /// Env override: `RALLOC_SHRINK=off|both`.
    pub shrink_policy: ShrinkPolicy,
    /// What the persistent flight recorder writes into the pool's
    /// crash-surviving event ring (see [`crate::flight`]). Forced to
    /// [`FlightLevel::Off`] on transient heaps (nothing persists there
    /// by definition). Env override: `RALLOC_FLIGHT=off|proto|all`.
    pub flight_level: FlightLevel,
    /// Per-(class, shard) bounded MPSC remote-free rings (see
    /// [`crate::remote`]): a flush routes superblock groups the freeing
    /// thread does not own onto the owning shard's ring with a wait-free
    /// zero-CAS push; the owner drains them into its cache bins during
    /// fills. Rings are volatile — a crash loses only in-flight remote
    /// frees, which recovery's reachability sweep reclaims. Inert when
    /// the heap runs a single shard (every free is then local). Env
    /// override: `RALLOC_REMOTE_RING=on|off`.
    pub remote_ring: bool,
    /// Slots per remote-free ring (one superblock-coherent batch each;
    /// rounded up to a power of two and clamped to `2..=4096`). A full
    /// ring displaces its oldest batch back onto the direct grouped-CAS
    /// path, so capacity trades producer-side CAS savings against DRAM.
    /// Env override: `RALLOC_REMOTE_RING_CAP`.
    pub remote_ring_cap: usize,
}

impl Default for RallocConfig {
    fn default() -> Self {
        RallocConfig {
            mode: Mode::Direct,
            flush_model: FlushModel::default(),
            injector: None,
            transient: false,
            partial_shards: DEFAULT_SHARDS,
            flush_half: false,
            initial_capacity: None,
            max_capacity: None,
            shrink_policy: ShrinkPolicy::Both,
            flight_level: FlightLevel::Proto,
            remote_ring: true,
            remote_ring_cap: DEFAULT_REMOTE_RING_CAP,
        }
    }
}

/// Default remote-free ring capacity (slots per (class, shard) ring;
/// each slot parks one superblock-coherent batch). 64 batches absorb a
/// deep producer/consumer bleed burst while keeping the slot array at
/// 512 bytes per ring.
pub const DEFAULT_REMOTE_RING_CAP: usize = 64;

/// Default shard count: enough to spread the slow paths of a typical
/// thread pool without bloating the probe ring for single-thread runs.
pub const DEFAULT_SHARDS: usize = 4;

/// Default event-journal capacity (events; override with
/// `RALLOC_JOURNAL_CAP`). 4096 covers minutes of slow-path traffic —
/// the journal records protocol phases, not per-malloc events.
pub const DEFAULT_JOURNAL_CAP: usize = 4096;

impl RallocConfig {
    /// Config for crash-semantics testing: tracked pool, free flushes.
    pub fn tracked() -> Self {
        RallocConfig { mode: Mode::Tracked, ..Default::default() }
    }

    /// Config for the LRMalloc baseline.
    pub fn transient() -> Self {
        RallocConfig { transient: true, ..Default::default() }
    }
}

/// Slow-path event counters (diagnostics; the fast path counts nothing).
///
/// The fill/flush pairs make the batching observable: `cache_fills` /
/// `cache_fill_blocks` say how many refills ran and how many blocks they
/// moved in bulk; `fill_anchor_cas` says how many anchor CASes that cost
/// (one per superblock reserved, *not* one per block). Symmetrically for
/// flushes. [`SlowStats::avg_fill_batch`] and
/// [`SlowStats::avg_flush_batch`] report the amortization factor.
///
/// Every field is a [`telemetry::Counter`] registered by its field name
/// in the heap's metric [`telemetry::Registry`] (see
/// [`Ralloc::telemetry`]), so exporters and the soak sampler enumerate
/// these counters without going through this struct. The `Counter` API
/// mirrors `AtomicU64` (`fetch_add`/`load`), so existing readers are
/// unaffected by the migration.
#[derive(Debug, Default)]
pub struct SlowStats {
    /// Thread-cache refills from a partial or fresh superblock.
    pub cache_fills: Counter,
    /// Blocks moved into bins by those refills.
    pub cache_fill_blocks: Counter,
    /// Whole-bin flushes back to superblocks.
    pub cache_flushes: Counter,
    /// Blocks returned by those flushes.
    pub cache_flushes_blocks: Counter,
    /// Successful anchor CASes performed by fills (batch reservations).
    pub fill_anchor_cas: Counter,
    /// Successful anchor CASes performed by flushes (batch returns).
    pub flush_anchor_cas: Counter,
    /// Superblocks carved by expanding `used`.
    pub sb_carved: Counter,
    /// Committed-frontier growths (cold path: each one is a commit + one
    /// persisted metadata word).
    pub heap_grows: Counter,
    /// Descriptor-region frontier growths (v5: the descriptor region has
    /// its own frontier word and its own instances of the grow protocol).
    pub desc_grows: Counter,
    /// Committed-frontier shrinks that released at least one superblock
    /// (quiescent points only: clean close, end of recovery, explicit
    /// [`Ralloc::shrink`]).
    pub heap_shrinks: Counter,
    /// Superblocks released back to the OS by those shrinks.
    pub sb_released: Counter,
    /// Extra partial-list candidates popped by best-fit fills (each probe
    /// also re-pushes its loser, so the CAS cost is 2× this).
    pub fill_bestfit_probes: Counter,
    /// Blocks a churn-policy fill claimed but immediately returned to
    /// their superblock (bounded fill retention; 0 unless
    /// [`RallocConfig::flush_half`]).
    pub fill_bounded_returns: Counter,
    /// Cache bins parked whole at thread exit instead of being flushed.
    pub bin_parks: Counter,
    /// Fills served by adopting a parked bin (zero CASes, zero carves).
    pub bin_adopts: Counter,
    /// Fully-empty superblocks reclaimed from partial lists instead of
    /// carving fresh space.
    pub sb_scavenged: Counter,
    /// Fills served by the free-list re-check that follows a failed
    /// scavenge (a concurrent flush/scavenge replenished the list while
    /// our scan was holding descriptors invisible).
    pub free_recheck_hits: Counter,
    /// Open-addressing probes performed by bulk-flush partitioning.
    /// Small batches use the in-place linear scan and count nothing;
    /// for table-partitioned batches this stays O(batch len) no matter
    /// how many superblocks the bin spans.
    pub flush_partition_probes: Counter,
    /// Large allocations served.
    pub large_allocs: Counter,
    /// Fills served by popping the calling thread's *home* shard.
    pub partial_pops_home: Counter,
    /// Fills served by stealing from a neighbor shard (home was empty).
    pub partial_steals: Counter,
    /// FULL→PARTIAL transitions enlisting a superblock on the pusher's
    /// home shard.
    pub partial_shard_pushes: Counter,
    /// Bin overflows resolved by the flush-half policy (0 unless
    /// [`RallocConfig::flush_half`] is set).
    pub half_flushes: Counter,
    /// Blocks a flush classified as *remote* (superblock owned by a shard
    /// other than the freeing thread's home). Counted in both ring modes,
    /// so `remote_anchor_cas / remote_free_blocks` is the comparable
    /// remote-free CAS cost.
    pub remote_free_blocks: Counter,
    /// Anchor CASes spent returning remote groups: every remote group
    /// with rings off; only ring-overflow displacements and teardown
    /// drains with rings on.
    pub remote_anchor_cas: Counter,
    /// Batches pushed onto remote-free rings (wait-free producer side).
    pub remote_ring_pushes: Counter,
    /// Blocks carried by those pushes.
    pub remote_ring_push_blocks: Counter,
    /// Batches claimed by fill-side ring drains (owner + steal drains).
    pub remote_ring_drain_batches: Counter,
    /// Blocks those drains moved straight into cache bins (zero CAS).
    pub remote_ring_drain_blocks: Counter,
    /// Ring pushes that lapped an undrained slot, displacing its batch
    /// back onto the direct grouped-CAS fallback (also flight-recorded,
    /// so `rinspect timeline` shows a pool running degraded).
    pub remote_ring_overflows: Counter,
    /// Blocks-per-drain distribution of fill-side ring drains.
    pub remote_drain_batch: Histogram,
}

impl SlowStats {
    /// Build the stats with every counter registered (by field name) in
    /// `reg`, so the registry and this struct are two views of the same
    /// sharded counters.
    fn registered(reg: &Registry) -> SlowStats {
        SlowStats {
            cache_fills: reg.counter("cache_fills"),
            cache_fill_blocks: reg.counter("cache_fill_blocks"),
            cache_flushes: reg.counter("cache_flushes"),
            cache_flushes_blocks: reg.counter("cache_flushes_blocks"),
            fill_anchor_cas: reg.counter("fill_anchor_cas"),
            flush_anchor_cas: reg.counter("flush_anchor_cas"),
            sb_carved: reg.counter("sb_carved"),
            heap_grows: reg.counter("heap_grows"),
            desc_grows: reg.counter("desc_grows"),
            heap_shrinks: reg.counter("heap_shrinks"),
            sb_released: reg.counter("sb_released"),
            fill_bestfit_probes: reg.counter("fill_bestfit_probes"),
            fill_bounded_returns: reg.counter("fill_bounded_returns"),
            bin_parks: reg.counter("bin_parks"),
            bin_adopts: reg.counter("bin_adopts"),
            sb_scavenged: reg.counter("sb_scavenged"),
            free_recheck_hits: reg.counter("free_recheck_hits"),
            flush_partition_probes: reg.counter("flush_partition_probes"),
            large_allocs: reg.counter("large_allocs"),
            partial_pops_home: reg.counter("partial_pops_home"),
            partial_steals: reg.counter("partial_steals"),
            partial_shard_pushes: reg.counter("partial_shard_pushes"),
            half_flushes: reg.counter("half_flushes"),
            remote_free_blocks: reg.counter("remote_free_blocks"),
            remote_anchor_cas: reg.counter("remote_anchor_cas"),
            remote_ring_pushes: reg.counter("remote_ring_pushes"),
            remote_ring_push_blocks: reg.counter("remote_ring_push_blocks"),
            remote_ring_drain_batches: reg.counter("remote_ring_drain_batches"),
            remote_ring_drain_blocks: reg.counter("remote_ring_drain_blocks"),
            remote_ring_overflows: reg.counter("remote_ring_overflows"),
            remote_drain_batch: reg.histogram("remote_drain_batch_blocks"),
        }
    }

    /// Average blocks obtained per cache fill (0.0 before the first fill).
    pub fn avg_fill_batch(&self) -> f64 {
        let fills = self.cache_fills.load(Ordering::Relaxed);
        if fills == 0 {
            return 0.0;
        }
        self.cache_fill_blocks.load(Ordering::Relaxed) as f64 / fills as f64
    }

    /// Average blocks returned per cache flush (0.0 before the first).
    pub fn avg_flush_batch(&self) -> f64 {
        let flushes = self.cache_flushes.load(Ordering::Relaxed);
        if flushes == 0 {
            return 0.0;
        }
        self.cache_flushes_blocks.load(Ordering::Relaxed) as f64 / flushes as f64
    }

    /// Fraction of partial-list pops that had to steal from a neighbor
    /// shard (0.0 before the first pop). High values mean the shard
    /// placement is imbalanced for this workload.
    pub fn steal_rate(&self) -> f64 {
        let home = self.partial_pops_home.load(Ordering::Relaxed);
        let stolen = self.partial_steals.load(Ordering::Relaxed);
        if home + stolen == 0 {
            return 0.0;
        }
        stolen as f64 / (home + stolen) as f64
    }
}

/// Shared heap state. Public API lives on [`Ralloc`].
pub struct HeapInner {
    pool: PmemPool,
    geo: Geometry,
    id: u64,
    transient: bool,
    /// Live partial-list shard count (transient config; see `shard`).
    shards: u32,
    /// Return only half of an overflowing cache bin (Makalu-style).
    flush_half: bool,
    /// Whether the frontiers shrink back at close and after recovery.
    shrink_policy: ShrinkPolicy,
    /// Bins parked by exited threads, adopted whole by future fills
    /// (bounded retention: at most [`MAX_PARKED_BINS`] per class).
    /// Transient like the thread caches they came from: discarded on
    /// crash, flushed on clean close.
    parked: [Mutex<Vec<CacheBin>>; NUM_CLASSES],
    /// Bounded MPSC remote-free rings, indexed `[class][shard]` (flat,
    /// `class * shards + shard`). `None` when disabled by config/env or
    /// when the heap runs a single shard (every free is local then).
    /// Volatile by design — see [`crate::remote`]: drained to the heap at
    /// clean close and explicit shrink, discarded by crash simulation
    /// and recovery (the reachability sweep reclaims their blocks).
    rings: Option<Box<[RemoteRing]>>,
    /// Rotating start shard for the pre-carve ring steal-drain. Without
    /// rotation a fixed scan order starves the highest-indexed rings —
    /// early-stopping drains keep skimming the first pending ring and
    /// the rest sit full, displacing every subsequent push.
    ring_cursor: AtomicU64,
    /// Per-ring (occupancy, high-water) gauge handles, keyed by flat ring
    /// index. A ring enters the registry only once it has seen traffic —
    /// idle rings would otherwise flood exports with `classes x shards`
    /// zero entries — and its `'static` names are leaked exactly once
    /// here, not per export.
    ring_gauges: Mutex<HashMap<usize, (Gauge, Gauge)>>,
    /// The superblock region's committed frontier (see
    /// [`crate::frontier`]).
    sb: Frontier,
    /// The descriptor region's committed frontier: the same protocol,
    /// run independently against the region's own word (v5).
    desc: Frontier,
    /// Bumped by crash simulation so stale thread caches are discarded.
    generation: AtomicU64,
    /// Thread-exit cache drains in flight. A thread's TLS destructor runs
    /// *after* the thread is observably finished (e.g. after
    /// `thread::scope` returns, which only waits for the closure), so its
    /// cache flush can land in the middle of a quiescent-point operation
    /// on another thread. Destructors bracket their drain with
    /// `begin/end_exit_drain`; recovery retires pre-recovery caches and
    /// waits this count out (`quiesce_caches`), close and explicit shrink
    /// wait it out (`await_exit_drains`).
    exit_drains: AtomicUsize,
    closed: AtomicBool,
    file: Option<PathBuf>,
    /// Transient per-root filter functions (paper's `rootsFunc`),
    /// re-registered each run by `get_root<T>`.
    pub(crate) root_fns: Mutex<HashMap<usize, TraceFn>>,
    pub(crate) slow: SlowStats,
    /// The heap's metric registry ([`SlowStats`] plus recovery gauges
    /// and any histograms callers hang off it); `heap` scope in exports.
    pub(crate) telemetry: Registry,
    /// Ring buffer of persistence-protocol events (grow/shrink phases,
    /// recovery phases, fill/flush/steal/carve).
    pub(crate) journal: Journal,
    /// Crash-surviving protocol-event ring living inside the pool's
    /// metadata region (see [`crate::flight`]). The volatile journal's
    /// durable sibling: same event schema, survives SIGKILL.
    pub(crate) flight: FlightRecorder,
    /// The pool's flight timeline as found at adoption, *before* this
    /// process wrote anything — the previous run's last recorded steps
    /// (the victim's, after a crash). Empty for fresh heaps.
    preopen_flight: FlightScan,
    /// Background JSONL sampler, when started (env knob or API).
    sampler: Mutex<Option<SamplerHandle>>,
}

impl HeapInner {
    #[inline]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Announce a thread-exit cache drain and read the state that decides
    /// whether it may flush: `(generation, closed)`. SeqCst pairs this
    /// with [`HeapInner::quiesce_caches`]: a destructor either reads the
    /// old generation — and then its increment is visible to the waiter,
    /// which blocks until [`HeapInner::end_exit_drain`] — or reads the new
    /// one and flushes nothing.
    pub(crate) fn begin_exit_drain(&self) -> (u64, bool) {
        self.exit_drains.fetch_add(1, Ordering::SeqCst);
        (self.generation.load(Ordering::SeqCst), self.closed.load(Ordering::SeqCst))
    }

    pub(crate) fn end_exit_drain(&self) {
        self.exit_drains.fetch_sub(1, Ordering::SeqCst);
    }

    /// Retire every thread cache stamped before this point (their blocks
    /// are about to be re-derived from the roots, exactly as after a
    /// crash) and wait out exit drains that passed the generation check
    /// first. Recovery's entry step.
    pub(crate) fn quiesce_caches(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.await_exit_drains();
    }

    /// Wait for in-flight thread-exit drains without invalidating caches
    /// (close and explicit shrink *want* exiting threads' blocks flushed
    /// — just not concurrently with their own list scan).
    pub(crate) fn await_exit_drains(&self) {
        while self.exit_drains.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    #[inline]
    pub(crate) fn pool(&self) -> &PmemPool {
        &self.pool
    }

    #[inline]
    pub(crate) fn geo(&self) -> &Geometry {
        &self.geo
    }

    #[inline]
    pub(crate) fn is_transient(&self) -> bool {
        self.transient
    }

    /// Live partial-list shard count.
    #[inline]
    pub(crate) fn shards(&self) -> u32 {
        self.shards
    }

    /// The sharded partial list of `class` under this heap's shard count.
    #[inline]
    pub(crate) fn partial(&self, class: u32) -> ShardedPartial {
        ShardedPartial::new(class, self.shards)
    }

    /// The calling thread's home shard on this heap.
    #[inline]
    pub(crate) fn home_shard(&self) -> u32 {
        shard::home_shard(shard::thread_token(), self.shards)
    }

    /// Fold descriptors parked on reserved-but-stale shard heads
    /// (`live..MAX_SHARDS`) into the live shards. A *clean* reopen under
    /// a smaller shard count inherits the previous run's heads verbatim,
    /// and nothing online ever probes past the live count (pops and
    /// scavenges stop there) — without this, those superblocks' free
    /// blocks would be stranded until the next dirty restart's rebuild.
    fn fold_stale_shards(&self) {
        for class in 1..NUM_CLASSES as u32 {
            for s in self.shards..shard::MAX_SHARDS as u32 {
                let stale = DescList::partial_shard(&self.geo, class, s);
                let mut popped = 0;
                while let Some(idx) = stale.pop(&self.pool, &self.geo) {
                    popped += 1;
                    assert!(
                        popped <= self.geo.max_sb,
                        "stale shard head cycles: corrupt clean image"
                    );
                    self.partial(class).push(
                        &self.pool,
                        &self.geo,
                        idx,
                        shard::place_superblock(idx as usize, self.shards),
                    );
                }
            }
        }
    }

    /// Absolute address of pool offset `off`.
    #[inline]
    pub(crate) fn addr_of(&self, off: usize) -> usize {
        self.pool.base() as usize + off
    }

    /// Flush+fence unless in transient (LRMalloc) mode.
    #[inline]
    pub(crate) fn persist(&self, off: usize, len: usize) {
        if !self.transient {
            self.pool.persist(off, len);
        }
    }

    /// Record an event in the persistent flight ring (level-gated; see
    /// [`crate::flight`]).
    #[inline]
    pub(crate) fn flight_record(&self, kind: EventKind, a: u64, b: u64) {
        self.flight.record(&self.pool, kind, a, b);
    }

    /// Number of superblocks carved so far (the paper's `used`).
    pub(crate) fn used_sb(&self) -> usize {
        // SAFETY: metadata offset, 8-aligned.
        unsafe { self.pool.atomic_u64(USED_SB_OFF) }.load(Ordering::Acquire) as usize
    }

    /// Both region frontiers, superblocks first (grow and shrink order).
    pub(crate) fn frontiers(&self) -> [&Frontier; 2] {
        [&self.sb, &self.desc]
    }

    /// Record a protocol event in the volatile journal and the persistent
    /// flight ring.
    #[inline]
    pub(crate) fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.journal.record(kind, a, b);
        self.flight_record(kind, a, b);
    }

    /// One flat JSON time-series line for the sampler (JSONL schema; see
    /// the README's Observability section). Key names are stable — CI
    /// asserts `committed_len`, `fills`, `flushes`, `steals` exist and
    /// behave (present every line, monotone where monotone).
    pub(crate) fn sample_line(&self) -> String {
        let s = &self.slow;
        let pm = self.pool.stats().snapshot();
        self.refresh_ring_gauges();
        let ring_occ = self.rings.as_ref().map_or(0, |r| r.iter().map(RemoteRing::occupancy).sum());
        let ring_hw =
            self.rings.as_ref().map_or(0, |r| r.iter().map(RemoteRing::high_water).max().unwrap_or(0));
        format!(
            "{{\"t_ms\": {}, \"heap_id\": {}, \"committed_len\": {}, \"committed_sb\": {}, \
             \"used_sb\": {}, \"fills\": {}, \"fill_blocks\": {}, \"flushes\": {}, \
             \"flush_blocks\": {}, \"steals\": {}, \"home_pops\": {}, \"steal_rate\": {:.4}, \
             \"carved\": {}, \"grows\": {}, \"shrinks\": {}, \"sb_released\": {}, \
             \"large_allocs\": {}, \"pmem_flush_lines\": {}, \"pmem_flush_calls\": {}, \
             \"pmem_fences\": {}, \"journal_events\": {}, \"remote_ring_occupancy\": {ring_occ}, \
             \"remote_ring_high_water\": {ring_hw}}}",
            telemetry::now_ms(),
            self.id,
            self.sb.safe(),
            self.sb.covered(),
            self.used_sb(),
            s.cache_fills.get(),
            s.cache_fill_blocks.get(),
            s.cache_flushes.get(),
            s.cache_flushes_blocks.get(),
            s.partial_steals.get(),
            s.partial_pops_home.get(),
            s.steal_rate(),
            s.sb_carved.get(),
            s.heap_grows.get(),
            s.heap_shrinks.get(),
            s.sb_released.get(),
            s.large_allocs.get(),
            pm.flush_lines,
            pm.flush_calls,
            pm.fences,
            self.journal.recorded(),
        )
    }

    /// Refresh the remote-ring occupancy/high-water gauges from the live
    /// rings. Called on every telemetry export — the rings themselves
    /// stay untouched on the hot path; this is a point-in-time read of
    /// their producer/consumer counters. Per-ring gauges ground capacity
    /// tuning (`RALLOC_REMOTE_RING_CAP`): a high-water at the slot count
    /// means that ring displaces batches back onto the anchor-CAS path.
    pub(crate) fn refresh_ring_gauges(&self) {
        let Some(rings) = &self.rings else { return };
        self.telemetry.describe(
            "remote_ring_occupancy",
            "remote-free batches currently in flight across every ring",
        );
        self.telemetry.describe(
            "remote_ring_high_water",
            "highest in-flight batch count any single ring has seen",
        );
        let shards = self.shards as usize;
        let mut gauges = self.ring_gauges.lock();
        let (mut occ_total, mut hw_max) = (0u64, 0u64);
        for (i, ring) in rings.iter().enumerate() {
            let (occ, hw) = (ring.occupancy(), ring.high_water());
            occ_total += occ;
            hw_max = hw_max.max(hw);
            if hw == 0 && !gauges.contains_key(&i) {
                continue; // never-touched ring: keep it out of the registry
            }
            let (occ_g, hw_g) = gauges.entry(i).or_insert_with(|| {
                let (class, shard) = (i / shards, i % shards);
                // Leaked exactly once per active ring (bounded by
                // classes x shards), because registry names are 'static.
                let occ_name: &'static str = Box::leak(
                    format!("remote_ring_c{class}_s{shard}_occupancy").into_boxed_str(),
                );
                let hw_name: &'static str = Box::leak(
                    format!("remote_ring_c{class}_s{shard}_high_water").into_boxed_str(),
                );
                (self.telemetry.gauge(occ_name), self.telemetry.gauge(hw_name))
            });
            occ_g.set(occ as i64);
            hw_g.set(hw as i64);
        }
        self.telemetry.gauge("remote_ring_occupancy").set(occ_total as i64);
        self.telemetry.gauge("remote_ring_high_water").set(hw_max as i64);
    }

    /// The shrink policy this heap runs under.
    #[inline]
    pub(crate) fn shrink_policy(&self) -> ShrinkPolicy {
        self.shrink_policy
    }

    /// Release the trailing run of fully-free superblocks: unlink their
    /// descriptors, lower `used`, then lower each region's frontier to
    /// cover exactly the new `used` and decommit its tail. Returns the
    /// number of superblocks released.
    ///
    /// **Quiescent-point only** — the caller guarantees no concurrent
    /// heap operation (clean close, end of recovery, or an explicit
    /// [`Ralloc::shrink`] under the same contract): `used` never
    /// decreases online, and the list surgery below is not lock-free.
    ///
    /// Crash-recoverable ordering (the grow protocol's mirror image):
    /// 1. unlink the released descriptors from the free/partial lists
    ///    (transient state: a crash here just means a dirty rebuild);
    /// 2. lower the persisted `used` word and flush + fence it;
    /// 3. per region, [`Frontier::shrink_to`]: unpublish → CAS-min word →
    ///    flush+fence → decommit.
    ///
    /// The lowered `used` is durable before either word drops, so in
    /// every interleaving each durable frontier covers every
    /// durably-`used` superblock. Each region decides on its own: the
    /// release covers the freed trailing run *and* any committed but
    /// never carved overshoot, in either region.
    pub(crate) fn shrink_quiesced(&self) -> usize {
        let used = self.used_sb();
        // Interior superblocks of *live* large allocations carry stale
        // recycled anchors (only the head's anchor is maintained online),
        // so "anchor == EMPTY" alone cannot prove a superblock free:
        // claim live spans first, exactly like recovery and the checker.
        let mut claimed = vec![false; used];
        for i in 0..used {
            let d = Desc::new(&self.pool, &self.geo, i as u32);
            if let DescKind::LargeHead { span } = d.classify(&self.geo, used) {
                if d.anchor(Ordering::Acquire).state == SbState::Full {
                    for k in 0..span {
                        claimed[i + k] = true;
                    }
                }
            }
        }
        let mut new_used = used;
        while new_used > 0 && !claimed[new_used - 1] {
            let d = Desc::new(&self.pool, &self.geo, (new_used - 1) as u32);
            if d.anchor(Ordering::Acquire).state != SbState::Empty {
                break;
            }
            new_used -= 1;
        }
        if new_used == used && self.frontiers().iter().all(|f| f.safe() <= f.len_for(new_used)) {
            return 0;
        }
        // Step 1: unlink every released descriptor. They sit on the free
        // list or (lazily retired) on a partial shard; filtering each
        // list and re-splicing the survivors preserves order. All
        // reserved shard heads are walked, not just the live ones — a
        // clean image may carry stale-shard state from a wider run.
        if new_used < used {
            let keep = |idx: &u32| (*idx as usize) < new_used;
            let free = DescList::free_list(&self.geo);
            let kept: Vec<u32> =
                free.collect(&self.pool, &self.geo).into_iter().filter(keep).collect();
            free.reset(&self.pool);
            free.splice_slice(&self.pool, &self.geo, &kept);
            for class in 1..NUM_CLASSES as u32 {
                for s in 0..shard::MAX_SHARDS as u32 {
                    let list = DescList::partial_shard(&self.geo, class, s);
                    let all = list.collect(&self.pool, &self.geo);
                    if all.iter().any(|idx| !keep(idx)) {
                        let kept: Vec<u32> = all.into_iter().filter(keep).collect();
                        list.reset(&self.pool);
                        list.splice_slice(&self.pool, &self.geo, &kept);
                    }
                }
            }
        }
        // Step 2: the persisted `used` must drop (and become durable)
        // before any frontier word may.
        // SAFETY: metadata word, quiescent.
        unsafe { self.pool.atomic_u64(USED_SB_OFF) }
            .store(new_used as u64, Ordering::Release);
        self.persist(USED_SB_OFF, 8);
        self.record(EventKind::ShrinkUnpublish, self.sb.len_for(new_used) as u64, new_used as u64);
        // Step 3: each region lowers to cover `new_used` on its own.
        let released = self.sb.shrink_to(self, new_used);
        self.desc.shrink_to(self, new_used);
        if released > 0 {
            self.slow.heap_shrinks.fetch_add(1, Ordering::Relaxed);
            self.slow.sb_released.fetch_add(released as u64, Ordering::Relaxed);
        }
        released
    }

    /// Blocks a single fill may retain in the bin for `class`. Unbounded
    /// by default (the paper's whole-superblock Fill); bounded under the
    /// churn policy so one circulating superblock can feed several
    /// concurrently-active threads (see [`CHURN_FILL_RETAIN_DIV`]).
    #[inline]
    fn fill_retain(&self, mc: u32) -> u32 {
        if self.flush_half {
            (mc / CHURN_FILL_RETAIN_DIV).max(CHURN_FILL_RETAIN_MIN).min(mc)
        } else {
            mc
        }
    }

    /// Park a non-empty bin for adoption by a future thread's fill.
    /// Returns false (caller must flush) when the class's retention bound
    /// is already met or the heap is closed/crashed past this bin's life.
    fn park_bin(&self, class: u32, bin: &mut CacheBin) -> bool {
        if bin.len() == 0 {
            return true; // nothing to retain
        }
        // Retention across thread exits is a churn-policy lever; the
        // default policy keeps the historical exit-time full flush.
        if !self.flush_half {
            return false;
        }
        if self.parked[class as usize].lock().len() >= MAX_PARKED_BINS {
            return false;
        }
        // Under the churn policy, trim to the fill-retention bound before
        // parking: the excess goes back to superblock chains where every
        // thread can find it, instead of waiting for a same-class
        // adopter. (Flush outside the parked lock — it can take CASes.)
        let retain = self.fill_retain(class_max_count(class));
        if bin.len() > retain {
            let excess = bin.len() as usize - retain as usize;
            self.flush_blocks(&mut bin.blocks_mut()[..excess]);
            bin.drain_front(excess);
        }
        let mut parked = self.parked[class as usize].lock();
        if parked.len() >= MAX_PARKED_BINS {
            return false;
        }
        parked.push(std::mem::replace(bin, CacheBin::new()));
        self.slow.bin_parks.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Adopt a parked bin (most recently parked first), if any.
    fn adopt_parked(&self, class: u32) -> Option<CacheBin> {
        self.parked[class as usize].lock().pop()
    }

    /// Flush every parked bin back to the heap (clean close: a clean
    /// shutdown leaves nothing cached anywhere).
    pub(crate) fn flush_parked(&self) {
        for class in 1..NUM_CLASSES {
            let bins = std::mem::take(&mut *self.parked[class].lock());
            for mut bin in bins {
                self.flush_bin(&mut bin);
            }
        }
    }

    /// Drop every parked bin without flushing (crash/recovery: the blocks
    /// now belong to the rebuilt free structures, like stale TLS bins).
    pub(crate) fn discard_parked(&self) {
        for class in 1..NUM_CLASSES {
            self.parked[class].lock().clear();
        }
    }

    /// Expand the used prefix of the superblock region by `n` superblocks
    /// (paper §4.3): CAS `used` upward, then flush+fence it. When the
    /// committed frontier is in the way, grow it first (cold path); `None`
    /// only at the reserved-capacity ceiling.
    fn carve(&self, n: usize) -> Option<u32> {
        // SAFETY: metadata offset, 8-aligned.
        let used = unsafe { self.pool.atomic_u64(USED_SB_OFF) };
        loop {
            let u = used.load(Ordering::Acquire);
            let need = u as usize + n;
            // A carve needs both its superblocks *and* its descriptors
            // under their regions' durable frontiers before `used` may
            // cover them.
            if let Some(f) = self.frontiers().into_iter().find(|f| f.covered() < need) {
                if !f.grow(self, need) {
                    return None; // out of reserved space
                }
                continue;
            }
            if used
                .compare_exchange(u, u + n as u64, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.persist(USED_SB_OFF, 8);
                self.slow.sb_carved.fetch_add(n as u64, Ordering::Relaxed);
                self.record(EventKind::Carve, u, n as u64);
                return Some(u as u32);
            }
        }
    }

    /// Refill a cache bin for `class` (paper §4.4, LRMalloc's Fill):
    /// first from a partial superblock, else from a free/fresh superblock
    /// whose entire block population goes to the bin. Either way the
    /// whole batch is reserved with at most **one** anchor CAS — a
    /// partial superblock's entire free chain is claimed by a single
    /// Partial→Full transition, and a fresh superblock is owned outright
    /// (plain anchor store) — so the slow path's synchronization is
    /// amortized over every block of the batch.
    pub(crate) fn fill_bin(&self, class: u32, bin: &mut CacheBin) -> bool {
        debug_assert!(is_small_class(class));
        debug_assert_eq!(bin.len(), 0, "fill into a non-empty bin");
        // Warm start (churn policy): adopt a bin parked by an exited
        // thread wholesale — the blocks never left DRAM-cache custody,
        // so the fill costs no anchor CAS and, crucially under churn, no
        // carve. Parking is flush_half-gated, so the pool is always
        // empty under the default policy; the gate here just skips the
        // lock.
        if self.flush_half {
            if let Some(warm) = self.adopt_parked(class) {
                debug_assert!(warm.len() > 0);
                self.slow.bin_adopts.fetch_add(1, Ordering::Relaxed);
                self.slow.cache_fills.fetch_add(1, Ordering::Relaxed);
                self.slow.cache_fill_blocks.fetch_add(warm.len() as u64, Ordering::Relaxed);
                self.record(EventKind::Fill, warm.len() as u64, class as u64);
                *bin = warm;
                return true;
            }
        }
        bin.ensure_capacity(cache_capacity(class) as usize);
        let partial = self.partial(class);
        let home = self.home_shard();
        // Owner drain (remote-free rings): batches other threads freed
        // into our home shard's ring move straight into the bin — zero
        // anchor CAS per block, the consumer half of the wait-free
        // remote-free protocol — before any shared-list CAS is attempted.
        if self.rings.is_some() && self.drain_remote(class, home, bin, home) {
            self.slow.cache_fills.fetch_add(1, Ordering::Relaxed);
            self.slow.cache_fill_blocks.fetch_add(bin.len() as u64, Ordering::Relaxed);
            self.record(EventKind::Fill, bin.len() as u64, class as u64);
            return true;
        }
        let free = DescList::free_list(&self.geo);
        let bsize = class_block_size(class) as usize;
        let mc = class_max_count(class);
        loop {
            if let Some(pop) = partial.pop(&self.pool, &self.geo, home) {
                let mut pop = pop;
                // Best-fit lever: a mostly-empty first candidate means
                // this fill is about to claim a huge chain while the list
                // goes dry for concurrent fills (the churn demand spike).
                // Probe a bounded number of further candidates and keep
                // the *fullest* — smallest free count — re-enlisting the
                // losers. Counts are read racily; the claim CAS below
                // revalidates whatever we settle on.
                let mut best = Desc::new(&self.pool, &self.geo, pop.idx).anchor(Ordering::Acquire);
                if self.flush_half && best.state == SbState::Partial && best.count * 2 > mc {
                    // Losers re-enlist only after the whole probe run:
                    // pushing one back mid-loop would hand the next
                    // (home-first, LIFO) pop the very descriptor just
                    // pushed, so no second distinct candidate would ever
                    // be seen.
                    let mut losers = [0u32; FILL_BESTFIT_PROBES];
                    let mut n_losers = 0;
                    for _ in 0..FILL_BESTFIT_PROBES {
                        let Some(cand) = partial.pop(&self.pool, &self.geo, home) else {
                            break;
                        };
                        self.slow.fill_bestfit_probes.fetch_add(1, Ordering::Relaxed);
                        let ca = Desc::new(&self.pool, &self.geo, cand.idx)
                            .anchor(Ordering::Acquire);
                        if ca.state == SbState::Empty {
                            // Lazy retirement, same as the claim loop.
                            free.push(&self.pool, &self.geo, cand.idx);
                            continue;
                        }
                        if ca.count < best.count {
                            losers[n_losers] = pop.idx;
                            pop = cand;
                            best = ca;
                        } else {
                            losers[n_losers] = cand.idx;
                        }
                        n_losers += 1;
                        if best.count * 2 <= mc {
                            break; // full enough
                        }
                    }
                    for &idx in &losers[..n_losers] {
                        partial.push(&self.pool, &self.geo, idx, home);
                    }
                }
                let idx = pop.idx;
                let d = Desc::new(&self.pool, &self.geo, idx);
                let mut a = d.anchor(Ordering::Acquire);
                let mut retired = false;
                loop {
                    if a.state == SbState::Empty {
                        // Fully-free superblock found on a partial list:
                        // retire it now (paper §4.4's lazy retirement).
                        free.push(&self.pool, &self.geo, idx);
                        retired = true;
                        break;
                    }
                    debug_assert_eq!(a.state, SbState::Partial);
                    // Reserve every free block with one CAS: count=0,
                    // avail parked at max_count, state FULL.
                    match d.cas_anchor(a, Anchor::full(mc)) {
                        Ok(()) => break,
                        Err(cur) => a = cur,
                    }
                }
                if retired {
                    // Lazily-retired EMPTY pop: no fill was served, so it
                    // counts toward neither home pops nor steals.
                    continue;
                }
                if pop.stolen {
                    self.slow.partial_steals.fetch_add(1, Ordering::Relaxed);
                    self.record(EventKind::Steal, idx as u64, class as u64);
                } else {
                    self.slow.partial_pops_home.fetch_add(1, Ordering::Relaxed);
                }
                self.slow.fill_anchor_cas.fetch_add(1, Ordering::Relaxed);
                // We own the a.count-block chain headed at a.avail; carve
                // it into the bin locally, no further synchronization.
                // The walk is clamped to the bin's capacity: `a.count`
                // can only exceed it if a user double-free inflated the
                // anchor, and the containment then must be a bounded leak,
                // never a write past the bin's slot array.
                let take = a.count.min(mc);
                debug_assert_eq!(take, a.count, "anchor count exceeds superblock population");
                // Bounded fill retention (churn policy): keep only the
                // head of the claimed chain; the tail goes straight back
                // to the superblock (one extra CAS), re-enlisting it for
                // concurrent fills instead of privatizing everything.
                let keep_n = take.min(self.fill_retain(mc));
                let mut surplus: Vec<usize> =
                    Vec::with_capacity((take - keep_n) as usize);
                let sb_addr = self.addr_of(self.geo.sb(idx as usize));
                let mut blk = a.avail;
                for i in 0..take {
                    debug_assert!(blk < mc);
                    let addr = sb_addr + blk as usize * bsize;
                    // Free-block link: the block's first word holds the
                    // next free block's index (bounded walk: the final
                    // link word is never dereferenced).
                    // SAFETY: addr is a free block we exclusively own.
                    blk = unsafe { (*(addr as *const AtomicU64)).load(Ordering::Relaxed) } as u32;
                    // The walk is a dependent pointer chase; start pulling
                    // the next link word in while this block is pushed.
                    if blk < mc {
                        prefetch_read(sb_addr + blk as usize * bsize);
                    }
                    if i < keep_n {
                        bin.push(addr);
                    } else {
                        surplus.push(addr);
                    }
                }
                if !surplus.is_empty() {
                    self.push_batch(idx as usize, &surplus, home);
                    self.slow
                        .fill_bounded_returns
                        .fetch_add(surplus.len() as u64, Ordering::Relaxed);
                }
                self.slow.cache_fills.fetch_add(1, Ordering::Relaxed);
                self.slow.cache_fill_blocks.fetch_add(keep_n as u64, Ordering::Relaxed);
                self.record(EventKind::Fill, keep_n as u64, class as u64);
                return true;
            }
            // No partial superblock: take a free one, scavenge an empty
            // one stranded on another class's partial list, or carve.
            let idx = match free.pop(&self.pool, &self.geo).or_else(|| self.scavenge()) {
                Some(i) => i,
                // A failed scavenge raced with every concurrent scan and
                // flush: while scans hold popped descriptors they are
                // invisible (the scavenge-invisibility window), and a
                // flush may have retired a superblock to the free list
                // after our first pop missed it. One re-check converts
                // those races into reuse instead of a permanent carve.
                None => match free.pop(&self.pool, &self.geo) {
                    Some(i) => {
                        self.slow.free_recheck_hits.fetch_add(1, Ordering::Relaxed);
                        i
                    }
                    None => {
                        // Last stop before carving fresh space:
                        // steal-drain every shard's remote ring for this
                        // class. In asymmetric workloads (prodcon: some
                        // threads only allocate, others only free) the
                        // owning shards may never fill again, so without
                        // this sweep their ringed blocks would strand
                        // while the frontier grew without bound.
                        if self.rings.is_some() && self.steal_drain_rings(class, bin, home) {
                            self.slow.cache_fills.fetch_add(1, Ordering::Relaxed);
                            self.slow
                                .cache_fill_blocks
                                .fetch_add(bin.len() as u64, Ordering::Relaxed);
                            self.record(EventKind::Fill, bin.len() as u64, class as u64);
                            return true;
                        }
                        match self.carve(1) {
                            Some(i) => i,
                            None => return false, // out of persistent space
                        }
                    }
                },
            };
            let d = Desc::new(&self.pool, &self.geo, idx);
            // The one flush+fence of the allocation slow path: persist the
            // superblock's size identity before any of its blocks can be
            // handed out (paper §4, innovation 1). If a recycled
            // superblock already carries the identical persisted identity
            // (same class round-tripping through the free list), the
            // flush is provably redundant and skipped.
            let unchanged = d.size_class() == class && d.block_size() == bsize as u64;
            d.set_size(class, bsize as u64, mc, self.transient || unchanged);
            // Bounded fill retention (churn policy): by default the whole
            // fresh population goes to the bin (LRMalloc's Fill, maximal
            // amortization), but under `flush_half` the bin keeps only
            // the retention bound and the rest stays on the superblock's
            // free chain, enlisted PARTIAL. A fresh carve then feeds
            // several concurrently-active threads instead of one, so
            // per-(thread × class) retention stops forcing one new
            // superblock per additional runnable thread — the churn
            // footprint's quantized demand spike.
            let keep = self.fill_retain(mc);
            let sb_addr = self.addr_of(self.geo.sb(idx as usize));
            if keep < mc {
                // We own the fresh superblock outright: link the withheld
                // tail (blocks keep..mc) in ascending order and publish
                // the anchor before enlisting. The final block's link is
                // never followed (walks are bounded by count).
                for i in keep..mc - 1 {
                    // SAFETY: free-block first word of a block we own.
                    unsafe {
                        std::ptr::write((sb_addr + i as usize * bsize) as *mut u64, i as u64 + 1)
                    };
                }
                d.set_anchor(
                    Anchor { avail: keep, count: mc - keep, state: SbState::Partial },
                    Ordering::Release,
                );
                self.partial(class).push(&self.pool, &self.geo, idx, home);
                self.slow.partial_shard_pushes.fetch_add(1, Ordering::Relaxed);
            } else {
                d.set_anchor(Anchor::full(mc), Ordering::Release);
            }
            for i in (0..keep).rev() {
                bin.push(sb_addr + i as usize * bsize);
            }
            self.slow.cache_fills.fetch_add(1, Ordering::Relaxed);
            self.slow.cache_fill_blocks.fetch_add(keep as u64, Ordering::Relaxed);
            self.record(EventKind::Fill, keep as u64, class as u64);
            return true;
        }
    }

    /// Reclaim one fully-empty superblock parked on some class's partial
    /// list. Lazy retirement (paper §4.4) leaves PARTIAL→EMPTY
    /// superblocks enlisted until their own class pops them again; under
    /// shifting class mix that reservoir can strand megabytes while other
    /// classes carve fresh space. This runs only when the free list is
    /// exhausted, scans each class's partial list a bounded number of
    /// pops, re-enlists everything still partial, and hands one empty
    /// superblock to the caller (who re-types it with `set_size`, exactly
    /// like a free-list pop — the same ownership rules apply: a popped
    /// descriptor is off-list and EMPTY means no live blocks can be
    /// concurrently freed into it).
    ///
    /// While a scan holds popped descriptors they are invisible to
    /// concurrent fills of their class, which may carve instead; the
    /// small per-class bound keeps that window to a few descriptors for
    /// a few instructions, trading at worst one transient extra carve
    /// for the (permanent) carve that skipping scavenging would cost.
    fn scavenge(&self) -> Option<u32> {
        const POPS_PER_SHARD: usize = 4;
        for class in 1..NUM_CLASSES as u32 {
            for s in 0..self.shards {
                let list = DescList::partial_shard(&self.geo, class, s);
                let mut repush: [u32; POPS_PER_SHARD] = [0; POPS_PER_SHARD];
                let mut repush_n = 0;
                let mut found = None;
                while repush_n < POPS_PER_SHARD {
                    let Some(idx) = list.pop(&self.pool, &self.geo) else { break };
                    let d = Desc::new(&self.pool, &self.geo, idx);
                    if d.anchor(Ordering::Acquire).state == SbState::Empty {
                        found = Some(idx);
                        break;
                    }
                    repush[repush_n] = idx;
                    repush_n += 1;
                }
                for &idx in &repush[..repush_n] {
                    list.push(&self.pool, &self.geo, idx);
                }
                if found.is_some() {
                    self.slow.sb_scavenged.fetch_add(1, Ordering::Relaxed);
                    return found;
                }
            }
        }
        None
    }

    /// Return a batch of same-superblock blocks to that superblock's
    /// internal free list with a **single** anchor CAS, handling the
    /// FULL→PARTIAL and →EMPTY transitions (paper §4.4). The batch is
    /// pre-linked into a local chain (we own every block until the CAS
    /// publishes it), then spliced ahead of the current free-list head.
    fn push_batch(&self, sb: usize, blocks: &[usize], home: u32) {
        debug_assert!(!blocks.is_empty());
        let d = Desc::new(&self.pool, &self.geo, sb as u32);
        let mc = d.max_count();
        let bsize = d.block_size() as usize;
        let sb_addr = self.addr_of(self.geo.sb(sb));
        let block_idx = |addr: usize| {
            debug_assert_eq!((addr - sb_addr) % bsize, 0, "misaligned block in batch");
            let blk = ((addr - sb_addr) / bsize) as u32;
            debug_assert!(blk < mc);
            blk
        };
        // Pre-link the interior of the chain: block i's first word points
        // at block i+1's index. Unlike the fill walk the addresses are all
        // known up front, so pull block i+2's line in while linking i.
        // SAFETY: we own every freed block until the CAS publishes them.
        for (i, w) in blocks.windows(2).enumerate() {
            if let Some(&ahead) = blocks.get(i + 2) {
                prefetch_read(ahead);
            }
            unsafe { (*(w[0] as *const AtomicU64)).store(block_idx(w[1]) as u64, Ordering::Relaxed) };
        }
        let head = block_idx(blocks[0]);
        let tail = blocks[blocks.len() - 1];
        let n = blocks.len() as u32;
        loop {
            let a = d.anchor(Ordering::Acquire);
            // Link the chain's tail to the current head. `a.avail` may be
            // the max_count sentinel; walks are bounded by count, so the
            // stale link is never followed.
            // SAFETY: the tail block is still ours until the CAS.
            unsafe { (*(tail as *const AtomicU64)).store(a.avail as u64, Ordering::Release) };
            let count = a.count + n;
            debug_assert!(count <= mc);
            let new = Anchor {
                avail: head,
                count,
                state: if count == mc { SbState::Empty } else { SbState::Partial },
            };
            if d.cas_anchor(a, new).is_ok() {
                self.slow.flush_anchor_cas.fetch_add(1, Ordering::Relaxed);
                if a.state == SbState::Full {
                    // FULL superblocks are on no list; the thread that
                    // makes the transition enlists the descriptor — onto
                    // its own home shard, so a thread's flushed
                    // superblocks are the ones its next fill pops.
                    if new.state == SbState::Empty {
                        DescList::free_list(&self.geo).push(&self.pool, &self.geo, sb as u32);
                    } else {
                        self.partial(d.size_class()).push(&self.pool, &self.geo, sb as u32, home);
                        self.slow.partial_shard_pushes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // PARTIAL→EMPTY keeps the descriptor on its partial list;
                // it is retired when next popped (lazy, paper §4.4).
                return;
            }
        }
    }

    /// The remote-free ring of `(class, shard)`. Callers must have
    /// checked `self.rings.is_some()`.
    #[inline]
    fn ring(&self, class: u32, shard: u32) -> &RemoteRing {
        let rings = self.rings.as_ref().expect("remote rings disabled");
        &rings[class as usize * self.shards as usize + shard as usize]
    }

    /// Whether the remote-free rings are active for this heap.
    #[inline]
    pub(crate) fn remote_rings_enabled(&self) -> bool {
        self.rings.is_some()
    }

    /// Producer side of the remote-free protocol: park one
    /// superblock-coherent group on the owning shard's ring (wait-free,
    /// zero CAS). A displaced batch — the ring lapped an undrained slot —
    /// becomes ours and is returned through the direct grouped-CAS path,
    /// so overflow degrades to the pre-ring protocol instead of losing
    /// blocks; the event is journaled and flight-recorded (proto level)
    /// so a post-mortem timeline shows the pool was running degraded.
    fn remote_push(&self, sb: usize, owner: u32, blocks: &[usize], home: u32) {
        let class = Desc::new(&self.pool, &self.geo, sb as u32).size_class();
        debug_assert!(is_small_class(class));
        self.slow.remote_ring_pushes.fetch_add(1, Ordering::Relaxed);
        self.slow.remote_ring_push_blocks.fetch_add(blocks.len() as u64, Ordering::Relaxed);
        let batch = Box::new(RemoteBatch { sb: sb as u32, blocks: blocks.to_vec() });
        if let Some(displaced) = self.ring(class, owner).push(batch) {
            self.slow.remote_ring_overflows.fetch_add(1, Ordering::Relaxed);
            self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
            let n = displaced.blocks.len() as u64;
            self.record(EventKind::RemoteRingOverflow, displaced.sb as u64, n);
            self.push_batch(displaced.sb as usize, &displaced.blocks, home);
        }
    }

    /// Consumer side: drain the `(class, shard)` ring into `bin` (zero
    /// anchor CAS per block), stopping the sweep once the bin is full —
    /// unclaimed batches stay parked for the next fill, so a small bin
    /// never forces a claimed batch back through the anchor. Only a
    /// claimed batch that *straddles* the bin's remaining room pays the
    /// one-CAS direct return for its overhang. Returns true when the bin
    /// received at least one block.
    fn drain_remote(&self, class: u32, shard: u32, bin: &mut CacheBin, home: u32) -> bool {
        let ring = self.ring(class, shard);
        if !ring.maybe_pending() {
            return false;
        }
        let mut taken = 0u64;
        let mut batches = 0u64;
        ring.drain(|batch| {
            batches += 1;
            let room = bin.capacity() - bin.len() as usize;
            let take = batch.blocks.len().min(room);
            for &addr in &batch.blocks[..take] {
                bin.push(addr);
            }
            taken += take as u64;
            if take < batch.blocks.len() {
                self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
                self.push_batch(batch.sb as usize, &batch.blocks[take..], home);
            }
            (bin.len() as usize) < bin.capacity()
        });
        if batches > 0 {
            self.slow.remote_ring_drain_batches.fetch_add(batches, Ordering::Relaxed);
            self.slow.remote_ring_drain_blocks.fetch_add(taken, Ordering::Relaxed);
            self.slow.remote_drain_batch.observe(taken);
        }
        taken > 0
    }

    /// Drain shards' rings of `class` into `bin` (the pre-carve steal
    /// sweep), starting from a rotating shard so early-stopping drains
    /// skim every ring fairly instead of starving the back of the scan
    /// order. Returns true when the bin received any block.
    fn steal_drain_rings(&self, class: u32, bin: &mut CacheBin, home: u32) -> bool {
        let start = (self.ring_cursor.fetch_add(1, Ordering::Relaxed) % self.shards as u64) as u32;
        let mut got = false;
        for i in 0..self.shards {
            got |= self.drain_remote(class, (start + i) % self.shards, bin, home);
            if bin.len() as usize == bin.capacity() {
                break;
            }
        }
        got
    }

    /// Return every ring-parked batch to its superblock (quiescent
    /// points: clean close and explicit shrink — cached blocks must land
    /// where the frontier scan and the persisted image can see them).
    pub(crate) fn drain_rings_to_heap(&self) {
        let Some(rings) = &self.rings else { return };
        let home = self.home_shard();
        for ring in rings.iter() {
            ring.drain(|batch| {
                self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
                self.push_batch(batch.sb as usize, &batch.blocks, home);
                true
            });
        }
    }

    /// Forget every ring-parked batch without flushing (crash simulation
    /// and recovery): rings are volatile by design — in-flight remote
    /// frees die with DRAM and the recovery sweep reclaims their blocks
    /// by reachability, exactly like discarded cache bins.
    pub(crate) fn discard_rings(&self) {
        let Some(rings) = &self.rings else { return };
        for ring in rings.iter() {
            ring.drain(|batch| {
                drop(batch);
                true
            });
        }
    }

    /// Return an arbitrary batch of blocks, grouping them by superblock
    /// (LRMalloc's Flush). Reorders `blocks` in place while partitioning.
    ///
    /// Each group is classified by its superblock's owning shard
    /// (`sb % S` — the shard recovery enlists it on): **local** groups
    /// (owner == this thread's home shard, or rings disabled) pay the
    /// classic one anchor CAS via [`HeapInner::push_batch`]; **remote**
    /// groups ride the owning shard's MPSC ring instead — a wait-free
    /// zero-CAS push, reclaimed in bulk by the owner's next fill.
    ///
    /// The partition starts with the in-place, allocation-free linear
    /// scan — bins overwhelmingly hold blocks of one or two superblocks,
    /// so it normally finishes in a pass or two. Only when the batch
    /// turns out to span *many* directly-pushed superblocks does the
    /// remainder escalate to a small open-addressing group table,
    /// bounding the whole partition at O(n)
    /// ([`SlowStats::flush_partition_probes`] observes the table's
    /// work). With rings on, the heavy producer/consumer bleed that used
    /// to force the escalation is absorbed by ring pushes — remote
    /// groups do not count toward the escalation threshold — so the
    /// table is effectively demoted to the ring-off/fallback path.
    pub(crate) fn flush_blocks(&self, blocks: &mut [usize]) {
        /// Distinct directly-pushed superblocks the linear scan handles
        /// before the rest of the batch escalates to the table: the
        /// scan's worst case is then `MAX_LINEAR_GROUPS`·n, and typical
        /// bins never escalate.
        const MAX_LINEAR_GROUPS: usize = 8;
        let base = self.pool.base() as usize;
        // One TLS lookup + hash for the whole batch, not per superblock.
        let home = self.home_shard();
        let rings = self.rings.is_some();
        let mut i = 0;
        let mut groups = 0;
        while i < blocks.len() {
            if groups == MAX_LINEAR_GROUPS {
                return self.flush_blocks_grouped(&blocks[i..], home);
            }
            let sb = self
                .geo
                .sb_index_of(blocks[i] - base)
                .expect("flush_blocks: foreign address");
            // Partition: move every block of this superblock into
            // blocks[i..end].
            let mut end = i + 1;
            for j in i + 1..blocks.len() {
                if self.geo.sb_index_of(blocks[j] - base) == Some(sb) {
                    blocks.swap(end, j);
                    end += 1;
                }
            }
            let owner = shard::place_superblock(sb, self.shards);
            if owner != home {
                self.slow.remote_free_blocks.fetch_add((end - i) as u64, Ordering::Relaxed);
                if rings {
                    self.remote_push(sb, owner, &blocks[i..end], home);
                    i = end;
                    continue;
                }
                self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
            }
            self.push_batch(sb, &blocks[i..end], home);
            i = end;
            groups += 1;
        }
    }

    /// Table-based batch partition (the linear scan's escalation path):
    /// one pass to chain blocks per superblock through an open-addressing
    /// group table, one pass to hand each chain to
    /// [`HeapInner::push_batch`]. O(n) expected — the table is sized at
    /// 2× the batch so probe runs stay short.
    fn flush_blocks_grouped(&self, blocks: &[usize], home: u32) {
        const EMPTY: u32 = u32::MAX;
        let base = self.pool.base() as usize;
        let n = blocks.len();
        let cap = (2 * n).next_power_of_two();
        let mask = cap - 1;
        // slot -> group index; group = (superblock, chain head into `next`).
        let mut slots: Vec<u32> = vec![EMPTY; cap];
        let mut groups: Vec<(usize, u32)> = Vec::new();
        let mut next: Vec<u32> = vec![EMPTY; n];
        let mut probes = 0u64;
        for (i, &addr) in blocks.iter().enumerate() {
            let sb = self
                .geo
                .sb_index_of(addr - base)
                .expect("flush_blocks: foreign address");
            let mut h =
                ((sb as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
            loop {
                probes += 1;
                match slots[h] {
                    EMPTY => {
                        slots[h] = groups.len() as u32;
                        groups.push((sb, i as u32));
                        break;
                    }
                    g if groups[g as usize].0 == sb => {
                        next[i] = groups[g as usize].1;
                        groups[g as usize].1 = i as u32;
                        break;
                    }
                    _ => h = (h + 1) & mask,
                }
            }
        }
        self.slow.flush_partition_probes.fetch_add(probes, Ordering::Relaxed);
        let rings = self.rings.is_some();
        let mut scratch: Vec<usize> = Vec::with_capacity(n);
        for &(sb, head) in &groups {
            scratch.clear();
            let mut i = head;
            while i != EMPTY {
                scratch.push(blocks[i as usize]);
                i = next[i as usize];
            }
            // Chains are built newest-first; restore batch order so the
            // pre-linked free chain matches the linear partition's.
            scratch.reverse();
            // Same owner routing as the linear scan: remote groups in an
            // escalated batch still ride the rings.
            let owner = shard::place_superblock(sb, self.shards);
            if owner != home {
                self.slow.remote_free_blocks.fetch_add(scratch.len() as u64, Ordering::Relaxed);
                if rings {
                    self.remote_push(sb, owner, &scratch, home);
                    continue;
                }
                self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
            }
            self.push_batch(sb, &scratch, home);
        }
    }

    /// Flush an entire cache bin back to the heap (paper §4.4: "all of
    /// the blocks in the cache are pushed back"; contrast with Makalu's
    /// return-half policy, §6.3).
    pub(crate) fn flush_bin(&self, bin: &mut CacheBin) {
        let n = bin.len() as u64;
        if n == 0 {
            return;
        }
        self.slow.cache_flushes.fetch_add(1, Ordering::Relaxed);
        self.slow.cache_flushes_blocks.fetch_add(n, Ordering::Relaxed);
        self.record(EventKind::Flush, n, 0);
        self.flush_blocks(bin.blocks_mut());
        bin.clear();
    }

    /// Return the *older* half of a full bin (Makalu's return-half
    /// policy, §6.3), keeping the recently-freed half cached. The older
    /// blocks sit at the bottom of the LIFO array, so the flushed slice is
    /// also the one most likely to complete superblocks.
    pub(crate) fn flush_bin_half(&self, bin: &mut CacheBin) {
        let n = bin.len() as usize;
        if n == 0 {
            return;
        }
        let half = n.div_ceil(2);
        self.slow.cache_flushes.fetch_add(1, Ordering::Relaxed);
        self.slow.cache_flushes_blocks.fetch_add(half as u64, Ordering::Relaxed);
        self.slow.half_flushes.fetch_add(1, Ordering::Relaxed);
        self.record(EventKind::Flush, half as u64, 0);
        self.flush_blocks(&mut bin.blocks_mut()[..half]);
        bin.drain_front(half);
    }

    /// Free-path overflow: size a never-used bin, or flush a full one
    /// (whole-bin by default, half under [`RallocConfig::flush_half`]).
    #[cold]
    pub(crate) fn free_overflow(&self, class: u32, bin: &mut CacheBin) {
        if bin.capacity() == 0 {
            bin.ensure_capacity(cache_capacity(class) as usize);
        } else if self.flush_half {
            self.flush_bin_half(bin);
        } else {
            self.flush_bin(bin);
        }
    }

    /// Drain every class bin of a TLS entry. At thread exit (`park`)
    /// non-empty bins are parked for adoption by future threads, up to
    /// the per-class retention bound; at close, and past the bound,
    /// they flush back to their superblocks.
    pub(crate) fn drain_tls(&self, entry: &mut HeapTls, park: bool) {
        for (class, bin) in entry.bins.iter_mut().enumerate() {
            if park && class != 0 && self.park_bin(class as u32, bin) {
                continue;
            }
            self.flush_bin(bin);
        }
    }

    fn malloc_large(&self, size: usize) -> *mut u8 {
        let span = size.div_ceil(SB_SIZE);
        // The paper always expands `used` for large allocations (§4.4).
        // When expansion fails we additionally try the free list for
        // single-superblock requests — a documented liveness improvement
        // for long-running processes with bounded pools.
        let idx = match self.carve(span) {
            Some(i) => Some(i),
            None if span == 1 => DescList::free_list(&self.geo)
                .pop(&self.pool, &self.geo)
                .or_else(|| self.scavenge()),
            None => None,
        };
        let Some(idx) = idx else {
            return std::ptr::null_mut();
        };
        // Tag interior superblocks first, then the head: all persisted
        // before the block is returned, so a post-crash conservative trace
        // can never misinterpret stale interior metadata (see recovery).
        for k in 1..span {
            Desc::new(&self.pool, &self.geo, idx + k as u32).set_size(
                CLASS_CONTINUATION,
                0,
                0,
                self.transient,
            );
        }
        let head = Desc::new(&self.pool, &self.geo, idx);
        head.set_size(0, size as u64, 1, self.transient);
        head.set_anchor(Anchor::full(1), Ordering::Release);
        self.slow.large_allocs.fetch_add(1, Ordering::Relaxed);
        self.addr_of(self.geo.sb(idx as usize)) as *mut u8
    }

    fn free_large(&self, off: usize, sb: usize) {
        let d = Desc::new(&self.pool, &self.geo, sb as u32);
        assert_eq!(off, self.geo.sb(sb), "free: not the start of a large block");
        let span = (d.block_size() as usize).div_ceil(SB_SIZE);
        // Split into constituent superblocks and retire each (paper §4.4).
        for k in 0..span {
            let dk = Desc::new(&self.pool, &self.geo, (sb + k) as u32);
            dk.set_anchor(Anchor { avail: 0, count: 0, state: SbState::Empty }, Ordering::Release);
            DescList::free_list(&self.geo).push(&self.pool, &self.geo, (sb + k) as u32);
        }
    }
}

/// A Ralloc persistent heap handle (cheaply cloneable).
///
/// The API mirrors the paper's Figure 1: `init` ([`Ralloc::create`] /
/// [`Ralloc::open_file`]), [`Ralloc::recover`], [`Ralloc::close`],
/// [`Ralloc::malloc`], [`Ralloc::free`], [`Ralloc::set_root`] and
/// [`Ralloc::get_root`].
#[derive(Clone)]
pub struct Ralloc {
    pub(crate) inner: Arc<HeapInner>,
}

impl Ralloc {
    // ---------------------------------------------------------- creation

    /// Create a fresh in-memory heap whose superblock region can hold at
    /// least `capacity` bytes.
    ///
    /// `capacity` (together with [`RallocConfig::max_capacity`] /
    /// `RALLOC_MAX_CAP`, whichever is larger) fixes the heap's *reserved*
    /// virtual span; [`RallocConfig::initial_capacity`] /
    /// `RALLOC_INIT_CAP` choose how much of it is committed upfront
    /// (default: all of it, the historical fixed-pool behavior). A heap
    /// with a small initial commitment grows its frontier on demand and
    /// only returns null once the *reserved* ceiling is exhausted.
    pub fn create(capacity: usize, cfg: RallocConfig) -> Ralloc {
        Self::create_inner(capacity, cfg, None)
    }

    /// Resolve a `create` capacity request (plus config and env
    /// overrides) into `(reserved span, initial committed length)`.
    fn capacity_plan(capacity: usize, cfg: &RallocConfig) -> (usize, usize) {
        let max_cap = shard::env_size("RALLOC_MAX_CAP")
            .or(cfg.max_capacity)
            .unwrap_or(capacity)
            .max(capacity);
        let init_cap = shard::env_size("RALLOC_INIT_CAP")
            .or(cfg.initial_capacity)
            .unwrap_or(max_cap)
            .min(max_cap);
        let reserved = Geometry::pool_len_for_capacity(max_cap);
        let geo = Geometry::from_pool_len(reserved);
        let init_sb = init_cap.div_ceil(SB_SIZE).clamp(1, geo.max_sb);
        (reserved, geo.span(Region::Sb).len_for(init_sb))
    }

    fn create_inner(capacity: usize, cfg: RallocConfig, file: Option<PathBuf>) -> Ralloc {
        let (reserved, committed) = Self::capacity_plan(capacity, &cfg);
        let pool = PmemPool::with_reserve(
            reserved,
            committed,
            cfg.mode,
            cfg.flush_model,
            cfg.injector.clone(),
        );
        Self::fresh(pool, &cfg, file)
    }

    /// The paper's `init(path, size)`: open the heap file if it exists
    /// (returning whether a *dirty* restart — i.e. recovery — is needed),
    /// or create it fresh. A fresh or clean start returns `false`.
    ///
    /// The file holds only the committed prefix; the heap's reserved span
    /// is re-read from the image header, so a grown heap reopens with the
    /// same geometry and the same room to keep growing.
    pub fn open_file(
        path: &Path,
        capacity: usize,
        cfg: RallocConfig,
    ) -> io::Result<(Ralloc, bool)> {
        // Exclusive advisory lock first: two live processes on one pool
        // file silently race each other's saves (and, mapped, each
        // other's stores). The guard is held for the heap's lifetime and
        // auto-released by the kernel if this process dies. A second
        // opener gets a distinct "pool busy" (`WouldBlock`) error.
        // Acquiring creates the file, so emptiness — not existence —
        // distinguishes a fresh pool from one to adopt.
        let guard = PoolGuard::acquire(path)?;
        let file_len = guard.file().metadata()?.len() as usize;
        if file_len > 0 {
            let reserved = Self::peek_reserved_len(path).unwrap_or(0);
            if reserved > 0 {
                // A Ralloc header whose recorded reserved span is shorter
                // than the file is corrupt (the file can never legally
                // outgrow the reservation it was carved from). Refuse it
                // here with a real diagnostic — the old behavior clamped
                // the reservation up to the file length and left a
                // confusing "pool length mismatch" panic to fire later —
                // mirroring the truncated-image refusal in `adopt`.
                assert!(
                    file_len <= reserved,
                    "heap file {} is {file_len} bytes but its header records a \
                     reserved span of only {reserved}: refusing a corrupt heap image",
                    path.display()
                );
            }
            let pool = PmemPool::load_reserving(
                path,
                reserved,
                cfg.mode,
                cfg.flush_model,
                cfg.injector.clone(),
            )?;
            pool.hold_guard(guard);
            Ok(Self::adopt(pool, &cfg, Some(path.to_path_buf())))
        } else {
            let heap = Self::create_inner(capacity, cfg, Some(path.to_path_buf()));
            heap.inner.pool.hold_guard(guard);
            Ok((heap, false))
        }
    }

    /// Open (or create) a heap as a live `MAP_SHARED` mapping of `path` —
    /// the real-file analogue of [`Ralloc::open_file`], and the substrate
    /// the fork/SIGKILL crash harness (`crates/crashtest`) runs on. Every
    /// store lands in the OS page cache, so the heap survives the death
    /// of the process *at any instruction* with exactly the stores that
    /// had executed — no save step, no cooperation. The same flock guard
    /// applies ("pool busy" for a second live process), and the file
    /// stays openable by the plain [`Ralloc::open_file`] path afterwards
    /// (file length == committed frontier throughout).
    ///
    /// Mapped heaps are [`Mode::Direct`] only; `cfg.mode` is ignored.
    /// Requires the raw mmap layer (x86_64 Linux); other hosts get
    /// [`io::ErrorKind::Unsupported`].
    pub fn open_file_mapped(
        path: &Path,
        capacity: usize,
        cfg: RallocConfig,
    ) -> io::Result<(Ralloc, bool)> {
        let guard = PoolGuard::acquire(path)?;
        let file_len = guard.file().metadata()?.len() as usize;
        if file_len > 0 {
            let reserved = Self::peek_reserved_len(path).unwrap_or(0);
            if reserved > 0 {
                assert!(
                    file_len <= reserved,
                    "heap file {} is {file_len} bytes but its header records a \
                     reserved span of only {reserved}: refusing a corrupt heap image",
                    path.display()
                );
            }
            let pool = PmemPool::map_file(
                guard,
                reserved.max(file_len),
                file_len,
                cfg.flush_model,
                cfg.injector.clone(),
            )?;
            Ok(Self::adopt(pool, &cfg, Some(path.to_path_buf())))
        } else {
            let (reserved, committed) = Self::capacity_plan(capacity, &cfg);
            let pool = PmemPool::map_file(
                guard,
                reserved,
                committed,
                cfg.flush_model,
                cfg.injector.clone(),
            )?;
            Ok((Self::fresh(pool, &cfg, Some(path.to_path_buf())), false))
        }
    }

    /// Read the reserved span recorded in a heap file's header, if it is
    /// a current-format (or in-place-migratable v3) Ralloc image.
    fn peek_reserved_len(path: &Path) -> Option<usize> {
        use std::io::Read;
        let mut buf = [0u8; 16];
        let mut f = std::fs::File::open(path).ok()?;
        f.read_exact(&mut buf).ok()?;
        let magic = u64::from_ne_bytes(buf[0..8].try_into().unwrap());
        if magic != MAGIC && magic != MAGIC_V4 && magic != MAGIC_V3 {
            return None;
        }
        Some(u64::from_ne_bytes(buf[8..16].try_into().unwrap()) as usize)
    }

    /// Reserved span recorded in an in-memory image header (the image
    /// length when it is not a current-format Ralloc image).
    ///
    /// A recognizable header recording a reserved span *shorter* than the
    /// image is refused: the committed prefix can never legally outgrow
    /// the reservation, so such an image is corrupt (or had foreign bytes
    /// appended), and silently clamping the reservation up — the old
    /// behavior — would compute a geometry the header's `max_sb` never
    /// described. The refusal mirrors the truncated-image refusal on the
    /// file path.
    fn image_reserved_len(image: &[u8]) -> usize {
        if image.len() >= 16
            && matches!(
                u64::from_ne_bytes(image[0..8].try_into().unwrap()),
                MAGIC | MAGIC_V4 | MAGIC_V3
            )
        {
            let reserved = u64::from_ne_bytes(image[8..16].try_into().unwrap()) as usize;
            assert!(
                reserved >= image.len(),
                "heap image is {} bytes but its header records a reserved span of \
                 only {reserved}: refusing a corrupt heap image",
                image.len()
            );
            reserved
        } else {
            image.len()
        }
    }

    /// Adopt a raw pool image (e.g. a crash image remapped at a new base
    /// address). Returns the heap and whether it is dirty. The image may
    /// be shorter than the heap's reserved span (only the committed
    /// prefix is ever saved); the reservation is re-established from the
    /// header.
    pub fn from_image(image: &[u8], cfg: RallocConfig) -> (Ralloc, bool) {
        let pool =
            PmemPool::from_image_reserving(image, Self::image_reserved_len(image), cfg.mode);
        Self::adopt(pool, &cfg, None)
    }

    fn fresh(pool: PmemPool, cfg: &RallocConfig, file: Option<PathBuf>) -> Ralloc {
        let geo = Geometry::from_pool_len(pool.len());
        // Every path here (create, mapped create, and adoption of an image
        // that is not a heap) hands over a physical prefix that already
        // reaches the superblock array's base: the metadata and
        // descriptor regions are always backed.
        let sb = geo.span(Region::Sb);
        assert!(pool.committed_len() >= sb.base, "fresh pool does not back its descriptor region");
        flight::init_ring(&pool);
        // The descriptor region starts committed in lockstep with the
        // initially committed superblocks; from here on the two
        // frontiers advance and retreat independently.
        let init_sb = sb.covered(pool.committed_len());
        // SAFETY: fresh pool, exclusive access, metadata offsets in bounds.
        unsafe {
            pool.write_u64(MAGIC_OFF, MAGIC);
            pool.write_u64(POOL_LEN_OFF, pool.len() as u64);
            pool.write_u64(MAX_SB_OFF, geo.max_sb as u64);
            pool.write_u64(USED_SB_OFF, 0);
            pool.write_u64(Region::Sb.word_off(), pool.committed_len() as u64);
            pool.write_u64(Region::Desc.word_off(), geo.span(Region::Desc).len_for(init_sb) as u64);
            pool.write_u64(DIRTY_OFF, 1);
        }
        let heap = Self::build(pool, geo, cfg, file, FlightScan::default());
        heap.inner.persist(0, 64);
        heap.inner.persist(FLIGHT_OFF, FLIGHT_HDR_SIZE);
        heap.inner.flight_record(EventKind::Open, 0, 0);
        heap
    }

    fn adopt(pool: PmemPool, cfg: &RallocConfig, file: Option<PathBuf>) -> (Ralloc, bool) {
        // SAFETY: header reads within bounds.
        let mut magic = unsafe { pool.read_u64(MAGIC_OFF) };
        if magic == MAGIC_V3 {
            // v3 → v4 in-place migration: the only format change is the
            // flight ring, carved from metadata tail slack a v3 image
            // never wrote (geometry is identical). Clean images migrate;
            // dirty ones are refused — recovery must run under the build
            // that wrote the image before upgrading its format.
            // SAFETY: metadata word in bounds.
            let v3_dirty = unsafe { pool.read_u64(DIRTY_OFF) } == 1;
            assert!(
                !v3_dirty,
                "ralloc image has metadata-format version 3 and is dirty: recover \
                 it under a v3 build before upgrading (the v3→v4 flight-ring \
                 migration applies only to cleanly closed heaps)"
            );
            // Ring first, magic last, each fenced: a crash mid-migration
            // leaves a clean v3 image that simply re-migrates next open.
            // Stepping the magic only to v4 chains into the v4→v5 block
            // below, so each migration stays a self-contained recipe.
            flight::init_ring(&pool);
            pool.flush(FLIGHT_OFF, FLIGHT_HDR_SIZE);
            pool.fence();
            // SAFETY: header word.
            unsafe { pool.write_u64(MAGIC_OFF, MAGIC_V4) };
            pool.flush(MAGIC_OFF, 8);
            pool.fence();
            magic = MAGIC_V4;
        }
        if magic == MAGIC_V4 {
            // v4 → v5 in-place migration: the only format change is the
            // descriptor-region frontier word, claimed from header slack
            // every v4 image kept zeroed (geometry is identical). A v4
            // heap committed its whole descriptor region implicitly, so
            // the migrated word is `sb_off` — exactly the v4 semantics,
            // shrinkable from the next quiescent point on. Clean images
            // only: a dirty v4 image's recovery invariants belong to a
            // v4 build.
            // SAFETY: metadata word in bounds.
            let v4_dirty = unsafe { pool.read_u64(DIRTY_OFF) } == 1;
            assert!(
                !v4_dirty,
                "ralloc image has metadata-format version 4 and is dirty: open and \
                 recover it under a v4 build first (any pre-v5 checkout), close it \
                 cleanly, then reopen here — the v4→v5 descriptor-frontier \
                 migration applies only to cleanly closed heaps"
            );
            let v4_geo = Geometry::from_pool_len(pool.len());
            // Frontier word first, magic last, each fenced: a crash
            // mid-migration leaves a clean v4 image that re-migrates.
            // SAFETY: header word.
            unsafe { pool.write_u64(DESC_COMMITTED_LEN_OFF, v4_geo.sb_off as u64) };
            pool.flush(DESC_COMMITTED_LEN_OFF, 8);
            pool.fence();
            // SAFETY: header word.
            unsafe { pool.write_u64(MAGIC_OFF, MAGIC) };
            pool.flush(MAGIC_OFF, 8);
            pool.fence();
            magic = MAGIC;
        }
        if magic != MAGIC {
            // A recognizable Ralloc image with a different format version
            // must be refused, not silently re-initialized: erasing a
            // user's durable heap because they upgraded is data loss.
            // Anything else is "not a heap" and gets initialized fresh.
            assert!(
                magic & !0xFF != MAGIC & !0xFF,
                "ralloc image has metadata-format version {} but this build \
                 requires {}; re-create the pool (no in-place migration)",
                magic & 0xFF,
                MAGIC & 0xFF,
            );
            return (Self::fresh(pool, cfg, file), false);
        }
        let geo = Geometry::from_pool_len(pool.len());
        // SAFETY: header reads.
        unsafe {
            assert_eq!(pool.read_u64(POOL_LEN_OFF), pool.len() as u64, "pool length mismatch");
            assert_eq!(pool.read_u64(MAX_SB_OFF), geo.max_sb as u64, "geometry mismatch");
        }
        // Frontier validation: a word past the end of the file means the
        // file was truncated (or the word corrupted), and opening it would
        // fabricate zeroed "committed" space where user data used to be —
        // refuse rather than silently lose data.
        // SAFETY: header read.
        let used = unsafe { pool.read_u64(USED_SB_OFF) } as usize;
        for region in Region::ALL {
            if let Err(e) = frontier::validate(&pool, &geo, region, used) {
                panic!("{e}: refusing a corrupt heap image");
            }
        }
        // The image may legitimately extend *past* the superblock word (a
        // crash image captures the volatile frontier; the word records the
        // last *fenced* one). The superblock region is the pool's last, so
        // its frontier is the physical prefix: heal the word upward, since
        // file content is durable by definition.
        // SAFETY: 8-aligned metadata word.
        let sb_word = unsafe { pool.atomic_u64(Region::Sb.word_off()) };
        let healed = (sb_word.load(Ordering::Acquire) as usize) < pool.committed_len();
        if healed {
            sb_word.store(pool.committed_len() as u64, Ordering::Release);
        }
        // SAFETY: 8-aligned metadata word.
        let dirty = unsafe { pool.atomic_u64(DIRTY_OFF) }.load(Ordering::Acquire) == 1;
        // Scan the flight ring *before* this process records anything:
        // what's in it now is the previous run's last steps — after a
        // crash, the victim's pre-crash timeline.
        let preopen = flight::scan_pool(&pool);
        let heap = Self::build(pool, geo, cfg, file, preopen);
        if healed {
            heap.inner.persist(Region::Sb.word_off(), 8);
        }
        // Mark dirty for the duration of this run (the paper's robust
        // mutex acquire): any crash from here on requires recovery. This
        // must precede the stale-shard fold below — the fold mutates
        // durable list state, so a crash mid-fold has to trigger a full
        // rebuild, never a second fold over a half-written image.
        // SAFETY: 8-aligned metadata word.
        unsafe { heap.inner.pool.atomic_u64(DIRTY_OFF) }.store(1, Ordering::Release);
        heap.inner.persist(DIRTY_OFF, 8);
        // A clean image skips recovery, so heads parked beyond this run's
        // live shard count must be folded in here. A dirty image gets its
        // lists rebuilt from scratch by `recover` — and must NOT be
        // folded: its heads and link words are an inconsistent
        // incidentally-persisted mixture that a pop loop could cycle on.
        if !dirty {
            heap.inner.fold_stale_shards();
        }
        heap.inner.flight_record(EventKind::Open, dirty as u64, 0);
        (heap, dirty)
    }

    fn build(
        pool: PmemPool,
        geo: Geometry,
        cfg: &RallocConfig,
        file: Option<PathBuf>,
        preopen_flight: FlightScan,
    ) -> Ralloc {
        // Both frontier words are already in the header (fresh writes
        // them before building; adoption validated and healed them), and
        // they are durable: fresh persists the header before first use,
        // an adopted image is backed by its file. So each frontier is
        // published at its word, and the pool learns the three-region
        // tiling here so every later commit and decommit is region-scoped.
        let telemetry = Registry::new();
        let slow = SlowStats::registered(&telemetry);
        let sb = Frontier::new(&pool, &geo, Region::Sb, slow.heap_grows.clone());
        let desc = Frontier::new(&pool, &geo, Region::Desc, slow.desc_grows.clone());
        pool.define_regions(&[
            RegionSpec { start: 0, end: META_SIZE, committed: META_SIZE },
            desc.region_spec(),
            sb.region_spec(),
        ]);
        let journal_cap = shard::env_size("RALLOC_JOURNAL_CAP").unwrap_or(DEFAULT_JOURNAL_CAP);
        // Flight recorder: transient heaps persist nothing, so theirs is
        // forced off; otherwise env overrides config (shrink-policy
        // pattern). The torn count from the adoption scan becomes a
        // counter so harnesses can assert on dropped records.
        let flight_level = if cfg.transient {
            FlightLevel::Off
        } else {
            std::env::var("RALLOC_FLIGHT")
                .ok()
                .and_then(|v| FlightLevel::parse(&v))
                .unwrap_or(cfg.flight_level)
        };
        let flight = FlightRecorder::new(flight_level, preopen_flight.resume_ticket());
        telemetry.describe(
            "flight_torn_records",
            "flight-ring records dropped at adoption because their checksum failed",
        );
        telemetry.counter("flight_torn_records").add(preopen_flight.torn);
        let shards = shard::effective_shards(cfg.partial_shards);
        // Remote-free rings (transient, like the caches they feed).
        // A single-shard heap owns every superblock from every thread's
        // perspective, so rings would never see a push — skip them.
        let remote_ring = shard::env_flag("RALLOC_REMOTE_RING").unwrap_or(cfg.remote_ring);
        let ring_cap =
            shard::env_size("RALLOC_REMOTE_RING_CAP").unwrap_or(cfg.remote_ring_cap).clamp(2, 4096);
        let rings = (remote_ring && shards > 1).then(|| {
            (0..NUM_CLASSES * shards as usize).map(|_| RemoteRing::new(ring_cap)).collect()
        });
        let heap = Ralloc {
            inner: Arc::new(HeapInner {
                pool,
                geo,
                id: NEXT_HEAP_ID.fetch_add(1, Ordering::Relaxed),
                transient: cfg.transient,
                shards,
                flush_half: shard::env_flag("RALLOC_FLUSH_HALF").unwrap_or(cfg.flush_half),
                shrink_policy: std::env::var("RALLOC_SHRINK")
                    .ok()
                    .and_then(|v| ShrinkPolicy::parse(&v))
                    .unwrap_or(cfg.shrink_policy),
                parked: std::array::from_fn(|_| Mutex::new(Vec::new())),
                rings,
                ring_cursor: AtomicU64::new(0),
                ring_gauges: Mutex::new(HashMap::new()),
                sb,
                desc,
                generation: AtomicU64::new(0),
                exit_drains: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                file,
                root_fns: Mutex::new(HashMap::new()),
                slow,
                telemetry,
                journal: Journal::with_capacity(journal_cap),
                flight,
                preopen_flight,
                sampler: Mutex::new(None),
            }),
        };
        // RALLOC_TELEMETRY=<path> starts the background JSONL sampler on
        // every heap this process opens (interval RALLOC_TELEMETRY_MS,
        // default 200). Heap ids keep concurrent heaps' files distinct.
        if let Ok(base) = std::env::var("RALLOC_TELEMETRY") {
            if !base.is_empty() {
                let interval = shard::env_size("RALLOC_TELEMETRY_MS").unwrap_or(200).max(1);
                let path = if heap.inner.id > 1 { format!("{base}.{}", heap.inner.id) } else { base };
                let _ = heap.start_sampler(path, Duration::from_millis(interval as u64));
            }
        }
        heap
    }

    // ------------------------------------------------------- allocation

    /// Allocate `size` bytes; null on exhaustion (the paper's `malloc`).
    /// Lock-free; the fast path is a fast-slot read and a bin pop.
    pub fn malloc(&self, size: usize) -> *mut u8 {
        let inner = &*self.inner;
        debug_assert!(!inner.is_closed(), "malloc on closed heap");
        match size_class_of(size) {
            Some(class) => tcache::with_heap_tls(inner, || Arc::downgrade(&self.inner), |tls| {
                let bin = &mut tls.bins[class as usize];
                if let Some(addr) = bin.pop() {
                    return addr as *mut u8;
                }
                if inner.fill_bin(class, bin) {
                    bin.pop().expect("fill_bin returned empty") as *mut u8
                } else {
                    std::ptr::null_mut()
                }
            }),
            None => inner.malloc_large(size),
        }
    }

    /// Deallocate a block previously returned by [`Ralloc::malloc`]
    /// (the paper's `free`). Lock-free; fast path is a cache push.
    pub fn free(&self, ptr: *mut u8) {
        assert!(!ptr.is_null(), "free(null)");
        let inner = &*self.inner;
        let off = (ptr as usize)
            .checked_sub(inner.pool.base() as usize)
            .expect("free: pointer below heap");
        let sb = inner.geo.sb_index_of(off).expect("free: pointer outside superblock region");
        let d = Desc::new(&inner.pool, &inner.geo, sb as u32);
        let class = d.size_class();
        if class == 0 {
            inner.free_large(off, sb);
            return;
        }
        assert!(
            is_small_class(class),
            "free: address inside a large allocation or corrupt descriptor"
        );
        debug_assert_eq!(
            (off - inner.geo.sb(sb)) % class_block_size(class) as usize,
            0,
            "free: misaligned block pointer"
        );
        tcache::with_heap_tls(inner, || Arc::downgrade(&self.inner), |tls| {
            let bin = &mut tls.bins[class as usize];
            // Flush *before* pushing when the bin is at capacity, so the
            // just-freed block stays cached. A freshly refilled bin holds
            // max_count blocks and a malloc leaves it one short, so a
            // tight malloc/free pair oscillates inside the bin instead of
            // alternating a full flush with a full refill.
            if bin.is_full() {
                inner.free_overflow(class, bin);
            }
            bin.push(ptr as usize);
        })
    }

    /// The usable size of an allocated block (its class block size, or
    /// the recorded size for large blocks).
    pub fn usable_size(&self, ptr: *const u8) -> usize {
        let inner = &*self.inner;
        let off = (ptr as usize) - inner.pool.base() as usize;
        let sb = inner.geo.sb_index_of(off).expect("usable_size: foreign pointer");
        let d = Desc::new(&inner.pool, &inner.geo, sb as u32);
        d.block_size() as usize
    }

    // ------------------------------------------------------------ roots

    /// Store `ptr` as persistent root `i` (flushed and fenced). The
    /// stored representation is a superblock-region offset, so it
    /// survives remapping.
    pub fn set_root<T: Trace>(&self, i: usize, ptr: *const T) {
        self.register_root_fn(i, trace_thunk::<T>);
        self.set_root_raw(i, ptr as *const u8);
    }

    /// Retrieve root `i` and (re-)register `T`'s filter function for it —
    /// the paper's `getRoot<T>()`, which must be called before
    /// [`Ralloc::recover`] for precise tracing.
    pub fn get_root<T: Trace>(&self, i: usize) -> *mut T {
        self.register_root_fn(i, trace_thunk::<T>);
        self.get_root_raw(i) as *mut T
    }

    /// Untyped root store; recovery will trace it conservatively.
    pub fn set_root_raw(&self, i: usize, ptr: *const u8) {
        assert!(i < NUM_ROOTS, "root index out of range");
        let inner = &*self.inner;
        let slot = inner.geo.root(i);
        let val = if ptr.is_null() {
            0
        } else {
            let off = (ptr as usize)
                .checked_sub(inner.addr_of(inner.geo.sb(0)))
                .expect("set_root: pointer below superblock region");
            assert!(
                inner.geo.sb_index_of(inner.geo.sb(0) + off).is_some(),
                "set_root: pointer outside superblock region"
            );
            off as u64 + 1
        };
        // SAFETY: root slot is in the metadata region, 8-aligned.
        unsafe { inner.pool.atomic_u64(slot) }.store(val, Ordering::Release);
        inner.persist(slot, 8);
        inner.flight_record(EventKind::RootPublish, i as u64, val);
    }

    /// Untyped root load (traced conservatively unless a typed
    /// `get_root`/`set_root` registered a filter).
    pub fn get_root_raw(&self, i: usize) -> *mut u8 {
        assert!(i < NUM_ROOTS, "root index out of range");
        let inner = &*self.inner;
        // SAFETY: root slot in bounds, 8-aligned.
        let raw = unsafe { inner.pool.atomic_u64(inner.geo.root(i)) }.load(Ordering::Acquire);
        match raw.checked_sub(1) {
            None => std::ptr::null_mut(),
            Some(off) => (inner.addr_of(inner.geo.sb(0)) + off as usize) as *mut u8,
        }
    }

    /// Drop any registered filter function for root `i`, forcing
    /// conservative tracing of it (used by tests and ablations).
    pub fn clear_root_filter(&self, i: usize) {
        self.inner.root_fns.lock().remove(&i);
    }

    fn register_root_fn(&self, i: usize, f: TraceFn) {
        self.inner.root_fns.lock().insert(i, f);
    }

    // -------------------------------------------------------- lifecycle

    /// The paper's `close()`: drain this thread's caches, clear the dirty
    /// indicator, and write the whole heap back for a fast clean restart.
    /// Worker threads must have exited (their caches drain at thread
    /// exit).
    pub fn close(&self) -> io::Result<()> {
        let inner = &*self.inner;
        // A final sample then a joined stop: the time series ends with
        // the post-drain state instead of dangling mid-run.
        self.stop_sampler();
        tcache::drain_current_thread(inner);
        // Nothing cached survives a clean shutdown: bins parked by exited
        // threads flush back too (maximizing the shrink below). Exit
        // drains still in flight (TLS destructors outlive `scope` joins)
        // finish first, so their flushes land before the scan and
        // write-back rather than during.
        inner.await_exit_drains();
        inner.flush_parked();
        // Remote-free rings are DRAM too: every in-flight batch lands on
        // its superblock before the scan and write-back.
        inner.drain_rings_to_heap();
        // Quiescent point: release the trailing fully-free run while the
        // heap is still marked dirty, so a crash mid-shrink triggers a
        // full rebuild rather than trusting half-shrunk lists.
        if inner.shrink_policy == ShrinkPolicy::Both {
            inner.shrink_quiesced();
        }
        inner.closed.store(true, Ordering::Release);
        // The Close record lands before the dirty-clear so the final
        // full-pool flush below carries both.
        inner.flight_record(EventKind::Close, 0, 0);
        // SAFETY: metadata word.
        unsafe { inner.pool.atomic_u64(DIRTY_OFF) }.store(0, Ordering::Release);
        if !inner.transient {
            inner.pool.flush(0, inner.pool.committed_len());
            inner.pool.fence();
        }
        if let Some(path) = &inner.file {
            inner.pool.save(path)?;
        }
        Ok(())
    }

    /// Quiescent-point shrink: release the trailing run of fully-free
    /// superblocks back to the OS — descriptors unlinked, `used` and the
    /// persisted frontier word lowered (each flushed and fenced, in that
    /// order), the pool tail decommitted. Returns the number of
    /// superblocks released.
    ///
    /// The caller must guarantee quiescence (no concurrent heap
    /// operation), exactly as for [`Ralloc::recover`]. This runs
    /// regardless of [`RallocConfig::shrink_policy`], which only gates
    /// the automatic hooks at [`Ralloc::close`] and recovery.
    ///
    /// Blocks held in live threads' caches keep their superblocks
    /// non-free, so an explicit shrink releases the most after worker
    /// threads exit. Bins parked by those exits are flushed here first
    /// (as at [`Ralloc::close`]) so their blocks don't pin superblocks
    /// through the scan.
    pub fn shrink(&self) -> usize {
        self.inner.await_exit_drains();
        self.inner.flush_parked();
        // Ring-parked batches keep their superblocks non-EMPTY; return
        // them first so the trailing free run is as long as it can be.
        self.inner.drain_rings_to_heap();
        self.inner.shrink_quiesced()
    }

    /// Simulate a full-system crash (Tracked pools only): every line not
    /// flushed-and-fenced is lost, all thread caches are forgotten, and
    /// the heap is left dirty. Call [`Ralloc::recover`] before further
    /// use. Requires quiescence (no concurrent heap operations).
    pub fn crash_simulated(&self) {
        let inner = &*self.inner;
        inner.pool.crash();
        inner.generation.fetch_add(1, Ordering::AcqRel);
        inner.closed.store(false, Ordering::Release);
        tcache::discard_current_thread(inner);
        // Parked bins and remote-free rings are DRAM state, forgotten
        // like the TLS caches; the recovery sweep reclaims their blocks.
        inner.discard_parked();
        inner.discard_rings();
    }

    /// Was the heap dirty at open time / is recovery pending? (The dirty
    /// word itself, for inspection.)
    pub fn is_dirty(&self) -> bool {
        // SAFETY: metadata word.
        unsafe { self.inner.pool.atomic_u64(DIRTY_OFF) }.load(Ordering::Acquire) == 1
    }

    /// Offline recovery (paper §4.5): trace from the registered roots,
    /// then rebuild all transient metadata. Call `get_root<T>` for every
    /// live root first, as the paper requires; unregistered roots fall
    /// back to conservative tracing.
    ///
    /// Every thread cache is invalidated on entry: cached blocks are
    /// unreachable from the roots, so the rebuild reclaims them — the
    /// crash semantics recovery models even when called on a live heap.
    pub fn recover(&self) -> crate::recovery::RecoveryStats {
        crate::recovery::recover(&self.inner)
    }

    /// Parallel offline recovery (paper §6.4 future work): tracing is
    /// divided across persistent roots, sweeping across superblocks.
    /// Equivalent to [`Ralloc::recover`] with `threads == 1`.
    pub fn recover_parallel(&self, threads: usize) -> crate::recovery::RecoveryStats {
        crate::recovery::recover_with(&self.inner, threads)
    }

    // ------------------------------------------------------- inspection

    /// The underlying pool (benchmarks read its flush statistics).
    pub fn pool(&self) -> &PmemPool {
        &self.inner.pool
    }

    /// Whether the remote-free rings are active (config/env on **and**
    /// more than one shard; a single-shard heap owns everything, so
    /// every free is local and rings are skipped).
    pub fn remote_rings_enabled(&self) -> bool {
        self.inner.remote_rings_enabled()
    }

    /// The calling thread's home shard (tests and benches use it to
    /// construct guaranteed-remote frees).
    pub fn current_home_shard(&self) -> u32 {
        self.inner.home_shard()
    }

    /// The owning shard of the superblock containing `ptr` (`sb % S`) —
    /// the shard whose ring a remote free of `ptr` would ride.
    pub fn owner_shard_of(&self, ptr: *const u8) -> u32 {
        let inner = &*self.inner;
        let off = (ptr as usize)
            .checked_sub(inner.pool.base() as usize)
            .expect("owner_shard_of: pointer below heap");
        let sb = inner.geo.sb_index_of(off).expect("owner_shard_of: pointer outside superblocks");
        shard::place_superblock(sb, inner.shards)
    }

    /// Slow-path event counters.
    pub fn slow_stats(&self) -> &SlowStats {
        &self.inner.slow
    }

    // ------------------------------------------------------- telemetry

    /// The heap's metric registry: every [`SlowStats`] counter by name,
    /// plus recovery gauges and any metrics callers register themselves
    /// (e.g. a workload's latency [`telemetry::Histogram`]).
    pub fn telemetry(&self) -> &Registry {
        &self.inner.telemetry
    }

    /// The persistence-protocol event journal (grow/shrink phases,
    /// recovery phases, fill/flush/steal/carve; see
    /// [`telemetry::EventKind`]).
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// The level the persistent flight recorder is running at.
    pub fn flight_level(&self) -> FlightLevel {
        self.inner.flight.level()
    }

    /// The pool's flight timeline as it was at adoption, before this
    /// process recorded anything — after a crash, the victim's last
    /// protocol steps. Empty for freshly created heaps.
    pub fn preopen_flight(&self) -> &FlightScan {
        &self.inner.preopen_flight
    }

    /// Scan the pool's flight ring right now (this run's records plus
    /// whatever of the previous run's the ring still holds). Safe under
    /// concurrency: a racing writer costs at worst a torn slot.
    pub fn flight_timeline(&self) -> FlightScan {
        flight::scan_pool(&self.inner.pool)
    }

    /// One JSON object capturing the full telemetry state: the heap and
    /// pmem registries (scopes `heap` / `pmem`), frontier gauges, and
    /// the resident journal events.
    pub fn telemetry_snapshot(&self) -> String {
        let inner = &*self.inner;
        inner.refresh_ring_gauges();
        format!(
            "{{\"t_ms\": {}, \"heap_id\": {}, \"used_sb\": {}, \"committed_sb\": {}, \
             \"committed_len\": {}, \"registries\": {}, \"journal\": {}}}",
            telemetry::now_ms(),
            inner.id,
            inner.used_sb(),
            inner.sb.covered(),
            inner.sb.safe(),
            telemetry::export::to_json(&[
                ("heap", &inner.telemetry),
                ("pmem", inner.pool.stats().registry()),
            ]),
            inner.journal.to_json(),
        )
    }

    /// The same state in Prometheus text exposition format (scrape
    /// endpoint material; the journal has no Prometheus form).
    pub fn telemetry_prometheus(&self) -> String {
        self.inner.refresh_ring_gauges();
        telemetry::export::to_prometheus(&[
            ("heap", &self.inner.telemetry),
            ("pmem", self.inner.pool.stats().registry()),
        ])
    }

    /// Start a background sampler appending one time-series line to
    /// `path` every `interval` (JSONL; see [`HeapInner::sample_line`]'s
    /// schema in the README's Observability section). Also reachable via
    /// `RALLOC_TELEMETRY=<path>` / `RALLOC_TELEMETRY_MS=<ms>` at open.
    /// Replaces any sampler already running on this heap. The sampler
    /// holds only a weak reference: it retires when the heap drops, and
    /// [`Ralloc::close`] stops it.
    pub fn start_sampler(
        &self,
        path: impl AsRef<Path>,
        interval: Duration,
    ) -> io::Result<()> {
        let weak = Arc::downgrade(&self.inner);
        let handle = SamplerHandle::start(path, interval, move || {
            weak.upgrade().map(|inner| inner.sample_line())
        })?;
        *self.inner.sampler.lock() = Some(handle);
        Ok(())
    }

    /// Stop and join the background sampler, if one is running.
    pub fn stop_sampler(&self) {
        let handle = self.inner.sampler.lock().take();
        if let Some(mut handle) = handle {
            handle.stop();
        }
    }

    /// Heap geometry.
    pub fn geometry(&self) -> Geometry {
        self.inner.geo
    }

    /// Superblocks carved so far.
    pub fn used_superblocks(&self) -> usize {
        self.inner.used_sb()
    }

    /// Superblocks covered by the durable committed frontier — carving
    /// beyond this triggers a (cold-path) grow.
    pub fn committed_superblocks(&self) -> usize {
        self.inner.sb.covered()
    }

    /// The reserved ceiling in superblocks; the heap can never grow past
    /// this (malloc returns null once it is exhausted).
    pub fn max_superblocks(&self) -> usize {
        self.inner.geo.max_sb
    }

    /// Live partial-list shard count per size class (see [`crate::shard`]).
    pub fn partial_shards(&self) -> u32 {
        self.inner.shards()
    }

    /// True when the heap runs in LRMalloc (no flush/fence) mode.
    pub fn is_transient(&self) -> bool {
        self.inner.is_transient()
    }

    /// Register this heap's superblock region in the process-wide RIV
    /// region table under `id`, enabling cross-heap [`pptr::RivPtr`]
    /// references (the paper's §4.6 near-term plan). Re-register after
    /// every (re)open: ids are persistent, addresses are not.
    pub fn register_riv_region(&self, id: u8) {
        pptr::REGIONS.register(
            id,
            self.region_base(),
            self.inner.geo().max_sb * SB_SIZE,
        );
    }

    /// Absolute address of the superblock region's first byte; the base
    /// against which region-relative offsets (roots, packed counted
    /// pointers) are expressed.
    pub fn region_base(&self) -> usize {
        self.inner.addr_of(self.inner.geo.sb(0))
    }

    /// True if `ptr` lies inside this heap's superblock region.
    pub fn contains(&self, ptr: *const u8) -> bool {
        (ptr as usize)
            .checked_sub(self.inner.pool.base() as usize)
            .and_then(|off| self.inner.geo.sb_index_of(off))
            .is_some()
    }
}

impl std::fmt::Debug for Ralloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ralloc")
            .field("id", &self.inner.id)
            .field("used_sb", &self.inner.used_sb())
            .field("committed_sb", &self.inner.sb.covered())
            .field("max_sb", &self.inner.geo.max_sb)
            .field("transient", &self.inner.transient)
            .finish()
    }
}

#[cfg(test)]
mod batch_tests {
    //! The Fill/Flush amortization contract: a fill of N blocks costs at
    //! most one anchor CAS and one size-identity flush, and a flush of N
    //! same-superblock blocks costs exactly one anchor CAS and no
    //! flushes, regardless of N.

    use super::*;

    /// Ring-off config: these tests pin down the *direct* anchor-CAS
    /// protocol (now the ring-off/fallback path). With rings on, whether
    /// a flushed group takes a CAS or a ring push depends on the test
    /// thread's token hash vs. the superblock's owner — nondeterministic
    /// across runs. The ring path has its own tests below.
    fn direct() -> RallocConfig {
        RallocConfig { remote_ring: false, ..Default::default() }
    }

    fn stats_of(heap: &Ralloc) -> (u64, u64, u64, u64, u64, u64) {
        let s = heap.slow_stats();
        (
            s.cache_fills.load(Ordering::Relaxed),
            s.cache_fill_blocks.load(Ordering::Relaxed),
            s.cache_flushes.load(Ordering::Relaxed),
            s.cache_flushes_blocks.load(Ordering::Relaxed),
            s.fill_anchor_cas.load(Ordering::Relaxed),
            s.flush_anchor_cas.load(Ordering::Relaxed),
        )
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn fresh_fill_batches_whole_superblock_no_cas_one_flush() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as u64; // 64 B class: 1024 blocks
        let fences0 = heap.pool().stats().snapshot().fences;
        let p = heap.malloc(64); // one fill: a whole fresh superblock
        assert!(!p.is_null());
        let (fills, fill_blocks, _, _, fill_cas, _) = stats_of(&heap);
        assert_eq!(fills, 1, "one malloc, one fill");
        assert_eq!(fill_blocks, mc, "the fill moved the whole superblock");
        assert_eq!(fill_cas, 0, "a fresh superblock is owned outright: no anchor CAS");
        // Exactly two fences: the `used` expansion and the size identity,
        // amortized over all `mc` blocks of the batch.
        let fences = heap.pool().stats().snapshot().fences - fences0;
        assert_eq!(fences, 2, "fill of {mc} blocks must flush once (+ once for carve)");
        assert_eq!(heap.slow_stats().avg_fill_batch(), mc as f64);
        heap.free(p);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn partial_fill_batches_with_exactly_one_cas_zero_flushes() {
        let heap = Ralloc::create(8 << 20, direct());
        let mc = class_max_count(8) as usize;
        // Drain one whole superblock through the bin, keeping ownership.
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        // Hand 10 blocks back as one batch: the superblock turns PARTIAL.
        let mut batch: Vec<usize> = ptrs[..10].to_vec();
        heap.inner.flush_blocks(&mut batch);
        let (_, _, _, _, fill_cas0, flush_cas0) = stats_of(&heap);
        assert_eq!(flush_cas0, 1, "one batch, one superblock, one CAS");
        let fences0 = heap.pool().stats().snapshot().fences;
        // Bin is empty (we popped exactly mc), so this malloc refills from
        // the partial superblock: the 10-block chain, one CAS, no flush.
        let q = heap.malloc(64);
        assert!(!q.is_null());
        let (fills, fill_blocks, _, _, fill_cas, _) = stats_of(&heap);
        assert_eq!(fills, 2);
        assert_eq!(fill_blocks as usize, mc + 10, "second fill took the 10-block chain");
        assert_eq!(fill_cas - fill_cas0, 1, "a fill of N blocks performs exactly one anchor CAS");
        assert_eq!(
            heap.pool().stats().snapshot().fences,
            fences0,
            "a partial fill performs zero flushes"
        );
        heap.free(q);
        for &p in &ptrs[10..] {
            heap.free(p as *mut u8);
        }
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn bin_overflow_flushes_whole_bin_one_cas_per_superblock() {
        let heap = Ralloc::create(8 << 20, direct());
        let mc = class_max_count(8) as usize;
        let cap = cache_capacity(8) as usize;
        let ptrs: Vec<usize> = (0..2 * mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        // Free the first superblock's population plus one: the bin fills
        // to capacity and the overflowing free flushes it in one batch.
        for &p in &ptrs[..cap + 1] {
            heap.free(p as *mut u8);
        }
        let s = heap.slow_stats();
        assert_eq!(s.cache_flushes.load(Ordering::Relaxed), 1);
        assert_eq!(s.cache_flushes_blocks.load(Ordering::Relaxed), cap as u64);
        assert_eq!(
            s.flush_anchor_cas.load(Ordering::Relaxed),
            1,
            "flushing {cap} same-superblock blocks must cost exactly one anchor CAS"
        );
        assert_eq!(s.avg_flush_batch(), cap as f64);
        assert_eq!(
            s.flush_partition_probes.load(Ordering::Relaxed),
            0,
            "a whole-bin flush of one superblock must stay on the linear path"
        );
        for &p in &ptrs[cap + 1..] {
            heap.free(p as *mut u8);
        }
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn mixed_superblock_flush_one_cas_per_group() {
        let heap = Ralloc::create(8 << 20, direct());
        let mc = class_max_count(8) as usize;
        // Two superblocks' worth so the bin can hold a mixture.
        let ptrs: Vec<usize> = (0..mc + 4).map(|_| heap.malloc(64) as usize).collect();
        // Interleave blocks of superblock A (first mc) and B (last 4).
        let mut batch =
            vec![ptrs[0], ptrs[mc], ptrs[1], ptrs[mc + 1], ptrs[2], ptrs[mc + 2], ptrs[3]];
        heap.inner.flush_blocks(&mut batch);
        let s = heap.slow_stats();
        assert_eq!(
            s.flush_anchor_cas.load(Ordering::Relaxed),
            2,
            "two superblocks in the batch: exactly two anchor CASes"
        );
        for &p in &ptrs[4..mc] {
            heap.free(p as *mut u8);
        }
        heap.free(ptrs[mc + 3] as *mut u8);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn scavenge_reuses_empty_superblock_stranded_on_partial_list() {
        let heap = Ralloc::create(8 << 20, direct());
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        // Park the superblock EMPTY on the 64 B class's partial list:
        // first batch makes it FULL->PARTIAL (enlists), second makes it
        // PARTIAL->EMPTY (lazy retirement leaves it enlisted).
        let mut first: Vec<usize> = ptrs[..mc - 1].to_vec();
        heap.inner.flush_blocks(&mut first);
        let mut second = vec![ptrs[mc - 1]];
        heap.inner.flush_blocks(&mut second);
        assert_eq!(heap.used_superblocks(), 1);
        // A different class now needs a superblock: the free list is
        // empty, so without scavenging this would carve fresh space.
        let q = heap.malloc(128);
        assert!(!q.is_null());
        assert_eq!(
            heap.used_superblocks(),
            1,
            "empty superblock on a partial list must be reused, not bypassed"
        );
        assert_eq!(heap.slow_stats().sb_scavenged.load(Ordering::Relaxed), 1);
        heap.free(q);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn flush_half_policy_returns_older_half_and_keeps_the_rest() {
        let heap =
            Ralloc::create(8 << 20, RallocConfig { flush_half: true, ..Default::default() });
        let cap = cache_capacity(8) as usize;
        // cap+1 blocks: the last malloc triggers a second fill that
        // leaves the bin nearly full, so the free phase overflows twice.
        let ptrs: Vec<usize> = (0..cap + 1).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        for &p in &ptrs {
            heap.free(p as *mut u8);
        }
        let s = heap.slow_stats();
        let flushes = s.cache_flushes.load(Ordering::Relaxed);
        assert!(flushes > 0);
        assert_eq!(
            s.half_flushes.load(Ordering::Relaxed),
            flushes,
            "every overflow must use the half policy"
        );
        assert_eq!(
            s.avg_flush_batch(),
            (cap / 2) as f64,
            "each flush must return exactly half the bin, not all of it"
        );
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn sharded_fill_counters_account_home_and_steals() {
        // Single-threaded: every partial pop is a home hit, never a steal.
        let heap = Ralloc::create(8 << 20, direct());
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        let mut batch: Vec<usize> = ptrs[..10].to_vec();
        heap.inner.flush_blocks(&mut batch);
        let q = heap.malloc(64); // refills from the partial superblock
        assert!(!q.is_null());
        let s = heap.slow_stats();
        assert_eq!(s.partial_pops_home.load(Ordering::Relaxed), 1);
        assert_eq!(s.partial_steals.load(Ordering::Relaxed), 0);
        assert_eq!(s.partial_shard_pushes.load(Ordering::Relaxed), 1);
        assert_eq!(s.steal_rate(), 0.0);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn small_initial_commit_grows_on_demand_and_stops_at_reserve() {
        let heap = Ralloc::create(
            4 << 20,
            RallocConfig {
                initial_capacity: Some(4 << 20),
                max_capacity: Some(16 << 20),
                ..Default::default()
            },
        );
        let committed0 = heap.committed_superblocks();
        assert!(committed0 < heap.max_superblocks(), "heap must start partially committed");
        assert_eq!(heap.geometry().max_sb, heap.max_superblocks());
        // Exhaust the initial commitment with large allocations (one
        // superblock each, no cache retention) and keep going: the
        // frontier must grow, transparently, with no null returns.
        let mut held = Vec::new();
        for _ in 0..heap.max_superblocks() {
            let p = heap.malloc(SB_SIZE - 16);
            assert!(!p.is_null(), "malloc must grow, not fail, below the reserve ceiling");
            held.push(p);
        }
        let grows = heap.slow_stats().heap_grows.load(Ordering::Relaxed);
        assert!(grows >= 2, "doubling from {committed0} sbs must take several grows: {grows}");
        assert_eq!(heap.committed_superblocks(), heap.max_superblocks());
        // The reserve ceiling is a hard OOM…
        assert!(heap.malloc(SB_SIZE - 16).is_null());
        // …but frees keep the heap serviceable (no corruption).
        for p in held {
            heap.free(p);
        }
        assert!(!heap.malloc(SB_SIZE - 16).is_null());
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    fn default_config_commits_everything_upfront() {
        // The historical fixed-pool behavior: no growth machinery on the
        // hot path unless a config/env asks for a smaller initial commit.
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        assert_eq!(heap.committed_superblocks(), heap.max_superblocks());
        let p = heap.malloc(64);
        assert!(!p.is_null());
        assert_eq!(heap.slow_stats().heap_grows.load(Ordering::Relaxed), 0);
        heap.free(p);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn grow_persists_frontier_before_used() {
        // In Tracked mode, after any quiescent moment the persisted
        // frontier word must cover the persisted `used` — the ordering
        // the grow protocol guarantees.
        let heap = Ralloc::create(
            2 << 20,
            RallocConfig {
                initial_capacity: Some(2 << 20),
                max_capacity: Some(8 << 20),
                ..RallocConfig::tracked()
            },
        );
        let mut held = Vec::new();
        for _ in 0..heap.max_superblocks() {
            let p = heap.malloc(SB_SIZE / 2 + 1); // large path, 1 sb each
            assert!(!p.is_null());
            held.push(p);
        }
        assert!(heap.slow_stats().heap_grows.load(Ordering::Relaxed) >= 1);
        heap.crash_simulated();
        // Whatever survived: used within frontier, invariants hold.
        let geo = heap.geometry();
        // SAFETY: metadata words on a quiescent pool.
        let (frontier, used) = unsafe {
            (
                heap.pool().read_u64(crate::layout::COMMITTED_LEN_OFF) as usize,
                heap.pool().read_u64(USED_SB_OFF) as usize,
            )
        };
        assert!(
            used <= geo.span(Region::Sb).covered(frontier),
            "persisted used {used} outran persisted frontier {frontier}"
        );
        heap.recover();
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn grouped_flush_partition_is_linear_in_batch_size() {
        let heap = Ralloc::create(32 << 20, direct());
        let mc = class_max_count(8) as usize;
        // Blocks from many superblocks: allocate `sbs` whole superblocks
        // worth and take a couple of blocks from each, interleaved — the
        // adversarial shape for the old O(n·sb) linear partition.
        let sbs = 24usize;
        let ptrs: Vec<usize> = (0..sbs * mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        let mut batch: Vec<usize> = Vec::new();
        for blk in 0..2 {
            for sb in 0..sbs {
                batch.push(ptrs[sb * mc + blk]);
            }
        }
        let probes0 = heap.slow_stats().flush_partition_probes.load(Ordering::Relaxed);
        let cas0 = heap.slow_stats().flush_anchor_cas.load(Ordering::Relaxed);
        heap.inner.flush_blocks(&mut batch);
        let probes = heap.slow_stats().flush_partition_probes.load(Ordering::Relaxed) - probes0;
        let cas = heap.slow_stats().flush_anchor_cas.load(Ordering::Relaxed) - cas0;
        assert_eq!(cas, sbs as u64, "one anchor CAS per superblock group");
        assert!(
            probes > 0,
            "a {}-block batch over {sbs} superblocks must escalate to the table",
            batch.len()
        );
        assert!(
            probes <= 4 * batch.len() as u64,
            "partition must stay O(n): {probes} probes for {} blocks across {sbs} sbs",
            batch.len()
        );
        // Returned blocks are genuinely free again: drain them back out.
        for &p in &ptrs {
            if !batch.contains(&p) {
                heap.free(p as *mut u8);
            }
        }
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    fn shrink_policy_parses_and_gates() {
        for (raw, want) in [
            ("off", Some(ShrinkPolicy::Off)),
            ("  BOTH ", Some(ShrinkPolicy::Both)),
            ("1", Some(ShrinkPolicy::Both)),
            ("0", Some(ShrinkPolicy::Off)),
            // Only the two policies exist; one-hook spellings are rejected.
            ("close", None),
            ("recovery", None),
            ("garbage", None),
        ] {
            assert_eq!(ShrinkPolicy::parse(raw), want, "{raw:?}");
        }
        // Off gates both hooks: neither a clean close nor recovery shrinks.
        let cfg = RallocConfig {
            initial_capacity: Some(1 << 20),
            max_capacity: Some(8 << 20),
            shrink_policy: ShrinkPolicy::Off,
            ..RallocConfig::tracked()
        };
        let heap = Ralloc::create(1 << 20, cfg);
        let held: Vec<_> = (0..20).map(|_| heap.malloc(SB_SIZE / 2 + 1)).collect();
        for p in held {
            heap.free(p);
        }
        let committed = heap.committed_superblocks();
        heap.crash_simulated();
        assert_eq!(heap.recover().shrunk_superblocks, 0);
        heap.close().unwrap();
        assert_eq!(heap.committed_superblocks(), committed, "Off must keep the frontier");
    }

    #[test]
    fn explicit_shrink_releases_doubling_overshoot() {
        // Grow far enough that the doubling policy overshoots `used`,
        // free nothing: shrink must still pull the frontier back onto
        // the used prefix (releasing only never-carved space).
        let heap = Ralloc::create(
            1 << 20,
            RallocConfig {
                initial_capacity: Some(1 << 20),
                max_capacity: Some(32 << 20),
                ..Default::default()
            },
        );
        let mut held = Vec::new();
        for _ in 0..33 {
            held.push(heap.malloc(SB_SIZE / 2 + 1)); // 1 sb each, large path
        }
        assert!(held.iter().all(|p| !p.is_null()));
        let used = heap.used_superblocks();
        assert!(
            heap.committed_superblocks() > used,
            "doubling should overshoot at 33 sbs"
        );
        let released = heap.shrink();
        assert!(released > 0);
        assert_eq!(heap.used_superblocks(), used, "no live superblock may be released");
        assert_eq!(heap.committed_superblocks(), used, "frontier lands on used");
        // Everything still serviceable; the span regrows on demand.
        for p in held {
            heap.free(p);
        }
        assert!(!heap.malloc(64).is_null());
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn batched_return_transitions_full_to_empty_and_retires() {
        let heap = Ralloc::create(8 << 20, direct());
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        let off = ptrs[0] - heap.pool().base() as usize;
        let sb = heap.geometry().sb_index_of(off).unwrap();
        // Return the whole population as one batch: FULL -> EMPTY with a
        // single CAS, and the superblock lands on the free list.
        let mut batch = ptrs.clone();
        heap.inner.flush_blocks(&mut batch);
        let d = Desc::new(heap.pool(), &heap.geometry(), sb as u32);
        let a = d.anchor(Ordering::Acquire);
        assert_eq!(a.state, SbState::Empty);
        assert_eq!(a.count as usize, mc);
        assert_eq!(heap.slow_stats().flush_anchor_cas.load(Ordering::Relaxed), 1);
        assert_eq!(
            DescList::free_list(&heap.geometry()).collect(heap.pool(), &heap.geometry()),
            vec![sb as u32],
            "fully-freed FULL superblock must retire to the free list"
        );
    }
}

#[cfg(test)]
mod remote_ring_tests {
    //! The remote-free ring contract: a flushed group whose superblock
    //! belongs to another shard rides that shard's MPSC ring for zero
    //! producer-side anchor CASes, the owner reclaims it in bulk during
    //! fill, overflow degrades to the direct grouped-CAS protocol, and
    //! teardown paths drain the rings so nothing is stranded.

    use super::*;

    /// Pop `n` whole superblock populations of the 64 B class (class 8)
    /// through the thread cache. Fills move whole fresh superblocks into
    /// the bin in carve order, so chunk `i` is exactly the population of
    /// the `i`-th carved superblock and the bin ends empty.
    fn alloc_superblocks(heap: &Ralloc, n: usize) -> Vec<Vec<usize>> {
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..n * mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0), "allocation failed mid-setup");
        ptrs.chunks(mc).map(|c| c.to_vec()).collect()
    }

    fn owner_of(heap: &Ralloc, chunk: &[usize]) -> u32 {
        heap.owner_shard_of(chunk[0] as *const u8)
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn remote_group_flush_takes_zero_anchor_cas() {
        let heap = Ralloc::create(16 << 20, RallocConfig::default());
        if !heap.remote_rings_enabled() {
            eprintln!("skipping: remote rings disabled (RALLOC_REMOTE_RING/RALLOC_SHARDS?)");
            return;
        }
        let home = heap.current_home_shard();
        let sbs = alloc_superblocks(&heap, heap.partial_shards() as usize + 1);
        let remote = sbs
            .iter()
            .find(|c| owner_of(&heap, c) != home)
            .expect("S > 1 guarantees a foreign-owned superblock");
        let s = heap.slow_stats();
        let flush_cas0 = s.flush_anchor_cas.load(Ordering::Relaxed);
        let mut batch: Vec<usize> = remote[..10].to_vec();
        heap.inner.flush_blocks(&mut batch);
        assert_eq!(
            s.flush_anchor_cas.load(Ordering::Relaxed),
            flush_cas0,
            "a remote group must not touch its anchor on the producer side"
        );
        assert_eq!(s.remote_anchor_cas.load(Ordering::Relaxed), 0);
        assert_eq!(s.remote_ring_pushes.load(Ordering::Relaxed), 1, "one group, one ring push");
        assert_eq!(s.remote_ring_push_blocks.load(Ordering::Relaxed), 10);
        assert_eq!(s.remote_free_blocks.load(Ordering::Relaxed), 10);
        assert_eq!(s.remote_ring_overflows.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn owner_drain_reclaims_ring_batches_without_cas() {
        let heap = Ralloc::create(16 << 20, RallocConfig::default());
        if !heap.remote_rings_enabled() {
            eprintln!("skipping: remote rings disabled (RALLOC_REMOTE_RING/RALLOC_SHARDS?)");
            return;
        }
        let home = heap.current_home_shard();
        let sbs = alloc_superblocks(&heap, heap.partial_shards() as usize + 1);
        let remote = sbs
            .iter()
            .find(|c| owner_of(&heap, c) != home)
            .expect("S > 1 guarantees a foreign-owned superblock");
        let owner = owner_of(&heap, remote);
        // Three disjoint groups onto the owner's ring, 16 blocks each.
        for g in 0..3 {
            let mut batch: Vec<usize> = remote[16 * g..16 * (g + 1)].to_vec();
            heap.inner.flush_blocks(&mut batch);
        }
        let s = heap.slow_stats();
        let fill_cas0 = s.fill_anchor_cas.load(Ordering::Relaxed);
        let flush_cas0 = s.flush_anchor_cas.load(Ordering::Relaxed);
        let mut bin = CacheBin::new();
        bin.ensure_capacity(cache_capacity(8) as usize);
        assert!(heap.inner.drain_remote(8, owner, &mut bin, home));
        assert_eq!(bin.len(), 48, "the drain must take every ring-parked block");
        assert_eq!(
            s.fill_anchor_cas.load(Ordering::Relaxed),
            fill_cas0,
            "a ring drain refills the bin with zero anchor CASes"
        );
        assert_eq!(s.flush_anchor_cas.load(Ordering::Relaxed), flush_cas0);
        assert_eq!(s.remote_ring_drain_batches.load(Ordering::Relaxed), 3);
        assert_eq!(s.remote_ring_drain_blocks.load(Ordering::Relaxed), 48);
        let h = s.remote_drain_batch.snapshot();
        assert_eq!(h.count, 1, "one drain call, one batch-size sample");
        assert_eq!(h.sum, 48);
        // Hand the blocks back so the heap stays consistent.
        heap.inner.flush_blocks(bin.blocks_mut());
        bin.clear();
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn ring_overflow_degrades_to_direct_cas_and_loses_nothing() {
        let heap = Ralloc::create(
            64 << 20,
            RallocConfig { remote_ring_cap: 2, ..Default::default() },
        );
        if !heap.remote_rings_enabled() {
            eprintln!("skipping: remote rings disabled (RALLOC_REMOTE_RING/RALLOC_SHARDS?)");
            return;
        }
        let mc = class_max_count(8) as usize;
        let home = heap.current_home_shard();
        let shards = heap.partial_shards() as usize;
        // Owners repeat every S superblocks, so 3S chunks give at least
        // three populations per foreign owner.
        let sbs = alloc_superblocks(&heap, 3 * shards);
        let target = owner_of(&heap, &sbs[0]).wrapping_add(1) % heap.partial_shards();
        let target = if target == home { (target + 1) % heap.partial_shards() } else { target };
        let victims: Vec<&Vec<usize>> =
            sbs.iter().filter(|c| owner_of(&heap, c) == target).collect();
        assert!(victims.len() >= 3, "expected ≥3 chunks for shard {target}");
        let s = heap.slow_stats();
        // Three whole-population pushes onto a capacity-2 ring: the third
        // laps the first, which must fall back to the direct CAS path.
        for chunk in &victims[..3] {
            let mut batch: Vec<usize> = (*chunk).clone();
            heap.inner.flush_blocks(&mut batch);
        }
        assert_eq!(s.remote_ring_overflows.load(Ordering::Relaxed), 1);
        assert!(s.remote_anchor_cas.load(Ordering::Relaxed) >= 1);
        assert!(
            heap.journal()
                .snapshot()
                .iter()
                .any(|e| e.kind == EventKind::RemoteRingOverflow && e.b == mc as u64),
            "the displacement must be journaled with its block count"
        );
        // The overflow victim went straight to EMPTY; the two still-parked
        // batches land when teardown drains the rings. Either way every
        // block must be accounted for.
        heap.inner.drain_rings_to_heap();
        for chunk in &victims[..3] {
            let off = chunk[0] - heap.pool().base() as usize;
            let sb = heap.geometry().sb_index_of(off).unwrap();
            let a = Desc::new(heap.pool(), &heap.geometry(), sb as u32).anchor(Ordering::Acquire);
            assert_eq!(a.state, SbState::Empty, "superblock {sb} lost blocks");
            assert_eq!(a.count as usize, mc);
        }
        let report = crate::checker::check_heap(&heap);
        assert!(report.is_consistent(), "{:?}", report.violations);
    }

    #[test]
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
    fn remote_heavy_flush_never_enters_partition_table() {
        let heap = Ralloc::create(64 << 20, RallocConfig::default());
        if !heap.remote_rings_enabled() {
            eprintln!("skipping: remote rings disabled (RALLOC_REMOTE_RING/RALLOC_SHARDS?)");
            return;
        }
        if heap.partial_shards() < 4 {
            eprintln!("skipping: needs ≥4 shards so local groups stay under the escalation bound");
            return;
        }
        let home = heap.current_home_shard();
        let sbs = alloc_superblocks(&heap, 24);
        let locals = sbs.iter().filter(|c| owner_of(&heap, c) == home).count() as u64;
        // Two blocks from each of 24 superblocks, interleaved: 24 groups —
        // triple the pre-ring escalation bound — but only the handful of
        // local ones count toward it now.
        let mut batch = Vec::with_capacity(48);
        for i in 0..2 {
            for chunk in &sbs {
                batch.push(chunk[i]);
            }
        }
        let s = heap.slow_stats();
        let probes0 = s.flush_partition_probes.load(Ordering::Relaxed);
        let pushes0 = s.remote_ring_pushes.load(Ordering::Relaxed);
        heap.inner.flush_blocks(&mut batch);
        assert_eq!(
            s.flush_partition_probes.load(Ordering::Relaxed),
            probes0,
            "remote groups must not count toward grouped-flush escalation"
        );
        assert_eq!(s.remote_ring_pushes.load(Ordering::Relaxed) - pushes0, 24 - locals);
    }

    #[test]
    fn shrink_drains_rings_before_releasing() {
        let heap = Ralloc::create(16 << 20, RallocConfig::default());
        if !heap.remote_rings_enabled() {
            eprintln!("skipping: remote rings disabled (RALLOC_REMOTE_RING/RALLOC_SHARDS?)");
            return;
        }
        let n = heap.partial_shards() as usize + 1;
        let sbs = alloc_superblocks(&heap, n);
        // Whole populations: local groups retire their superblock outright,
        // remote groups park on rings until shrink drains them.
        for chunk in &sbs {
            let mut batch = chunk.clone();
            heap.inner.flush_blocks(&mut batch);
        }
        #[cfg(not(feature = "telemetry-off"))]
        assert!(heap.slow_stats().remote_ring_pushes.load(Ordering::Relaxed) > 0);
        heap.shrink();
        assert_eq!(
            heap.used_superblocks(),
            0,
            "shrink must drain ring-parked blocks so every superblock empties"
        );
        let report = crate::checker::check_heap(&heap);
        assert!(report.is_consistent(), "{:?}", report.violations);
    }
}

//! Persistent heap geometry (paper §4.2, Figure 2).
//!
//! A Ralloc heap is one contiguous pool divided into three regions:
//!
//! ```text
//! +--------------------+---------------------+------------------------+
//! | metadata (16 KiB)  | descriptor region   | superblock region      |
//! | dirty flag, roots, | 64 B per superblock | size/used + superblock |
//! | size classes, free | (1:64Ki ratio)      | array, 64 KiB units    |
//! | list head          |                     |                        |
//! +--------------------+---------------------+------------------------+
//! ```
//!
//! The *i*-th descriptor corresponds to the *i*-th superblock, so either
//! can be found from the other with shift/mask arithmetic. All layout is
//! a pure function of the pool length, so nothing about it needs to be
//! persisted beyond the pool length itself (stored in the header for
//! validation). **Bold** fields from the paper's Figure 2 — the only ones
//! flushed during normal operation — are: the dirty indicator, `used`,
//! the persistent roots, and each descriptor's size-class/block-size.
//!
//! Since v5 the three regions are *independently committed*: the
//! metadata region is always fully backed, while the descriptor and
//! superblock regions ([`Region`]) each carry their own persisted
//! committed frontier word ([`Region::word_off`]). [`Geometry::span`]
//! gives each one's frontier arithmetic (base, unit, capacity, end), and
//! one `Frontier` per region runs the same grow, shrink and validation
//! code over it (see `crate::frontier`).

use crate::size_class::SB_SIZE;

/// Magic number identifying a Ralloc heap image ("RALLOC\0" + format
/// version). The low byte is the metadata-layout version and must be
/// bumped whenever the metadata region's layout changes, so a clean
/// image from an older build is re-initialized instead of silently
/// misread. v1: single partial-list head per class. v2: `MAX_SHARDS`
/// head slots per class. v3: reserve/commit capacity model — the header
/// records the *reserved* span in `POOL_LEN_OFF` and the persisted
/// committed frontier in `COMMITTED_LEN_OFF`. v4: persistent flight
/// recorder carved from the metadata region's tail slack. v5:
/// multi-region frontiers — the descriptor region gains its own
/// persisted committed frontier (`DESC_COMMITTED_LEN_OFF`) so descriptor
/// and superblock space grow and shrink independently instead of the
/// descriptor region being implicitly committed wholesale (this build).
pub const MAGIC: u64 = 0x52_41_4C_4C_4F_43_00_05;

/// The immediately-prior layout version. v4 used the same metadata field
/// offsets but had no descriptor frontier: the whole descriptor region
/// was implicitly committed (frontier `sb_off`) and the word at
/// `DESC_COMMITTED_LEN_OFF` was zeroed slack. A *clean* v4 image
/// therefore migrates in place: write the descriptor frontier word with
/// the v4 semantics (`sb_off`, everything committed), persist it, then
/// rewrite the magic. Dirty v4 images refuse — their recovery invariants
/// were established by a v4 build and must be replayed by one.
pub const MAGIC_V4: u64 = 0x52_41_4C_4C_4F_43_00_04;

/// Two versions back. v3's metadata fields are all at the same offsets
/// and the flight-ring slack was unused (and zeroed at init), so a
/// *clean* v3 image chain-migrates in place: initialize the ring header
/// (v3→v4), then the descriptor frontier word (v4→v5), then rewrite the
/// magic. Dirty v3 images still refuse.
pub const MAGIC_V3: u64 = 0x52_41_4C_4C_4F_43_00_03;

/// Descriptor stride in bytes (one cache line, paper §4.2).
pub const DESC_SIZE: usize = 64;

/// Number of persistent root slots (paper §4.2: 1024).
pub const NUM_ROOTS: usize = 1024;

// ---- metadata-region field offsets ----

/// Heap magic (u64).
pub const MAGIC_OFF: usize = 0;
/// *Reserved* pool length in bytes (u64) — the fixed virtual span the
/// geometry is computed from. An image's file may be shorter (only the
/// committed prefix is saved); reopening re-reserves this much.
pub const POOL_LEN_OFF: usize = 8;
/// Dirty indicator (u64: 1 = dirty). Persisted. Stands in for the paper's
/// robust `pthread_mutex_t`.
pub const DIRTY_OFF: usize = 16;
/// Superblock capacity (u64), for validation on reopen.
pub const MAX_SB_OFF: usize = 24;
/// Number of superblocks carved so far — the paper's `used` word.
/// Persisted (CAS + flush + fence on every expansion).
pub const USED_SB_OFF: usize = 32;
/// Superblock free-list head (`Counted`). Transient: reconstructed by
/// recovery, written back only by a clean shutdown.
pub const FREE_LIST_OFF: usize = 40;
/// Persisted committed frontier in bytes (u64): the pool prefix that is
/// backed and valid. Grows monotonically online (CAS-max + flush + fence)
/// *before* any `used` expansion into the newly committed space is
/// persisted, and shrinks only at quiescent points (close / end of
/// recovery: CAS-min + flush + fence, *after* the lowered `used` is
/// durable, then decommit) — so at every crash point a recovered `used`
/// lies within a recovered frontier. **Bold** (persisted online), once
/// per heap growth — growth is cold-path only; shrink is offline.
pub const COMMITTED_LEN_OFF: usize = 48;
/// Persisted *descriptor-region* committed frontier in bytes (u64, v5).
/// Bounds which descriptors are backed and usable, exactly as
/// `COMMITTED_LEN_OFF` bounds superblocks: grows online (CAS-max +
/// flush + fence) *before* any `used` expansion that needs the new
/// descriptors is persisted, shrinks only at quiescent points *after*
/// the lowered `used` is durable. Always within
/// `[desc_off, sb_off]`. **Bold** (persisted online), once per
/// descriptor-region growth. v4 images have zeroed slack here; the
/// clean-reopen migration writes `sb_off` (the v4 implicit semantics).
pub const DESC_COMMITTED_LEN_OFF: usize = 56;
/// Persistent roots: `NUM_ROOTS` u64 slots, each an offset+1 into the
/// superblock region (0 = null). Persisted on `set_root`.
pub const ROOTS_OFF: usize = 64;
/// Hard ceiling on partial-list shards per size class. The metadata
/// region reserves head slots for this many; the *live* shard count is a
/// runtime config (`RallocConfig::partial_shards`) clamped to it.
pub const MAX_SHARDS: usize = 16;
/// Per-class, per-shard partial-list heads (`Counted`),
/// `40 * MAX_SHARDS` slots. Transient: reset and rebuilt by recovery, so
/// the live shard count may change between runs.
pub const PARTIAL_HEADS_OFF: usize = ROOTS_OFF + NUM_ROOTS * 8;

/// Total metadata-region size (fixed, independent of heap size).
pub const META_SIZE: usize = 16 * 1024;

const _: () = assert!(PARTIAL_HEADS_OFF + 40 * MAX_SHARDS * 8 <= META_SIZE);

// ---- persistent flight-recorder ring (v4) ----
//
// The partial-list heads end at byte 13376, leaving 3008 bytes of
// metadata-region tail slack that every prior version zeroed and never
// touched. v4 carves the flight ring out of that slack, so the region
// geometry (and therefore every descriptor/superblock offset) is
// *identical* to v3 — which is what makes the clean-image migration a
// two-word rewrite instead of a region relocation.

/// Byte offset of the flight-ring header (64-byte aligned).
pub const FLIGHT_OFF: usize = PARTIAL_HEADS_OFF + 40 * MAX_SHARDS * 8;
/// Ring header size: magic + capacity + reserved words, one cache line.
pub const FLIGHT_HDR_SIZE: usize = 64;
/// Byte offset of flight record slot 0.
pub const FLIGHT_RECORDS_OFF: usize = FLIGHT_OFF + FLIGHT_HDR_SIZE;
/// One flight record: seq + checksum framing and a (kind, tid, t_ms, a, b)
/// payload. Two records per cache line; a slot never straddles lines.
pub const FLIGHT_REC_SIZE: usize = 32;
/// Ring capacity in records — everything that fits in the slack.
pub const FLIGHT_CAP: usize = (META_SIZE - FLIGHT_RECORDS_OFF) / FLIGHT_REC_SIZE;
/// Ring-header magic ("FLTREC" + version), at `FLIGHT_OFF`.
pub const FLIGHT_MAGIC: u64 = 0x46_4C_54_52_45_43_00_01;

const _: () = assert!(FLIGHT_OFF.is_multiple_of(64));
const _: () = assert!(FLIGHT_RECORDS_OFF + FLIGHT_CAP * FLIGHT_REC_SIZE <= META_SIZE);
const _: () = assert!(FLIGHT_CAP >= 64, "flight ring uselessly small");

/// Derived region offsets for a pool of a given length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total pool bytes.
    pub pool_len: usize,
    /// Capacity in superblocks.
    pub max_sb: usize,
    /// Byte offset of descriptor 0.
    pub desc_off: usize,
    /// Byte offset of superblock 0 (64 KiB-aligned offset).
    pub sb_off: usize,
}

/// A pool region that commits and releases space at run time behind its
/// own persisted frontier word (v5). The discriminant is the region's
/// index in the pool partition; region 0, the metadata, is always fully
/// committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// One descriptor per superblock.
    Desc = 1,
    /// The superblock array; the last region, so its frontier is the
    /// pool's physical prefix.
    Sb = 2,
}

impl Region {
    /// Both growable regions, superblocks first: the order carve grows
    /// them in and shrink releases them in.
    pub const ALL: [Region; 2] = [Region::Sb, Region::Desc];

    /// Metadata offset of the region's persisted frontier word.
    #[inline]
    pub const fn word_off(self) -> usize {
        match self {
            Region::Desc => DESC_COMMITTED_LEN_OFF,
            Region::Sb => COMMITTED_LEN_OFF,
        }
    }
}

/// One region's frontier arithmetic: `units` slots of `unit` bytes from
/// `base`. A legal frontier lies in `base..=end`; `base` is the smallest
/// (nothing committed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of unit 0.
    pub base: usize,
    /// Bytes per unit.
    pub unit: usize,
    /// Capacity in units.
    pub units: usize,
    /// Largest legal frontier.
    pub end: usize,
}

impl Span {
    /// Units fully covered by a frontier of `frontier` bytes (clamped to
    /// capacity).
    #[inline]
    pub fn covered(&self, frontier: usize) -> usize {
        (frontier.saturating_sub(self.base) / self.unit).min(self.units)
    }

    /// The frontier (bytes) that backs the first `n` units.
    #[inline]
    pub fn len_for(&self, n: usize) -> usize {
        debug_assert!(n <= self.units);
        self.base + n * self.unit
    }
}

impl Geometry {
    /// Compute geometry from a pool length. The superblock array starts at
    /// the first 64 KiB-aligned offset past the descriptors; `max_sb` is
    /// the largest capacity that fits.
    pub fn from_pool_len(pool_len: usize) -> Geometry {
        assert!(
            pool_len >= META_SIZE + SB_SIZE * 2,
            "pool too small for a Ralloc heap: {pool_len}"
        );
        // Solve max_sb: META + 64*max_sb rounded up to 64K + 64K*max_sb <= len.
        let mut max_sb = (pool_len - META_SIZE) / (DESC_SIZE + SB_SIZE);
        loop {
            let sb_off = (META_SIZE + max_sb * DESC_SIZE).next_multiple_of(SB_SIZE);
            if sb_off + max_sb * SB_SIZE <= pool_len {
                return Geometry { pool_len, max_sb, desc_off: META_SIZE, sb_off };
            }
            max_sb -= 1;
        }
    }

    /// Pool length needed for a superblock-region capacity of at least
    /// `capacity` bytes.
    pub fn pool_len_for_capacity(capacity: usize) -> usize {
        let sbs = capacity.div_ceil(SB_SIZE).max(2);
        let sb_off = (META_SIZE + sbs * DESC_SIZE).next_multiple_of(SB_SIZE);
        sb_off + sbs * SB_SIZE
    }

    /// The frontier arithmetic of `region`. Geometry is a pure function
    /// of the *reserved* span, so these views never move as the heap
    /// grows; a committed frontier only bounds how much of the region is
    /// backed. Each region has its own persisted frontier word (v5), so
    /// neither frontier is derived from the other.
    #[inline]
    pub fn span(&self, region: Region) -> Span {
        match region {
            Region::Desc => {
                Span { base: self.desc_off, unit: DESC_SIZE, units: self.max_sb, end: self.sb_off }
            }
            Region::Sb => {
                Span { base: self.sb_off, unit: SB_SIZE, units: self.max_sb, end: self.pool_len }
            }
        }
    }

    /// Byte offset of descriptor `i`.
    #[inline]
    pub fn desc(&self, i: usize) -> usize {
        debug_assert!(i < self.max_sb);
        self.desc_off + i * DESC_SIZE
    }

    /// Byte offset of superblock `i`.
    #[inline]
    pub fn sb(&self, i: usize) -> usize {
        debug_assert!(i < self.max_sb);
        self.sb_off + i * SB_SIZE
    }

    /// Map a byte offset inside the superblock region to its superblock
    /// index ("simple bit manipulation", paper §4.2).
    #[inline]
    pub fn sb_index_of(&self, off: usize) -> Option<usize> {
        if off < self.sb_off || off >= self.sb_off + self.max_sb * SB_SIZE {
            return None;
        }
        Some((off - self.sb_off) / SB_SIZE)
    }

    /// Byte offset of root slot `i`.
    #[inline]
    pub fn root(&self, i: usize) -> usize {
        debug_assert!(i < NUM_ROOTS);
        ROOTS_OFF + i * 8
    }

    /// Byte offset of the partial-list head for shard `shard` of `class`.
    #[inline]
    pub fn partial_head(&self, class: u32, shard: u32) -> usize {
        debug_assert!(class < 40);
        debug_assert!((shard as usize) < MAX_SHARDS);
        PARTIAL_HEADS_OFF + (class as usize * MAX_SHARDS + shard as usize) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let g = Geometry::from_pool_len(8 << 20);
        assert!(g.desc_off >= META_SIZE);
        assert!(g.sb_off >= g.desc_off + g.max_sb * DESC_SIZE);
        assert_eq!(g.sb_off % SB_SIZE, 0);
        assert!(g.sb_off + g.max_sb * SB_SIZE <= g.pool_len);
        assert!(g.max_sb >= 100);
    }

    #[test]
    fn capacity_round_trip() {
        for cap in [128 * 1024, 1 << 20, 10 << 20, 1 << 30] {
            let len = Geometry::pool_len_for_capacity(cap);
            let g = Geometry::from_pool_len(len);
            assert!(
                g.max_sb * SB_SIZE >= cap,
                "cap {cap}: got {} sbs",
                g.max_sb
            );
        }
    }

    #[test]
    fn desc_and_sb_correspondence() {
        let g = Geometry::from_pool_len(4 << 20);
        for i in 0..g.max_sb {
            let off = g.sb(i);
            assert_eq!(g.sb_index_of(off), Some(i));
            assert_eq!(g.sb_index_of(off + SB_SIZE - 1), Some(i));
            assert_eq!(g.desc(i), g.desc_off + i * DESC_SIZE);
        }
        assert_eq!(g.sb_index_of(0), None);
        assert_eq!(g.sb_index_of(g.sb_off - 1), None);
        assert_eq!(g.sb_index_of(g.sb_off + g.max_sb * SB_SIZE), None);
    }

    #[test]
    fn descriptor_ratio_matches_paper() {
        // 64 B descriptor per 64 KiB superblock = size/1024 (paper §4.3).
        assert_eq!(SB_SIZE / DESC_SIZE, 1024);
    }

    #[test]
    #[should_panic]
    fn tiny_pool_rejected() {
        Geometry::from_pool_len(1024);
    }

    /// The parameterised view round-trips `len_for`/`covered`, never
    /// counts a partially covered unit, clamps to capacity, and keeps its
    /// full commit inside the region.
    fn span_round_trips_and_clamps(g: &Geometry, region: Region) -> Span {
        let s = g.span(region);
        assert_eq!(s.covered(s.base), 0);
        assert_eq!(s.covered(0), 0, "frontier below the base covers nothing");
        for n in [0usize, 1, 7, s.units] {
            let len = s.len_for(n);
            assert_eq!(s.covered(len), n);
            if n < s.units {
                assert_eq!(s.covered(len + s.unit - 1), n);
            }
        }
        assert_eq!(s.covered(usize::MAX), s.units, "clamped to capacity");
        assert!(s.len_for(s.units) <= s.end, "full commit fits the region");
        s
    }

    #[test]
    fn committed_views_round_trip_and_clamp() {
        let g = Geometry::from_pool_len(64 << 20);
        let s = span_round_trips_and_clamps(&g, Region::Sb);
        assert_eq!((s.base, s.unit, s.end), (g.sb_off, SB_SIZE, g.pool_len));
    }

    #[test]
    fn flight_ring_fits_the_metadata_slack() {
        // The ring must start exactly where the partial heads end, stay
        // inside the metadata region, and keep slots cache-line interior.
        assert_eq!(FLIGHT_OFF, PARTIAL_HEADS_OFF + 40 * MAX_SHARDS * 8);
        assert_eq!(FLIGHT_OFF % 64, 0);
        assert_eq!(64 % FLIGHT_REC_SIZE, 0, "slots must tile cache lines");
        // (Ring-fits-the-slack and v3-slack-unused are compile-time
        // `const _` asserts next to the constants themselves.)
        // Versions differ only in the low byte of the magic.
        assert_eq!(MAGIC & !0xFF, MAGIC_V4 & !0xFF);
        assert_eq!(MAGIC & !0xFF, MAGIC_V3 & !0xFF);
        assert_eq!(MAGIC & 0xFF, 5);
        assert_eq!(MAGIC_V4 & 0xFF, 4);
        assert_eq!(MAGIC_V3 & 0xFF, 3);
    }

    #[test]
    fn desc_frontier_word_sits_in_the_header_gap() {
        // The descriptor frontier claims the previously-zeroed slack word
        // between the superblock frontier and the roots — which is what
        // makes the v4→v5 migration a two-word rewrite.
        assert_eq!(DESC_COMMITTED_LEN_OFF, COMMITTED_LEN_OFF + 8);
        const { assert!(DESC_COMMITTED_LEN_OFF + 8 <= ROOTS_OFF) };
    }

    #[test]
    fn desc_committed_views_round_trip_and_clamp() {
        let g = Geometry::from_pool_len(64 << 20);
        let s = span_round_trips_and_clamps(&g, Region::Desc);
        assert_eq!((s.base, s.unit, s.end), (g.desc_off, DESC_SIZE, g.sb_off));
        // The two regions' frontier domains only meet at sb_off.
        assert_eq!(s.end, g.span(Region::Sb).base);
    }

    #[test]
    fn partial_shard_heads_are_disjoint_and_in_metadata() {
        let g = Geometry::from_pool_len(8 << 20);
        let mut seen = std::collections::HashSet::new();
        for class in 0..40u32 {
            for shard in 0..MAX_SHARDS as u32 {
                let off = g.partial_head(class, shard);
                assert!(off >= PARTIAL_HEADS_OFF && off + 8 <= META_SIZE);
                assert_eq!(off % 8, 0);
                assert!(seen.insert(off), "head slot reused: class {class} shard {shard}");
            }
        }
    }
}

//! One committed-frontier protocol for every growable pool region.
//!
//! The descriptor and superblock regions (§4.2–4.3, Fig. 2) each carry a
//! persisted frontier word bounding how much of the region is backed and
//! usable (v5). A [`Frontier`] is one region's instance of the protocol;
//! everything that differs between regions is data — pool region index,
//! word offset, [`Span`] geometry, grow counter and event kinds — and the
//! protocol itself exists once:
//!
//! * **grow** (online, cold path): commit → CAS-max word → flush+fence →
//!   publish. Carving reads only the published value, so a persisted
//!   `used` can never outrun a persisted frontier.
//! * **shrink** (quiescent points only, after the lowered `used` is
//!   durable): unpublish → CAS-min word → flush+fence → decommit. At
//!   every crash point the durable word still covers every durably-used
//!   unit.
//! * **validation** ([`validate`]): one rule, shared by adoption,
//!   recovery and the checker.
//!
//! Each region's word is flushed and fenced on its own: the two words
//! share a cache line, but are never persisted as one.

use std::sync::atomic::{AtomicU64, Ordering};

use nvm::{PmemPool, RegionSpec};
use telemetry::{Counter, EventKind};

use crate::heap::HeapInner;
use crate::layout::{Geometry, Region, Span};

/// One region's committed frontier. See the module docs for the protocol.
pub(crate) struct Frontier {
    region: Region,
    span: Span,
    /// The frontier (bytes) that is committed in the pool *and* whose
    /// word has been flushed and fenced. Carving reads this, never the
    /// raw word: a grow publishes here only after the word's fence.
    safe: AtomicU64,
    /// Grow steps taken (`heap_grows` / `desc_grows`).
    grows: Counter,
    /// Journal and flight-ring kinds of the grow-commit, grow-publish and
    /// shrink-decommit steps. They are persisted in the flight ring, so
    /// they are part of the on-disk format.
    events: [EventKind; 3],
}

/// The persisted frontier word of `region`.
fn word(pool: &PmemPool, region: Region) -> &AtomicU64 {
    // SAFETY: 8-aligned metadata-region word.
    unsafe { pool.atomic_u64(region.word_off()) }
}

/// The one validation rule for a persisted frontier word, whoever reads
/// it (adoption, recovery, the checker): the word is a legal frontier of
/// its region, lies inside the pool's backed prefix (a word past it
/// means a truncated image), and covers every used superblock — grow
/// fences the word before `used` may rise past it, and shrink lowers
/// `used` durably before the word. Returns the word.
pub(crate) fn validate(
    pool: &PmemPool,
    geo: &Geometry,
    region: Region,
    used: usize,
) -> Result<usize, String> {
    let span = geo.span(region);
    let w = word(pool, region).load(Ordering::Acquire) as usize;
    if w < span.base || w > span.end {
        return Err(format!(
            "{region:?} frontier {w} outside [{}, {}]",
            span.base, span.end
        ));
    }
    if w > pool.committed_len() {
        return Err(format!(
            "{region:?} frontier {w} exceeds the pool's committed prefix ({}): truncated image",
            pool.committed_len()
        ));
    }
    if used > span.covered(w) {
        return Err(format!(
            "used {used} superblocks but the {region:?} frontier covers only {}",
            span.covered(w)
        ));
    }
    Ok(w)
}

impl Frontier {
    /// The frontier of `region`, published at its current persisted word.
    pub(crate) fn new(pool: &PmemPool, geo: &Geometry, region: Region, grows: Counter) -> Frontier {
        let events = match region {
            Region::Sb => [
                EventKind::GrowCommit,
                EventKind::GrowPublish,
                EventKind::ShrinkDecommit,
            ],
            Region::Desc => [
                EventKind::GrowDescCommit,
                EventKind::GrowDescPublish,
                EventKind::ShrinkDescDecommit,
            ],
        };
        let safe = AtomicU64::new(word(pool, region).load(Ordering::Acquire));
        Frontier {
            region,
            span: geo.span(region),
            safe,
            grows,
            events,
        }
    }

    /// This region's entry in the pool partition.
    pub(crate) fn region_spec(&self) -> RegionSpec {
        RegionSpec {
            start: self.span.base,
            end: self.span.end,
            committed: self.safe(),
        }
    }

    /// The published frontier in bytes.
    #[inline]
    pub(crate) fn safe(&self) -> usize {
        self.safe.load(Ordering::Acquire) as usize
    }

    /// Units the heap may use without growing: the published frontier's
    /// coverage.
    #[inline]
    pub(crate) fn covered(&self) -> usize {
        self.span.covered(self.safe())
    }

    /// The frontier (bytes) that backs exactly the first `units` units.
    #[inline]
    pub(crate) fn len_for(&self, units: usize) -> usize {
        self.span.len_for(units)
    }

    /// Refresh the published frontier from the durable word (offline:
    /// recovery entry). After a crash the word holds the last fenced
    /// value, which is never below the published one, and an
    /// eviction-style crash may even have persisted a larger word than
    /// was ever published — both are valid committed space.
    pub(crate) fn reload(&self, pool: &PmemPool) {
        self.safe.fetch_max(
            word(pool, self.region).load(Ordering::Acquire),
            Ordering::AcqRel,
        );
    }

    /// Grow to cover at least `need` units, doubling the covered count per
    /// step (clamped to the request and the capacity). Returns false only
    /// when `need` exceeds the reserved capacity (the heap's hard OOM).
    ///
    /// A crash after the commit loses nothing; after the word's fence,
    /// recovery sees a larger frontier with `used` still behind it (extra
    /// committed space, never dangling state); only after the publish can
    /// a `used` bump into the new space be persisted.
    #[cold]
    pub(crate) fn grow(&self, heap: &HeapInner, need: usize) -> bool {
        if need > self.span.units {
            return false;
        }
        let [commit, publish, _] = self.events;
        loop {
            let cur = self.covered();
            if cur >= need {
                return true;
            }
            let target = self.span.len_for((cur * 2).max(need).min(self.span.units));
            heap.pool().commit_region_to(self.region as usize, target);
            word(heap.pool(), self.region).fetch_max(target as u64, Ordering::AcqRel);
            heap.persist(self.region.word_off(), 8);
            heap.record(commit, target as u64, 0);
            self.safe.fetch_max(target as u64, Ordering::AcqRel);
            heap.record(publish, target as u64, 0);
            self.grows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lower the frontier to cover exactly `keep` units and decommit the
    /// region's tail; a no-op when it is already at or below that. Returns
    /// the number of units released.
    ///
    /// **Quiescent-point only**, and only once a `used` of at most `keep`
    /// is durable: a crash before the word's fence leaves extra committed
    /// space; a crash between the fence and the decommit leaves the word
    /// below still-backed bytes, which adoption heals or ignores.
    pub(crate) fn shrink_to(&self, heap: &HeapInner, keep: usize) -> usize {
        let target = self.span.len_for(keep);
        let before = self.safe();
        if target >= before {
            return 0;
        }
        self.safe.store(target as u64, Ordering::Release);
        word(heap.pool(), self.region).fetch_min(target as u64, Ordering::AcqRel);
        heap.persist(self.region.word_off(), 8);
        heap.pool().decommit_region_to(self.region as usize, target);
        heap.record(self.events[2], (before - target) as u64, target as u64);
        self.span.covered(before).saturating_sub(keep)
    }
}

//! In-memory tracing for the traced run.
//!
//! A thread that runs traced installs a [`ThreadTrace`]; every call the
//! benchmark makes into a layer's public function then becomes a span
//! (kind, start, duration, parent request). Durations go into one
//! histogram per kind, so the aggregates cover every span; the span
//! records themselves are kept for the first [`SPAN_LOG_CAP`] spans of
//! each thread and written out when the run ends. A thread without a
//! trace installed pays one thread-local check per call.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ralloc::PersistentAllocator;

use crate::measure::Hist;

/// Span records kept per thread (the histograms keep counting past it).
const SPAN_LOG_CAP: usize = 1 << 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Malloc,
    Free,
    Persist,
    KvSet,
    KvGet,
    TreeOp,
}

const KINDS: usize = 6;
const NAMES: [&str; KINDS] = ["malloc", "free", "persist", "kv_set", "kv_get", "tree_op"];

struct Span {
    id: u64,
    parent: u64,
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
}

/// One thread's spans and per-kind aggregates.
pub struct ThreadTrace {
    thread: u64,
    epoch: Instant,
    next: u64,
    /// Span id of the request in progress (0 outside requests).
    request: u64,
    request_child_ns: u64,
    request_frees: u64,
    hists: Vec<Hist>,
    /// Summed `KvSet` durations and the part their children cover.
    pub set_ns: u128,
    pub set_child_ns: u128,
    /// `KvSet` requests that freed a block (the update reallocated).
    pub reallocs: u64,
    spans: Vec<Span>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

impl ThreadTrace {
    fn new(thread: u64, epoch: Instant) -> ThreadTrace {
        ThreadTrace {
            thread,
            epoch,
            next: 0,
            request: 0,
            request_child_ns: 0,
            request_frees: 0,
            hists: vec![Hist::default(); KINDS],
            set_ns: 0,
            set_child_ns: 0,
            reallocs: 0,
            spans: Vec::with_capacity(SPAN_LOG_CAP),
        }
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread + 1) << 48 | self.next
    }

    fn log(&mut self, id: u64, parent: u64, kind: Kind, t0: Instant, dur_ns: u64) {
        self.hists[kind as usize].record(dur_ns);
        if self.spans.len() < SPAN_LOG_CAP {
            let start_ns = t0.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { id, parent, kind, start_ns, dur_ns });
        }
    }

    pub fn hist(&self, kind: Kind) -> &Hist {
        &self.hists[kind as usize]
    }

    /// Fold another thread's aggregates and span log into this one.
    pub fn merge(&mut self, other: ThreadTrace) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.set_ns += other.set_ns;
        self.set_child_ns += other.set_child_ns;
        self.reallocs += other.reallocs;
        self.spans.extend(other.spans);
    }

    /// Write the span log as tab-separated rows, one span per row.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tkind\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let kind = NAMES[s.kind as usize];
            writeln!(out, "{}\t{}\t{kind}\t{}\t{}", s.id, s.parent, s.start_ns, s.dur_ns)?;
        }
        out.flush()
    }
}

/// Start tracing the calling thread.
pub fn install(thread: u64, epoch: Instant) {
    CTX.with(|c| *c.borrow_mut() = Some(ThreadTrace::new(thread, epoch)));
}

/// Stop tracing the calling thread and hand back what it recorded.
pub fn take() -> Option<ThreadTrace> {
    CTX.with(|c| c.borrow_mut().take())
}

fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Run `f` as one span of `kind`, a child of the request in progress.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let dur = t0.elapsed().as_nanos() as u64;
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let t = c.as_mut().expect("trace installed");
        let id = t.next_id();
        let parent = t.request;
        if parent != 0 {
            t.request_child_ns += dur;
            t.request_frees += (kind == Kind::Free) as u64;
        }
        t.log(id, parent, kind, t0, dur);
    });
    r
}

/// Run `f` as a request span of `kind`; the spans it causes share its id,
/// so the request's self time is its duration minus theirs.
#[inline]
pub fn request<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let id = CTX.with(|c| {
        let mut c = c.borrow_mut();
        let t = c.as_mut().expect("trace installed");
        let id = t.next_id();
        t.request = id;
        t.request_child_ns = 0;
        t.request_frees = 0;
        id
    });
    let t0 = Instant::now();
    let r = f();
    let dur = t0.elapsed().as_nanos() as u64;
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let t = c.as_mut().expect("trace installed");
        if kind == Kind::KvSet {
            t.set_ns += dur as u128;
            t.set_child_ns += t.request_child_ns as u128;
            t.reallocs += (t.request_frees > 0) as u64;
        }
        t.request = 0;
        t.log(id, 0, kind, t0, dur);
    });
    r
}

/// What a span reads around no work (two clock reads plus bookkeeping):
/// the floor under every span duration of the run.
pub fn span_floor_ns() -> f64 {
    let floor = std::thread::spawn(|| {
        install(0, Instant::now());
        for _ in 0..100_000 {
            span(Kind::Malloc, || std::hint::black_box(()));
        }
        take().expect("installed").hist(Kind::Malloc).percentile(0.5)
    });
    floor.join().expect("span floor thread panicked")
}

/// The benchmark's timing allocator: every `malloc`, `free` and
/// `persist` that goes through it is a span on a traced thread.
#[derive(Clone)]
pub struct Timed<A>(pub A);

impl<A: PersistentAllocator> PersistentAllocator for Timed<A> {
    fn malloc(&self, size: usize) -> *mut u8 {
        span(Kind::Malloc, || self.0.malloc(size))
    }

    fn free(&self, ptr: *mut u8) {
        span(Kind::Free, || self.0.free(ptr))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn persist(&self, ptr: *const u8, len: usize) {
        span(Kind::Persist, || self.0.persist(ptr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_request_id_and_self_time_excludes_them() {
        install(0, Instant::now());
        request(Kind::KvSet, || {
            span(Kind::Malloc, || std::thread::sleep(std::time::Duration::from_millis(2)));
            span(Kind::Free, || ());
        });
        span(Kind::Malloc, || ());
        let t = take().expect("installed");
        assert_eq!(t.spans.len(), 4);
        let req = t.spans.iter().find(|s| s.kind == Kind::KvSet).expect("request span");
        let children: Vec<_> = t.spans.iter().filter(|s| s.parent == req.id).collect();
        assert_eq!(children.len(), 2);
        assert_eq!(t.spans.iter().filter(|s| s.parent == 0).count(), 2);
        assert!(t.set_child_ns >= 2_000_000 && t.set_child_ns <= t.set_ns);
        assert_eq!(t.reallocs, 1);
        assert!(take().is_none());
    }
}

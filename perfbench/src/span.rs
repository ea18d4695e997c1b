//! In-memory spans recorded by the benchmark's decorators, and the
//! self-time arithmetic over them.
//!
//! A span is opened around a call into one layer. Spans opened while
//! another is open on the same thread get it as their parent. Spans that
//! run on another thread (a disk worker's store read, the front tier's
//! backend call seen from the client thread) have no parent when recorded;
//! [`link`] attaches each to the innermost span of an allowed parent kind
//! that reads the same file and whose interval contains it.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One HTTP request as the client saw it, from send to full response.
    Request,
    /// A read through the middleware (`FrontBackend` read or
    /// `NodeHandle::read_file`).
    Read,
    /// A `NodeHandle::write_block` call.
    Write,
    /// A peer block fetch through the transport.
    Fetch,
    /// A one-way peer message through the transport.
    Send,
    /// A block read from the backing store.
    StoreRead,
    /// A block write to the backing store.
    StoreWrite,
}

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Parent span id; 0 when none.
    pub parent: u32,
    /// What the span covers.
    pub kind: Kind,
    /// The file the work was for.
    pub file: u32,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// The innermost span open on this thread (0 when none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Collects spans while switched on; costs one atomic load per call
/// while off.
pub struct Recorder {
    on: AtomicBool,
    next: AtomicU32,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            on: AtomicBool::new(false),
            next: AtomicU32::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Start or stop recording.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// True while recording.
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the epoch for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on this thread; it is recorded when the guard drops.
    /// `None` (nothing recorded) while recording is off.
    pub fn open(&self, kind: Kind, file: u32) -> Option<Open<'_>> {
        if !self.on() {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Some(Open {
            rec: self,
            id,
            parent,
            kind,
            file,
            start: self.ns(Instant::now()),
        })
    }

    /// Record a span measured elsewhere, with no parent.
    pub fn record(&self, kind: Kind, file: u32, start: Instant, end: Instant) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent: 0,
            kind,
            file,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Take every span recorded so far, in id order.
    pub fn drain(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        v.sort_by_key(|s| s.id);
        v
    }
}

/// An open span; records itself on drop.
pub struct Open<'a> {
    rec: &'a Recorder,
    id: u32,
    parent: u32,
    kind: Kind,
    file: u32,
    start: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.parent));
        let span = Span {
            id: self.id,
            parent: self.parent,
            kind: self.kind,
            file: self.file,
            start: self.start,
            end: self.rec.ns(Instant::now()),
        };
        if let Ok(mut log) = self.rec.spans.lock() {
            log.push(span);
        }
    }
}

/// The kinds an unparented span of `kind` may be linked under.
pub fn parent_kinds(kind: Kind) -> &'static [Kind] {
    match kind {
        Kind::Read => &[Kind::Request],
        Kind::Fetch | Kind::Send | Kind::StoreRead | Kind::StoreWrite => &[Kind::Read, Kind::Write],
        Kind::Request | Kind::Write => &[],
    }
}

/// Give every unparented span the innermost containing span of an allowed
/// parent kind (per `parents`) for the same file, if there is one.
pub fn link(spans: &mut [Span], parents: impl Fn(Kind) -> &'static [Kind]) {
    // Candidate parents by (kind, file): (start, end, id), ascending.
    type Candidates = Vec<(u64, u64, u32)>;
    let mut by_key: HashMap<(Kind, u32), Candidates> = HashMap::new();
    for s in spans.iter() {
        by_key
            .entry((s.kind, s.file))
            .or_default()
            .push((s.start, s.end, s.id));
    }
    for v in by_key.values_mut() {
        v.sort_unstable();
    }
    for s in spans.iter_mut().filter(|s| s.parent == 0) {
        let mut best: Option<(u64, u32)> = None;
        for kind in parents(s.kind) {
            let Some(cands) = by_key.get(&(*kind, s.file)) else {
                continue;
            };
            // Latest-starting candidate that starts no later than `s` and
            // still covers its end.
            let upto = cands.partition_point(|c| c.0 <= s.start);
            if let Some(c) = cands[..upto]
                .iter()
                .rev()
                .find(|c| c.1 >= s.end && c.2 != s.id)
            {
                if best.is_none_or(|b| c.0 > b.0) {
                    best = Some((c.0, c.2));
                }
            }
        }
        if let Some((_, id)) = best {
            s.parent = id;
        }
    }
}

/// Self time (ns) of every span of `kind`: its duration minus the part of
/// its interval covered by its children of `child_kinds`.
pub fn self_times(spans: &[Span], kind: Kind, child_kinds: &[Kind]) -> Vec<f64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent != 0 && child_kinds.contains(&s.kind))
    {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.dur() - covered) as f64
        })
        .collect()
}

/// Durations (ns) of every span of `kind`.
pub fn durations(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur() as f64)
        .collect()
}

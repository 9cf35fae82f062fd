//! Per-worker event tracing for the parlo substrate.
//!
//! Every thread that emits an event owns one bounded, lock-free ring buffer (a
//! *track*): the writer is always the owning thread, so recording an event is a
//! handful of relaxed stores into a pre-allocated slot plus one `Release` bump
//! of a cache-line-padded cursor — no locks, no allocation, no cross-thread
//! traffic on the hot path.  When the ring is full the oldest events are
//! overwritten (the cursor keeps counting, so the number of dropped events is
//! always known).  Timestamps come from one process-wide monotonic epoch, so
//! they are comparable across tracks and monotonic within each track.  A track
//! exists only once its thread records an event: a thread that never records
//! while tracing is on owns no ring, even if it set a label
//! ([`set_thread_label`]).
//!
//! The layer is gated twice:
//!
//! * **Compile time** — the `enabled` cargo feature (forwarded as the `trace`
//!   feature by every instrumented parlo crate).  Without it the hook functions
//!   below are empty `#[inline(always)]` bodies: the instrumented hot paths
//!   contain no atomics, no branches, nothing.
//! * **Run time** — [`enable`]/[`disable`].  Instrumented code pays exactly one
//!   branch on one cached [`parlo_sync::AtomicBool`] while tracing is
//!   compiled in but off.
//!
//! Snapshots ([`snapshot`]) are meant to be taken at quiescence (between loops,
//! after a run): the reader does not synchronise with in-flight writers beyond
//! the cursor's `Release`/`Acquire` pair, so events recorded concurrently with
//! a snapshot may be missed or, if the ring wraps mid-snapshot, decoded from a
//! mix of old and new slots.  All slot words are atomics, so this is at worst
//! stale data — never undefined behaviour.
//!
//! Two exporters are provided: [`chrome_trace_string`]/[`write_chrome_trace`]
//! render a snapshot as a Chrome trace-event JSON file (loadable in Perfetto,
//! one track per worker thread), and [`TraceSnapshot::summary`] renders a small
//! text digest for terminals.

#![warn(missing_docs)]

// Re-exported so callers can name the exporter's value type and parse the JSON it
// produces without depending on the vendored crates directly.
pub use serde;
pub use serde_json;

pub mod ring;

pub use ring::EventRing;

use std::fmt;

/// `true` when the crate was built with the `enabled` feature, i.e. when the
/// recording machinery below is compiled in at all.
pub const COMPILED: bool = cfg!(feature = "enabled");

// ---------------------------------------------------------------------------
// Event model (always compiled)
// ---------------------------------------------------------------------------

/// What a recorded event marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opens a span; closed by the next matching [`EventKind::End`] on the
    /// same track.  Spans nest per track.
    Begin,
    /// Closes the innermost open span on the same track.
    End,
    /// A point event with no duration.
    Instant,
    /// A gauge sample; `a` carries the sampled value.
    Counter,
}

impl EventKind {
    fn to_u64(self) -> u64 {
        match self {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
            EventKind::Counter => 3,
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(EventKind::Begin),
            1 => Some(EventKind::End),
            2 => Some(EventKind::Instant),
            3 => Some(EventKind::Counter),
            _ => None,
        }
    }
}

/// The typed vocabulary of trace points across the substrate.  Each phase is a
/// stable name on the exported timeline; the crates emitting them are noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Phase {
    /// One full loop cycle on the master (`parlo-core`, `parlo-steal`):
    /// publish, fork, work, join.  Span; `a` = epoch, `b` = participants.
    Loop = 1,
    /// Worker-side wait for the master's fork signal (`parlo-barrier`).
    /// Span; `a` = epoch.
    Dispatch = 2,
    /// Worker-side arrival at the join side of the half barrier
    /// (`parlo-barrier`).  Span; `a` = epoch.
    Arrival = 3,
    /// Master-side join: waiting for all arrivals, combining on the way
    /// (`parlo-barrier`).  Span; `a` = epoch.
    Join = 4,
    /// One combining step applied to a child's contribution (`parlo-core`,
    /// `parlo-steal`).  Instant; `a` = child id.
    Combine = 5,
    /// Master released the workers into an epoch (`parlo-barrier`).
    /// Instant; `a` = epoch.
    Release = 6,
    /// A shutdown/handoff barrier cycle that is not a counted loop
    /// (`parlo-core`, `parlo-steal`).  Span.
    DetachCycle = 7,
    /// One steal sweep over victims after the local dispenser emptied
    /// (`parlo-steal`).  Instant; `a` = worker id, `b` = sweep number.
    StealSweep = 8,
    /// A successful steal of a chunk or of a split-off piece (`parlo-steal`).
    /// Instant; `a` = thief id, `b` = victim id.
    StealHit = 9,
    /// A lease activation: attach rendezvous of a client onto the substrate
    /// workers (`parlo-exec`).  Span; `a` = client id, `b` = worker count.
    LeaseAttach = 10,
    /// A client detaching from the substrate (`parlo-exec`).  Span;
    /// `a` = client id.
    LeaseDetach = 11,
    /// A partition (non-exclusive) lease becoming active on its worker slice
    /// (`parlo-exec`).  Instant; `a` = client id, `b` = worker count.
    PartitionActivate = 12,
    /// Adaptive router ran a calibration probe (`parlo-adaptive`).
    /// Instant; `a` = site id, `b` = backend code.
    Probe = 13,
    /// Adaptive router dispatched a loop to its chosen backend
    /// (`parlo-adaptive`).  Instant; `a` = site id, `b` = backend code.
    Route = 14,
    /// Adaptive router scheduled a re-calibration after drift
    /// (`parlo-adaptive`).  Instant; `a` = site id.
    Reprobe = 15,
    /// A loop request admitted to the serve queue (`parlo-serve`).
    /// Instant; `a` = queue depth after the push.
    Enqueue = 16,
    /// Two or more compatible requests fused into one batch (`parlo-serve`).
    /// Instant; `a` = batch size.
    Fuse = 17,
    /// One gang executing one batch (`parlo-serve`).  Span; `a` = batch
    /// size, `b` = gang id.
    Batch = 18,
    /// A batch's jobs completed and their handles were released
    /// (`parlo-serve`).  Instant; `a` = batch size.
    Complete = 19,
    /// Serve queue depth gauge (`parlo-serve`).  Counter; `a` = depth.
    QueueDepth = 20,
    /// NUMA tier of a successful chunk steal (`parlo-steal`).  Instant; `a` = thief
    /// id, `b` = tier distance to the victim (0 = same socket, 1 = cross
    /// socket), so a timeline shows local vs remote steal traffic directly.
    StealTier = 21,
}

impl Phase {
    /// Every phase, for iteration in tests and exporters.
    pub const ALL: [Phase; 21] = [
        Phase::Loop,
        Phase::Dispatch,
        Phase::Arrival,
        Phase::Join,
        Phase::Combine,
        Phase::Release,
        Phase::DetachCycle,
        Phase::StealSweep,
        Phase::StealHit,
        Phase::LeaseAttach,
        Phase::LeaseDetach,
        Phase::PartitionActivate,
        Phase::Probe,
        Phase::Route,
        Phase::Reprobe,
        Phase::Enqueue,
        Phase::Fuse,
        Phase::Batch,
        Phase::Complete,
        Phase::QueueDepth,
        Phase::StealTier,
    ];

    /// The stable timeline name of this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Loop => "loop",
            Phase::Dispatch => "dispatch",
            Phase::Arrival => "arrival",
            Phase::Join => "join",
            Phase::Combine => "combine",
            Phase::Release => "release",
            Phase::DetachCycle => "detach-cycle",
            Phase::StealSweep => "steal-sweep",
            Phase::StealHit => "steal-hit",
            Phase::LeaseAttach => "lease-attach",
            Phase::LeaseDetach => "lease-detach",
            Phase::PartitionActivate => "partition-activate",
            Phase::Probe => "probe",
            Phase::Route => "route",
            Phase::Reprobe => "reprobe",
            Phase::Enqueue => "enqueue",
            Phase::Fuse => "fuse",
            Phase::Batch => "batch",
            Phase::Complete => "complete",
            Phase::QueueDepth => "queue-depth",
            Phase::StealTier => "steal-tier",
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        Phase::ALL.iter().copied().find(|p| *p as u64 == v)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One decoded event read out of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Which trace point emitted the event.
    pub phase: Phase,
    /// Span begin/end, instant, or counter sample.
    pub kind: EventKind,
    /// First payload word (phase-specific, see [`Phase`] docs).
    pub a: u64,
    /// Second payload word (phase-specific).
    pub b: u64,
}

/// The decoded contents of one thread's ring buffer.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Human-readable track label (worker id + pinned core for substrate
    /// workers, thread name otherwise).
    pub label: String,
    /// Stable per-process track id (registration order).
    pub tid: u64,
    /// Events in recording order, oldest first.
    pub events: Vec<Event>,
    /// How many older events were overwritten before this snapshot.
    pub dropped: u64,
}

/// A point-in-time copy of every track's events.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// One entry per registered thread, in registration order.  Tracks that
    /// never recorded an event are included with an empty `events` vector.
    pub tracks: Vec<TrackSnapshot>,
}

impl TraceSnapshot {
    /// Total number of events across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total number of overwritten (lost) events across all tracks.
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Renders a small text digest: one line per non-empty track with its
    /// event count, drop count and per-phase breakdown.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} tracks, {} events, {} dropped",
            self.tracks.iter().filter(|t| !t.events.is_empty()).count(),
            self.total_events(),
            self.total_dropped()
        );
        for t in &self.tracks {
            if t.events.is_empty() {
                continue;
            }
            let _ = write!(out, "  [{}] {}: {} events", t.tid, t.label, t.events.len());
            if t.dropped > 0 {
                let _ = write!(out, " (+{} dropped)", t.dropped);
            }
            let mut counts: Vec<(Phase, usize)> = Vec::new();
            for e in &t.events {
                // Count spans once (on begin), instants/counters as they come.
                if e.kind == EventKind::End {
                    continue;
                }
                match counts.iter_mut().find(|(p, _)| *p == e.phase) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((e.phase, 1)),
                }
            }
            let mut first = true;
            for (p, n) in counts {
                let _ = write!(out, "{} {}:{}", if first { " —" } else { "," }, p, n);
                first = false;
            }
            let _ = writeln!(out);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Recording machinery — real when `enabled`, empty otherwise
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod rt {
    use super::ring::EventRing;
    use super::{EventKind, Phase, TraceSnapshot, TrackSnapshot};
    use parlo_sync::{AtomicBool, Ordering};
    use std::cell::{OnceCell, RefCell};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    pub(super) struct Track {
        label: Mutex<String>,
        tid: u64,
        ring: EventRing,
    }

    impl Track {
        fn new(label: String, tid: u64, capacity: usize) -> Self {
            Track {
                label: Mutex::new(label),
                tid,
                ring: EventRing::new(capacity),
            }
        }

        #[inline]
        fn record(&self, phase: Phase, kind: EventKind, a: u64, b: u64) {
            self.ring.record(now_ns(), phase, kind, a, b);
        }

        fn snapshot(&self) -> TrackSnapshot {
            let (events, dropped) = self.ring.snapshot_events();
            TrackSnapshot {
                label: self.label.lock().unwrap().clone(),
                tid: self.tid,
                events,
                dropped,
            }
        }
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Vec<Arc<Track>>> = Mutex::new(Vec::new());
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static CAPACITY: OnceLock<usize> = OnceLock::new();

    thread_local! {
        static TRACK: OnceCell<Arc<Track>> = const { OnceCell::new() };
        /// A label set before the thread's first event, applied when its track is
        /// created: a ring is allocated (and zero-filled) only for a thread that
        /// records.
        static LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// Default per-track capacity in events; override (before the first event)
    /// with `PARLO_TRACE_CAPACITY`.  Rounded up to a power of two.
    const DEFAULT_CAPACITY: usize = 1 << 16;

    fn capacity() -> usize {
        *CAPACITY.get_or_init(|| {
            std::env::var("PARLO_TRACE_CAPACITY")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEFAULT_CAPACITY)
                .clamp(16, 1 << 22)
                .next_power_of_two()
        })
    }

    #[inline]
    fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    fn register_current_thread() -> Arc<Track> {
        let label = LABEL.with(|l| l.borrow_mut().take()).unwrap_or_else(|| {
            std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| "anonymous".to_owned())
        });
        let mut reg = REGISTRY.lock().unwrap();
        let track = Arc::new(Track::new(label, reg.len() as u64, capacity()));
        reg.push(Arc::clone(&track));
        track
    }

    #[inline]
    fn with_track(f: impl FnOnce(&Track)) {
        TRACK.with(|cell| f(cell.get_or_init(register_current_thread)));
    }

    #[inline]
    pub(super) fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn enable() {
        // Anchor the epoch before the first event so timestamps are small.
        let _ = EPOCH.get_or_init(Instant::now);
        // Relaxed: a best-effort toggle — recorders poll it with a Relaxed load and
        // events racing an enable/disable edge may land on either side.
        ENABLED.store(true, Ordering::Relaxed);
    }

    pub(super) fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    pub(super) fn clear() {
        for track in REGISTRY.lock().unwrap().iter() {
            track.ring.reset();
        }
    }

    pub(super) fn set_thread_label(label: &str) {
        TRACK.with(|cell| match cell.get() {
            Some(track) => *track.label.lock().unwrap() = label.to_owned(),
            None => LABEL.with(|l| *l.borrow_mut() = Some(label.to_owned())),
        });
    }

    #[inline]
    pub(super) fn record(phase: Phase, kind: EventKind, a: u64, b: u64) {
        with_track(|t| t.record(phase, kind, a, b));
    }

    pub(super) fn snapshot() -> TraceSnapshot {
        let tracks = REGISTRY
            .lock()
            .unwrap()
            .iter()
            .map(|t| t.snapshot())
            .collect();
        TraceSnapshot { tracks }
    }

    pub(super) fn track_capacity() -> usize {
        capacity()
    }
}

#[cfg(not(feature = "enabled"))]
mod rt {
    //! Compiled-out twin: every hook is an empty inline function, so the
    //! instrumented hot paths contain no trace code at all.
    use super::{EventKind, Phase, TraceSnapshot};

    #[inline(always)]
    pub(super) fn is_enabled() -> bool {
        false
    }
    #[inline(always)]
    pub(super) fn enable() {}
    #[inline(always)]
    pub(super) fn disable() {}
    #[inline(always)]
    pub(super) fn clear() {}
    #[inline(always)]
    pub(super) fn set_thread_label(_label: &str) {}
    #[inline(always)]
    pub(super) fn record(_phase: Phase, _kind: EventKind, _a: u64, _b: u64) {}
    #[inline(always)]
    pub(super) fn snapshot() -> TraceSnapshot {
        TraceSnapshot::default()
    }
    #[inline(always)]
    pub(super) fn track_capacity() -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Public hook API
// ---------------------------------------------------------------------------

/// Turns event recording on.  Idempotent; also anchors the timestamp epoch.
pub fn enable() {
    rt::enable();
}

/// Turns event recording off.  Already-recorded events stay in their rings.
pub fn disable() {
    rt::disable();
}

/// Whether events are currently being recorded.  Always `false` when the
/// `enabled` feature is compiled out.
#[inline]
pub fn is_enabled() -> bool {
    rt::is_enabled()
}

/// Resets every track's cursor, discarding all recorded events.  Call at
/// quiescence (no thread mid-event); tracks and labels are kept.
pub fn clear() {
    rt::clear();
}

/// Names the calling thread's track on the exported timeline.  Works whether or
/// not recording is enabled, so workers can label themselves at spawn time; a
/// thread's track (and its ring) exists only once the thread records an event,
/// and a label set before that is applied then.
pub fn set_thread_label(label: &str) {
    rt::set_thread_label(label);
}

/// Opens a span on the calling thread's track.
#[inline]
pub fn span_begin(phase: Phase, a: u64, b: u64) {
    if !rt::is_enabled() {
        return;
    }
    rt::record(phase, EventKind::Begin, a, b);
}

/// Closes the innermost open span of `phase` on the calling thread's track.
#[inline]
pub fn span_end(phase: Phase) {
    if !rt::is_enabled() {
        return;
    }
    rt::record(phase, EventKind::End, 0, 0);
}

/// Records a point event on the calling thread's track.
#[inline]
pub fn instant(phase: Phase, a: u64, b: u64) {
    if !rt::is_enabled() {
        return;
    }
    rt::record(phase, EventKind::Instant, a, b);
}

/// Records a gauge sample on the calling thread's track.
#[inline]
pub fn counter(phase: Phase, value: u64) {
    if !rt::is_enabled() {
        return;
    }
    rt::record(phase, EventKind::Counter, value, 0);
}

/// Copies every track's events out of the rings.  Take at quiescence; see the
/// crate docs for the (benign) race with in-flight writers.
pub fn snapshot() -> TraceSnapshot {
    rt::snapshot()
}

/// The per-track ring capacity in events (`PARLO_TRACE_CAPACITY`, rounded up
/// to a power of two; default 65536).  `0` when tracing is compiled out.
pub fn track_capacity() -> usize {
    rt::track_capacity()
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

fn us(ts_ns: u64) -> serde::Value {
    serde::Value::F64(ts_ns as f64 / 1000.0)
}

fn chrome_event(
    name: &str,
    ph: &str,
    tid: u64,
    ts_ns: u64,
    args: Vec<(String, serde::Value)>,
) -> serde::Value {
    let mut fields = vec![
        ("name".to_owned(), serde::Value::Str(name.to_owned())),
        ("cat".to_owned(), serde::Value::Str("parlo".to_owned())),
        ("ph".to_owned(), serde::Value::Str(ph.to_owned())),
        ("pid".to_owned(), serde::Value::U64(1)),
        ("tid".to_owned(), serde::Value::U64(tid)),
        ("ts".to_owned(), us(ts_ns)),
    ];
    if ph == "i" {
        // Thread-scoped instant.
        fields.push(("s".to_owned(), serde::Value::Str("t".to_owned())));
    }
    if !args.is_empty() {
        fields.push(("args".to_owned(), serde::Value::Map(args)));
    }
    serde::Value::Map(fields)
}

/// Converts a snapshot into a Chrome trace-event [`serde::Value`] tree:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}` with one `tid` per
/// track, `thread_name` metadata, `B`/`E` spans, thread-scoped `i` instants
/// and `C` counter samples.  Loadable in Perfetto and `chrome://tracing`.
///
/// Ring overwrite can orphan the `End` of a span whose `Begin` was dropped;
/// such leading unmatched `End` events are skipped so the output always nests.
pub fn chrome_trace_value(snap: &TraceSnapshot) -> serde::Value {
    let mut events = Vec::new();
    for track in &snap.tracks {
        if track.events.is_empty() {
            continue;
        }
        events.push(serde::Value::Map(vec![
            (
                "name".to_owned(),
                serde::Value::Str("thread_name".to_owned()),
            ),
            ("ph".to_owned(), serde::Value::Str("M".to_owned())),
            ("pid".to_owned(), serde::Value::U64(1)),
            ("tid".to_owned(), serde::Value::U64(track.tid)),
            (
                "args".to_owned(),
                serde::Value::Map(vec![(
                    "name".to_owned(),
                    serde::Value::Str(track.label.clone()),
                )]),
            ),
        ]));
        let mut depth = 0u64;
        for e in &track.events {
            match e.kind {
                EventKind::Begin => {
                    depth += 1;
                    events.push(chrome_event(
                        e.phase.name(),
                        "B",
                        track.tid,
                        e.ts_ns,
                        vec![
                            ("a".to_owned(), serde::Value::U64(e.a)),
                            ("b".to_owned(), serde::Value::U64(e.b)),
                        ],
                    ));
                }
                EventKind::End => {
                    if depth == 0 {
                        // Begin was overwritten; an unmatched E would corrupt
                        // the nesting of everything after it.
                        continue;
                    }
                    depth -= 1;
                    events.push(chrome_event(
                        e.phase.name(),
                        "E",
                        track.tid,
                        e.ts_ns,
                        Vec::new(),
                    ));
                }
                EventKind::Instant => {
                    events.push(chrome_event(
                        e.phase.name(),
                        "i",
                        track.tid,
                        e.ts_ns,
                        vec![
                            ("a".to_owned(), serde::Value::U64(e.a)),
                            ("b".to_owned(), serde::Value::U64(e.b)),
                        ],
                    ));
                }
                EventKind::Counter => {
                    events.push(chrome_event(
                        e.phase.name(),
                        "C",
                        track.tid,
                        e.ts_ns,
                        vec![("value".to_owned(), serde::Value::U64(e.a))],
                    ));
                }
            }
        }
    }
    serde::Value::Map(vec![
        ("traceEvents".to_owned(), serde::Value::Seq(events)),
        (
            "displayTimeUnit".to_owned(),
            serde::Value::Str("ms".to_owned()),
        ),
    ])
}

/// Renders a snapshot as Chrome trace-event JSON text.
pub fn chrome_trace_string(snap: &TraceSnapshot) -> String {
    serde_json::to_string(&chrome_trace_value(snap)).expect("trace values are always finite")
}

/// Writes a snapshot as a Chrome trace-event JSON file at `path`.
pub fn write_chrome_trace(path: &str, snap: &TraceSnapshot) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_string(snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_flag_matches_feature() {
        assert_eq!(COMPILED, cfg!(feature = "enabled"));
    }

    #[test]
    fn phase_codes_round_trip_and_names_are_unique() {
        let mut names = Vec::new();
        for p in Phase::ALL {
            assert_eq!(Phase::from_u64(p as u64), Some(p));
            assert!(!names.contains(&p.name()), "duplicate name {}", p.name());
            names.push(p.name());
        }
        assert_eq!(Phase::from_u64(0), None);
        assert_eq!(Phase::from_u64(9999), None);
    }

    #[test]
    fn empty_snapshot_exports_valid_json() {
        let snap = TraceSnapshot::default();
        let json = chrome_trace_string(&snap);
        let v: serde::Value = serde_json::from_str(&json).expect("parses");
        let map = v.as_map().expect("object");
        let events = serde::map_get(map, "traceEvents").expect("traceEvents");
        assert_eq!(events.as_seq().expect("array").len(), 0);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_records_nothing() {
        enable();
        assert!(!is_enabled());
        span_begin(Phase::Loop, 1, 2);
        span_end(Phase::Loop);
        instant(Phase::StealHit, 0, 1);
        counter(Phase::QueueDepth, 7);
        assert_eq!(snapshot().total_events(), 0);
    }

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;
        use std::sync::Mutex;

        /// The ring state is process-global; serialize tests that touch it.
        static LOCK: Mutex<()> = Mutex::new(());

        #[test]
        fn records_and_snapshots_in_order() {
            let _g = LOCK.lock().unwrap();
            clear();
            enable();
            set_thread_label("unit-test");
            span_begin(Phase::Loop, 7, 3);
            instant(Phase::Combine, 1, 0);
            span_end(Phase::Loop);
            disable();
            let snap = snapshot();
            let track = snap
                .tracks
                .iter()
                .find(|t| t.label == "unit-test" && !t.events.is_empty())
                .expect("own track");
            let tail: Vec<_> = track.events.iter().rev().take(3).rev().collect();
            assert_eq!(tail[0].phase, Phase::Loop);
            assert_eq!(tail[0].kind, EventKind::Begin);
            assert_eq!((tail[0].a, tail[0].b), (7, 3));
            assert_eq!(tail[1].phase, Phase::Combine);
            assert_eq!(tail[2].kind, EventKind::End);
            assert!(tail[0].ts_ns <= tail[1].ts_ns && tail[1].ts_ns <= tail[2].ts_ns);
        }

        #[test]
        fn a_track_exists_only_once_its_thread_records() {
            let _g = LOCK.lock().unwrap();
            clear();
            let label = "lazy-track-test";
            let labelled = |snap: &TraceSnapshot| snap.tracks.iter().any(|t| t.label == label);
            let (before, after) = std::thread::spawn(move || {
                set_thread_label(label);
                let before = snapshot();
                enable();
                instant(Phase::Probe, 1, 0);
                disable();
                (before, snapshot())
            })
            .join()
            .unwrap();
            assert!(
                !labelled(&before),
                "a thread that recorded nothing has a track"
            );
            let track = after
                .tracks
                .iter()
                .find(|t| t.label == label)
                .expect("the first event creates the labelled track");
            assert_eq!(track.events.len(), 1);
        }

        #[test]
        fn disabled_flag_suppresses_recording() {
            let _g = LOCK.lock().unwrap();
            clear();
            disable();
            instant(Phase::StealHit, 0, 0);
            assert_eq!(snapshot().total_events(), 0);
        }

        #[test]
        fn overwrite_keeps_newest_and_counts_dropped() {
            let _g = LOCK.lock().unwrap();
            clear();
            enable();
            // Overfill the ring deliberately; capacity is a power of two.
            let n = track_capacity() + 100;
            for i in 0..n {
                instant(Phase::Probe, i as u64, 0);
            }
            disable();
            let snap = snapshot();
            let track = snap
                .tracks
                .iter()
                .filter(|t| !t.events.is_empty())
                .max_by_key(|t| t.events.len())
                .expect("track");
            // Newest event must be the last one written.
            assert_eq!(track.events.last().unwrap().a, n as u64 - 1);
            assert_eq!(track.dropped as usize + track.events.len(), n);
        }

        #[test]
        fn chrome_export_round_trips_through_vendored_serde() {
            let _g = LOCK.lock().unwrap();
            clear();
            enable();
            set_thread_label("export-test");
            span_begin(Phase::Batch, 2, 0);
            counter(Phase::QueueDepth, 5);
            span_end(Phase::Batch);
            disable();
            let snap = snapshot();
            let value = chrome_trace_value(&snap);
            let text = serde_json::to_string(&value).unwrap();
            let back: serde::Value = serde_json::from_str(&text).unwrap();
            assert_eq!(back, value);
        }

        #[test]
        fn orphaned_span_ends_are_dropped_by_exporter() {
            let snap = TraceSnapshot {
                tracks: vec![TrackSnapshot {
                    label: "t".into(),
                    tid: 0,
                    events: vec![
                        Event {
                            ts_ns: 1,
                            phase: Phase::Loop,
                            kind: EventKind::End,
                            a: 0,
                            b: 0,
                        },
                        Event {
                            ts_ns: 2,
                            phase: Phase::Loop,
                            kind: EventKind::Begin,
                            a: 0,
                            b: 0,
                        },
                        Event {
                            ts_ns: 3,
                            phase: Phase::Loop,
                            kind: EventKind::End,
                            a: 0,
                            b: 0,
                        },
                    ],
                    dropped: 1,
                }],
            };
            let v = chrome_trace_value(&snap);
            let map = v.as_map().unwrap();
            let events = serde::map_get(map, "traceEvents")
                .unwrap()
                .as_seq()
                .unwrap();
            // thread_name metadata + B + one E; the orphaned E is gone.
            assert_eq!(events.len(), 3);
        }
    }
}

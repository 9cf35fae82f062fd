//! Splits traced loops into their barrier phases by pairing `parlo-trace` events by
//! epoch, one snapshot window at a time.
//!
//! The master track of a loop with epoch `e` holds a `Loop` span, a `Release`
//! instant and a `Join` span, all tagged with `e`; each worker track holds a
//! `Dispatch` span (tagged `e`) that ends when the worker saw the release, and an
//! `Arrival` span.  A loop's span splits into the master's *self* time (publish,
//! its own share of the body, and the tail after the join) and its *join wait*.

use parlo_trace::{EventKind, Phase, TraceSnapshot, TrackSnapshot};
use std::collections::HashMap;

/// How far the summed loop spans may differ from the summed phases they split into,
/// as a share of the former.  The split is exact once every loop pairs with its own
/// release and join; the check guards that pairing (same epoch, same track, nested
/// in order) rather than the clock.
pub const PHASE_SUM_TOLERANCE: f64 = 0.01;

/// A closed span on one track.
#[derive(Debug, Clone, Copy)]
struct Span {
    phase: Phase,
    a: u64,
    begin: u64,
    end: u64,
}

impl Span {
    fn len(&self) -> u64 {
        self.end - self.begin
    }
}

/// Pairs a track's `Begin`/`End` events into spans.  An `End` closes the innermost
/// open span of its phase; an `End` whose `Begin` fell before the window is skipped,
/// and so is a `Begin` still open when the window was taken.
fn spans(track: &TrackSnapshot) -> Vec<Span> {
    let mut open: Vec<Span> = Vec::new();
    let mut closed = Vec::new();
    for e in &track.events {
        match e.kind {
            EventKind::Begin => open.push(Span {
                phase: e.phase,
                a: e.a,
                begin: e.ts_ns,
                end: e.ts_ns,
            }),
            EventKind::End => {
                if let Some(i) = open.iter().rposition(|s| s.phase == e.phase) {
                    let mut span = open.remove(i);
                    span.end = e.ts_ns;
                    closed.push(span);
                }
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    closed
}

/// Phase durations (nanoseconds) and counts accumulated over the trace windows.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub loop_span: Vec<u64>,
    pub loop_self: Vec<u64>,
    pub join_wait: Vec<u64>,
    pub release_to_dispatch: Vec<u64>,
    pub arrival: Vec<u64>,
    pub batch: Vec<u64>,
    pub lease_attach: Vec<u64>,
    /// Loops that paired with their release and join.
    pub loops: u64,
    /// Loops whose release or join was missing or out of order.
    pub unpaired: u64,
    pub combines: u64,
    pub sweeps: u64,
    pub dropped: u64,
    span_total: u64,
    parts_total: u64,
}

impl PhaseStats {
    /// Adds one snapshot window.  `pair_loops` pairs loop phases by epoch, which is
    /// only sound when one pool's epochs are in the window.
    pub fn add_window(&mut self, snap: &TraceSnapshot, pair_loops: bool) {
        self.dropped += snap.total_dropped();
        // (track, epoch) → release time, and epoch → release time for the workers.
        let mut releases: HashMap<(u64, u64), u64> = HashMap::new();
        let mut release_at: HashMap<u64, u64> = HashMap::new();
        let mut joins: HashMap<(u64, u64), Span> = HashMap::new();
        let mut loops: Vec<(u64, Span)> = Vec::new();
        let mut dispatches: Vec<Span> = Vec::new();
        for track in &snap.tracks {
            for e in &track.events {
                match (e.phase, e.kind) {
                    (Phase::Release, EventKind::Instant) => {
                        releases.insert((track.tid, e.a), e.ts_ns);
                        release_at.insert(e.a, e.ts_ns);
                    }
                    (Phase::Combine, EventKind::Instant) => self.combines += 1,
                    (Phase::StealSweep, EventKind::Instant) => self.sweeps += 1,
                    _ => {}
                }
            }
            for span in spans(track) {
                match span.phase {
                    Phase::Loop => loops.push((track.tid, span)),
                    Phase::Join => {
                        joins.insert((track.tid, span.a), span);
                    }
                    Phase::Dispatch => dispatches.push(span),
                    Phase::Arrival => self.arrival.push(span.len()),
                    Phase::Batch => self.batch.push(span.len()),
                    Phase::LeaseAttach => self.lease_attach.push(span.len()),
                    _ => {}
                }
            }
        }
        if !pair_loops {
            return;
        }
        for (tid, lp) in loops {
            let key = (tid, lp.a);
            let paired = match (releases.get(&key), joins.get(&key)) {
                (Some(&release), Some(join))
                    if lp.begin <= release && release <= join.begin && join.end <= lp.end =>
                {
                    Some(*join)
                }
                _ => None,
            };
            let Some(join) = paired else {
                self.unpaired += 1;
                continue;
            };
            let self_ns = (join.begin - lp.begin) + (lp.end - join.end);
            self.loops += 1;
            self.loop_span.push(lp.len());
            self.loop_self.push(self_ns);
            self.join_wait.push(join.len());
            self.span_total += lp.len();
            self.parts_total += self_ns + join.len();
        }
        for d in dispatches {
            if let Some(&release) = release_at.get(&d.a) {
                if d.end >= release {
                    self.release_to_dispatch.push(d.end - release);
                }
            }
        }
    }

    /// The phase-sum check: loops were traced, every one paired with its release and
    /// join, and the summed spans equal summed self time plus join wait within
    /// [`PHASE_SUM_TOLERANCE`].
    pub fn phase_sum_ok(&self) -> bool {
        let span = self.span_total as f64;
        self.loops > 0
            && self.unpaired == 0
            && (span - self.parts_total as f64).abs() <= PHASE_SUM_TOLERANCE * span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_trace::Event;

    fn ev(ts_ns: u64, phase: Phase, kind: EventKind, a: u64) -> Event {
        Event {
            ts_ns,
            phase,
            kind,
            a,
            b: 0,
        }
    }

    fn track(tid: u64, events: Vec<Event>) -> TrackSnapshot {
        TrackSnapshot {
            label: format!("t{tid}"),
            tid,
            events,
            dropped: 0,
        }
    }

    #[test]
    fn a_loop_splits_into_self_time_and_join_wait() {
        use EventKind::*;
        let master = track(
            0,
            vec![
                ev(100, Phase::Loop, Begin, 7),
                ev(110, Phase::Release, Instant, 7),
                ev(300, Phase::Join, Begin, 7),
                ev(350, Phase::Combine, Instant, 1),
                ev(360, Phase::Join, End, 0),
                ev(370, Phase::Loop, End, 0),
            ],
        );
        let worker = track(
            1,
            vec![
                // The end of a dispatch that began before the window is skipped.
                ev(90, Phase::Dispatch, End, 0),
                ev(95, Phase::Dispatch, Begin, 7),
                ev(140, Phase::Dispatch, End, 0),
                ev(320, Phase::Arrival, Begin, 7),
                ev(345, Phase::Arrival, End, 0),
            ],
        );
        let mut stats = PhaseStats::default();
        stats.add_window(
            &TraceSnapshot {
                tracks: vec![master, worker],
            },
            true,
        );
        assert_eq!(stats.loop_span, vec![270]);
        assert_eq!(stats.join_wait, vec![60]);
        assert_eq!(stats.loop_self, vec![210]);
        assert_eq!(stats.release_to_dispatch, vec![30]);
        assert_eq!(stats.arrival, vec![25]);
        assert_eq!(stats.combines, 1);
        assert!(stats.phase_sum_ok());
    }

    #[test]
    fn a_loop_without_its_join_fails_the_check() {
        use EventKind::*;
        let master = track(
            0,
            vec![
                ev(100, Phase::Loop, Begin, 7),
                ev(110, Phase::Release, Instant, 7),
                // A join of another epoch does not pair with loop 7.
                ev(300, Phase::Join, Begin, 8),
                ev(360, Phase::Join, End, 0),
                ev(370, Phase::Loop, End, 0),
            ],
        );
        let mut stats = PhaseStats::default();
        stats.add_window(
            &TraceSnapshot {
                tracks: vec![master],
            },
            true,
        );
        assert_eq!(stats.unpaired, 1);
        assert!(!stats.phase_sum_ok());
    }
}

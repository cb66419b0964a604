//! Trace containers: the per-process event logs the Profiler writes and the
//! DN-Analyzer reads.

use crate::event::{Event, EventKind};
use crate::ids::Rank;
use crate::loc::{LocId, SourceLoc};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to one event: `(absolute rank, index in that rank's log)`.
///
/// Event indices double as per-rank program-order sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventRef {
    /// Absolute rank that logged the event.
    pub rank: Rank,
    /// Index into that rank's event log.
    pub idx: usize,
}

impl EventRef {
    /// Creates a reference.
    pub fn new(rank: Rank, idx: usize) -> Self {
        Self { rank, idx }
    }
}

impl fmt::Display for EventRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.rank, self.idx)
    }
}

/// The event log of one MPI process, in program order, together with its
/// interned source-location table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcessTrace {
    /// The events, in program order.
    pub events: Vec<Event>,
    /// Interned source locations referenced by `Event::loc`.
    pub locs: Vec<SourceLoc>,
}

impl ProcessTrace {
    /// Looks up an interned location; returns the unknown location for
    /// [`LocId::UNKNOWN`] or out-of-range ids.
    pub fn loc(&self, id: LocId) -> SourceLoc {
        self.locs.get(id.0 as usize).cloned().unwrap_or_else(SourceLoc::unknown)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The complete trace of a run: one [`ProcessTrace`] per rank, indexed by
/// absolute rank.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Per-rank logs; `procs[r]` belongs to absolute rank `r`.
    pub procs: Vec<ProcessTrace>,
}

impl Trace {
    /// Creates an empty trace for `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        Self { procs: vec![ProcessTrace::default(); nprocs] }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// The event a reference points at.
    ///
    /// # Panics
    /// Panics if the reference is out of range.
    pub fn event(&self, r: EventRef) -> &Event {
        &self.procs[r.rank.idx()].events[r.idx]
    }

    /// The source location of a referenced event.
    pub fn loc_of(&self, r: EventRef) -> SourceLoc {
        let p = &self.procs[r.rank.idx()];
        p.loc(p.events[r.idx].loc)
    }

    /// Total number of events across all ranks.
    pub fn total_events(&self) -> usize {
        self.procs.iter().map(|p| p.events.len()).sum()
    }

    /// Iterates over all events as `(EventRef, &Event)`.
    pub fn iter_events(&self) -> impl Iterator<Item = (EventRef, &Event)> {
        self.procs.iter().enumerate().flat_map(|(r, p)| {
            p.events.iter().enumerate().map(move |(i, e)| (EventRef::new(Rank(r as u32), i), e))
        })
    }

    /// Iterates over all events in *stream order*: ranks interleaved
    /// round-robin (each rank's `k`-th event before any rank's `k+1`-th),
    /// the order events would arrive from live instrumentation. Position
    /// `i` of the iteration is the event a `mcc serve` session numbers
    /// `seq == i`.
    pub fn stream_order(&self) -> impl Iterator<Item = (Rank, EventKind, SourceLoc)> + '_ {
        let rounds = self.procs.iter().map(ProcessTrace::len).max().unwrap_or(0);
        (0..rounds).flat_map(move |k| {
            self.procs.iter().enumerate().filter_map(move |(r, p)| {
                p.events.get(k).map(|ev| (Rank(r as u32), ev.kind.clone(), p.loc(ev.loc)))
            })
        })
    }
}

/// Builder used by tests and the trace readers to assemble traces by hand.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Starts a builder for `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        Self { trace: Trace::new(nprocs) }
    }

    /// Appends an event with an unknown location; returns its reference.
    pub fn push(&mut self, rank: Rank, kind: crate::event::EventKind) -> EventRef {
        self.push_at(rank, kind, SourceLoc::unknown())
    }

    /// Appends an event with a location; returns its reference.
    pub fn push_at(
        &mut self,
        rank: Rank,
        kind: crate::event::EventKind,
        loc: SourceLoc,
    ) -> EventRef {
        let p = &mut self.trace.procs[rank.idx()];
        let loc_id = match p.locs.iter().position(|l| *l == loc) {
            Some(i) => LocId(i as u32),
            None => {
                p.locs.push(loc);
                LocId((p.locs.len() - 1) as u32)
            }
        };
        p.events.push(Event::new(kind, loc_id));
        EventRef::new(rank, p.events.len() - 1)
    }

    /// Finishes the trace.
    pub fn build(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ids::CommId;

    #[test]
    fn builder_and_accessors() {
        let mut b = TraceBuilder::new(2);
        let r0 = b.push(Rank(0), EventKind::Barrier { comm: CommId::WORLD });
        let r1 = b.push_at(
            Rank(1),
            EventKind::Load { addr: 4, len: 4 },
            SourceLoc::new("a.c", 10, "main"),
        );
        let r2 = b.push_at(
            Rank(1),
            EventKind::Store { addr: 4, len: 4 },
            SourceLoc::new("a.c", 10, "main"),
        );
        let t = b.build();
        assert_eq!(t.nprocs(), 2);
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.event(r0).kind, EventKind::Barrier { comm: CommId::WORLD });
        assert_eq!(t.loc_of(r1).line, 10);
        // Location interning: same loc reused.
        assert_eq!(t.procs[1].locs.len(), 1);
        assert_eq!(t.event(r2).loc, t.event(r1).loc);
        assert_eq!(r2.idx, 1);
    }

    #[test]
    fn unknown_loc_lookup() {
        let t = Trace::new(1);
        assert_eq!(t.procs[0].loc(LocId::UNKNOWN).file, "<unknown>");
    }

    #[test]
    fn iter_events_covers_all_ranks() {
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(Rank(r), EventKind::Barrier { comm: CommId::WORLD });
            b.push(Rank(r), EventKind::Load { addr: 0, len: 1 });
        }
        let t = b.build();
        let refs: Vec<EventRef> = t.iter_events().map(|(r, _)| r).collect();
        assert_eq!(refs.len(), 6);
        assert!(refs.contains(&EventRef::new(Rank(2), 1)));
    }

    #[test]
    fn stream_order_interleaves_ranks_round_robin() {
        // Uneven logs: rank 1 runs dry first, rank 2 is empty.
        let mut b = TraceBuilder::new(3);
        for addr in [0, 1, 2] {
            b.push_at(Rank(0), EventKind::Load { addr, len: 1 }, SourceLoc::new("s.c", 7, "f"));
        }
        b.push(Rank(1), EventKind::Load { addr: 10, len: 1 });
        let t = b.build();
        let order: Vec<(u32, u64)> = t
            .stream_order()
            .map(|(rank, kind, _)| match kind {
                EventKind::Load { addr, .. } => (rank.0, addr),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![(0, 0), (1, 10), (0, 1), (0, 2)]);
        let (_, _, loc) = t.stream_order().next().unwrap();
        assert_eq!(loc.line, 7, "locations are resolved through the rank's table");
        assert_eq!(Trace::new(2).stream_order().count(), 0);
    }

    #[test]
    fn event_ref_display() {
        assert_eq!(EventRef::new(Rank(1), 4).to_string(), "P1#4");
    }

    #[test]
    fn trace_serde_roundtrip() {
        let mut b = TraceBuilder::new(1);
        b.push(Rank(0), EventKind::Store { addr: 16, len: 8 });
        let t = b.build();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}

//! Reusable happens-before race export for schedule exploration.
//!
//! `mcc-explore` prunes its DFS over delivery schedules with a
//! sleep-set-style argument: flipping *when* an RMA operation's memory
//! effect lands can only change observable behaviour if some other access
//! is **concurrent** with it under the vector-clock happens-before
//! relation ([`crate::vc`]) *and* conflicts on the same memory — exactly
//! the unordered conflicting pairs the two detectors already enumerate.
//! An operation cited by no finding commutes with everything around it:
//! every access to its bytes is ordered before its issue or after its
//! completing synchronization, so any legal delivery point between the
//! two yields the same values everywhere.
//!
//! [`racing_events`] re-runs the pipeline up to the detectors and returns
//! the set of events cited by any **raw** (pre-deduplication) finding,
//! errors and warnings alike. The session's report deduplicates repeated
//! source-level conflicts, which is right for human output but would hide
//! racing loop iterations from the explorer — hence this dedicated
//! export.

use crate::vc::Clocks;
use crate::{dag, epoch, inter, intra, matching, preprocess, regions};
use mcc_obs::RecorderHandle;
use mcc_types::{EventRef, Trace};
use std::collections::HashSet;

/// Every event cited by a raw finding of either detector: the conflicting
/// (vector-clock concurrent) operations of the trace.
///
/// The trace must be internally consistent (as produced by the profiler
/// or a completed simulator run); repair damaged traces with
/// [`crate::degrade::sanitize`] first — and note that repair can drop
/// events, shifting the indices the returned references point at.
pub fn racing_events(trace: &Trace) -> HashSet<EventRef> {
    let obs = RecorderHandle::disabled();
    let ctx = preprocess::preprocess(trace);
    let matching = matching::match_sync(trace, &ctx);
    let dag = dag::build(trace, &ctx, &matching);
    let clocks = Clocks::compute(&dag);
    let regions = regions::partition(trace, &matching);
    let epochs = epoch::extract(trace, &ctx);

    let mut racing = HashSet::new();
    for (i, ep) in epochs.epochs.iter().enumerate() {
        for d in intra::check_epoch_raw(trace, &ctx, ep, epochs.ordinals[i]) {
            racing.insert(d.a.ev);
            racing.insert(d.b.ev);
        }
    }
    for shard in &inter::build_shards(trace, &ctx, &epochs, &regions) {
        for d in inter::detect_shard(trace, &dag, &clocks, shard, &obs) {
            racing.insert(d.a.ev);
            racing.insert(d.b.ev);
        }
    }
    racing
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{CommId, DatatypeId, EventKind, Rank, RmaKind, RmaOp, TraceBuilder, WinId};

    fn put(target: u32) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(target),
            origin_addr: 200,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: 0,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    fn base(n: u32) -> TraceBuilder {
        let mut b = TraceBuilder::new(n as usize);
        for r in 0..n {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b
    }

    fn close(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
    }

    #[test]
    fn racing_trace_cites_both_sides() {
        let mut b = base(2);
        let p = b.push(Rank(0), put(1));
        let s = b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        let racing = racing_events(&b.build());
        assert!(racing.contains(&p), "the put is racing");
        assert!(racing.contains(&s), "the origin store is racing");
    }

    #[test]
    fn ordered_trace_has_no_racing_events() {
        let mut b = base(2);
        b.push(Rank(0), put(1));
        close(&mut b, 2);
        // Store only after the closing fence: ordered, not racing.
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(racing_events(&b.build()).is_empty());
    }

    #[test]
    fn raw_findings_keep_deduplicated_repeats() {
        // Two puts from the same source line racing with two stores: the
        // session report deduplicates to one finding, but all four events
        // must be exported as racing.
        let mut b = base(2);
        let p1 = b.push(Rank(0), put(1));
        let s1 = b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        let p2 = b.push(Rank(0), put(1));
        let s2 = b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        let trace = b.build();
        let report = crate::AnalysisSession::new().run(&trace);
        assert!(report.diagnostics.len() < 4, "session output is deduplicated");
        let racing = racing_events(&trace);
        for ev in [p1, s1, p2, s2] {
            assert!(racing.contains(&ev), "raw export keeps every racing event");
        }
    }
}

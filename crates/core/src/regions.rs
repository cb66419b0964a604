//! Concurrent-region extraction (paper §III-B).
//!
//! "While analyzing the DAG, MC-Checker identifies global synchronization
//! events (e.g., via barrier operations) that partition the DAG. These
//! synchronization events essentially truncate the DAG into multiple
//! execution regions, which are sequentially ordered and can be used to
//! improve the efficiency of the analysis."
//!
//! A *global* synchronization is a matched collective over a communicator
//! spanning every rank. Each rank's event sequence is cut at its global
//! synchronization events; the k-th segment of every rank together forms
//! concurrent region k. Pairs in different regions are ordered and need no
//! pairwise check; pairs within a region are *candidates* and are
//! confirmed unordered with vector clocks (regions are a pruning device,
//! not the ordering oracle).

//!
//! This module also hosts the [`IntervalIndex`], the class-aware
//! sort-and-sweep byte-interval index both detectors draw their candidate
//! pairs from: O(n log n + k_w) for n intervals and k_w overlaps that
//! involve a writer and at most one CPU access, instead of an all-pairs
//! scan.

use crate::matching::Matching;
use mcc_types::{EventRef, Trace};

/// The region partition of a trace.
#[derive(Debug)]
pub struct Regions {
    /// Number of regions (at least 1 for non-empty traces).
    pub count: usize,
    /// `of[rank][idx]` is the region of that event. Global-synchronization
    /// boundary events belong to the region they close.
    pub of: Vec<Vec<u32>>,
}

impl Regions {
    /// The region of an event.
    pub fn region_of(&self, er: EventRef) -> u32 {
        self.of[er.rank.idx()][er.idx]
    }

    /// A single-region partition (the no-partitioning ablation).
    pub fn whole(trace: &Trace) -> Regions {
        Regions { count: 1, of: trace.procs.iter().map(|p| vec![0; p.events.len()]).collect() }
    }
}

/// Partitions the trace at global synchronization events.
pub fn partition(trace: &Trace, matching: &Matching) -> Regions {
    let n = trace.nprocs();
    // Collect the boundary events per rank (events that are members of a
    // global collective).
    let mut boundaries: Vec<Vec<usize>> = vec![Vec::new(); n];
    for coll in matching.collectives.iter().filter(|c| c.global) {
        for &er in &coll.events {
            boundaries[er.rank.idx()].push(er.idx);
        }
    }
    for b in &mut boundaries {
        b.sort_unstable();
    }
    // Every rank participates in every global collective, so all ranks see
    // the same number of boundaries, and the k-th boundary of each rank is
    // the same matched collective (collectives on a communicator are
    // totally ordered per member).
    let counts: Vec<usize> = boundaries.iter().map(Vec::len).collect();
    let bcount = counts.first().copied().unwrap_or(0);
    debug_assert!(counts.iter().all(|&c| c == bcount), "global collectives must span all ranks");

    let mut of = Vec::with_capacity(n);
    for (r, proc) in trace.procs.iter().enumerate() {
        let mut regions = Vec::with_capacity(proc.events.len());
        let mut next_boundary = 0usize;
        let mut region = 0u32;
        for idx in 0..proc.events.len() {
            regions.push(region);
            if next_boundary < boundaries[r].len() && boundaries[r][next_boundary] == idx {
                region += 1;
                next_boundary += 1;
            }
        }
        of.push(regions);
    }
    Regions { count: bcount + 1, of }
}

/// How an item touches the bytes of one interval — the two facts the
/// sweep needs to skip the pairs no ruleset can flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Touch {
    /// The item only reads these bytes.
    pub reader: bool,
    /// A CPU load or store by the rank that owns the memory, as opposed
    /// to the effect of a one-sided operation.
    pub local: bool,
}

impl Touch {
    /// Every class, at the position [`Touch::class`] gives it.
    const CLASSES: [Touch; 4] = [
        Touch { reader: false, local: false },
        Touch { reader: false, local: true },
        Touch { reader: true, local: false },
        Touch { reader: true, local: true },
    ];

    fn class(self) -> usize {
        2 * self.reader as usize + self.local as usize
    }

    /// Whether a pair of overlapping intervals with these classes is a
    /// candidate at all. Two readers are not: Table I marks every
    /// `Load`/`Get` combination `BOTH`, and two pending reads of a local
    /// buffer never race. Two local accesses are not: one rank's loads and
    /// stores are program-ordered (Table I: `BOTH`).
    fn pairs_with(self, other: Touch) -> bool {
        !(self.reader && other.reader || self.local && other.local)
    }
}

/// A class-aware sort-and-sweep index over half-open byte intervals
/// `[start, end)`.
///
/// Items (accesses) contribute one or more intervals (their data-map
/// segments), each with a [`Touch`]. [`IntervalIndex::overlapping_pairs`]
/// enumerates every pair of distinct items that share a byte through two
/// intervals of which **at least one is a writer and at most one is
/// local** — reader/reader and local/local overlaps are never produced,
/// not produced and then discarded. The sweep keeps one list of open
/// intervals per class and compares a new interval only with the lists
/// it can pair with: a remote reader with the open writers, a local load
/// with the open remote writers, and so on. With n intervals and k_w
/// such overlaps the cost is O(n log n + k_w), however many readers
/// share the bytes and however often the owner touches them itself.
#[derive(Debug, Default)]
pub struct IntervalIndex {
    /// `(start, end, item, touch)` tuples; `end` is exclusive.
    segs: Vec<(u64, u64, u32, Touch)>,
}

impl IntervalIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one interval for `item`. Empty intervals are ignored.
    pub fn insert(&mut self, item: u32, start: u64, end: u64, touch: Touch) {
        if end > start {
            self.segs.push((start, end, item, touch));
        }
    }

    /// Number of intervals inserted.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether the index holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// All distinct item pairs `(lo, hi)` with `lo < hi` that share at
    /// least one byte through two intervals whose classes pair, sorted.
    /// Pairs of intervals belonging to the same item are not reported.
    pub fn overlapping_pairs(&mut self) -> Vec<(u32, u32)> {
        self.segs.sort_unstable();
        // Open `(end, item)` intervals per class. A list is expired only
        // in the pass that scans it, so an interval that pairs with
        // nothing open costs O(1).
        let mut open: [Vec<(u64, u32)>; 4] = Default::default();
        let mut pairs = Vec::new();
        for &(start, end, item, touch) in &self.segs {
            for (class, list) in Touch::CLASSES.into_iter().zip(&mut open) {
                if !touch.pairs_with(class) {
                    continue;
                }
                list.retain(|&(open_end, other)| {
                    if open_end <= start {
                        return false;
                    }
                    if other != item {
                        pairs.push((other.min(item), other.max(item)));
                    }
                    true
                });
            }
            open[touch.class()].push((end, item));
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::match_sync;
    use crate::preprocess::preprocess;
    use mcc_types::{CommId, EventKind, Rank, TraceBuilder};

    #[test]
    fn barriers_partition_regions() {
        let mut b = TraceBuilder::new(2);
        let mut marks = Vec::new();
        for r in 0..2u32 {
            let a = b.push(Rank(r), EventKind::Store { addr: 64, len: 4 });
            let bar = b.push(Rank(r), EventKind::Barrier { comm: CommId::WORLD });
            let c = b.push(Rank(r), EventKind::Load { addr: 64, len: 4 });
            marks.push((a, bar, c));
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let regions = partition(&t, &m);
        assert_eq!(regions.count, 2);
        for &(a, bar, c) in &marks {
            assert_eq!(regions.region_of(a), 0);
            assert_eq!(regions.region_of(bar), 0, "boundary closes its region");
            assert_eq!(regions.region_of(c), 1);
        }
    }

    #[test]
    fn subcommunicator_collectives_do_not_partition() {
        let mut b = TraceBuilder::new(3);
        // Only ranks 0 and 2 synchronize on a sub-communicator.
        for r in [0u32, 2] {
            b.push(
                Rank(r),
                EventKind::GroupIncl {
                    old: mcc_types::GroupId::WORLD,
                    new: mcc_types::GroupId(4),
                    ranks: vec![0, 2],
                },
            );
            b.push(
                Rank(r),
                EventKind::CommCreate {
                    old: CommId::WORLD,
                    group: mcc_types::GroupId(4),
                    new: Some(CommId(2)),
                },
            );
            b.push(Rank(r), EventKind::Barrier { comm: CommId(2) });
            b.push(Rank(r), EventKind::Store { addr: 64, len: 4 });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let regions = partition(&t, &m);
        assert_eq!(regions.count, 1, "no world-spanning sync, one region");
    }

    #[test]
    fn whole_partition_for_ablation() {
        let mut b = TraceBuilder::new(1);
        b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        let t = b.build();
        let r = Regions::whole(&t);
        assert_eq!(r.count, 1);
        assert_eq!(r.region_of(EventRef::new(Rank(0), 0)), 0);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(2);
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let r = partition(&t, &m);
        assert_eq!(r.count, 1);
    }

    const RMA_WRITE: Touch = Touch { reader: false, local: false };
    const RMA_READ: Touch = Touch { reader: true, local: false };
    const STORE: Touch = Touch { reader: false, local: true };
    const LOAD: Touch = Touch { reader: true, local: true };

    #[test]
    fn interval_index_basic_overlaps() {
        let mut idx = IntervalIndex::new();
        idx.insert(0, 0, 4, RMA_WRITE);
        idx.insert(1, 2, 6, RMA_WRITE); // overlaps 0
        idx.insert(2, 4, 8, RMA_WRITE); // touches 0 (no overlap), overlaps 1
        idx.insert(3, 100, 104, RMA_WRITE); // isolated
        idx.insert(4, 0, 0, RMA_WRITE); // empty, ignored
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.overlapping_pairs(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn interval_index_readers_pair_only_with_writers() {
        // Three readers and one writer on the same bytes: the writer pairs
        // with every reader, the readers with nobody else — whether the
        // writer's interval opens before, between or after theirs.
        for writer_start in [0, 1, 3] {
            let mut idx = IntervalIndex::new();
            idx.insert(0, 0, 8, RMA_READ);
            idx.insert(1, 1, 8, RMA_READ);
            idx.insert(2, 2, 8, LOAD);
            idx.insert(3, writer_start, 8, RMA_WRITE);
            assert_eq!(idx.overlapping_pairs(), vec![(0, 3), (1, 3), (2, 3)]);
        }
        // An item that reads one range and writes another pairs through
        // its writer interval only.
        let mut idx = IntervalIndex::new();
        idx.insert(0, 0, 4, RMA_READ);
        idx.insert(0, 8, 12, RMA_WRITE);
        idx.insert(1, 0, 4, RMA_READ);
        idx.insert(2, 8, 12, RMA_READ);
        assert_eq!(idx.overlapping_pairs(), vec![(0, 2)]);
    }

    #[test]
    fn interval_index_locals_pair_only_with_remote_accesses() {
        // The owner stores to and loads from bytes a remote read and a
        // remote write also touch: store/store and store/load are not
        // candidates, load/remote-read is reader/reader.
        let mut idx = IntervalIndex::new();
        idx.insert(0, 0, 8, STORE);
        idx.insert(1, 0, 8, STORE);
        idx.insert(2, 0, 8, LOAD);
        idx.insert(3, 0, 8, RMA_READ);
        idx.insert(4, 0, 8, RMA_WRITE);
        assert_eq!(idx.overlapping_pairs(), vec![(0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn interval_index_multi_segment_items_dedup() {
        let mut idx = IntervalIndex::new();
        // Item 0 has two segments, both overlapping item 1's span.
        idx.insert(0, 0, 4, RMA_WRITE);
        idx.insert(0, 8, 12, RMA_WRITE);
        idx.insert(1, 0, 16, RMA_READ);
        assert_eq!(idx.overlapping_pairs(), vec![(0, 1)], "pair reported once");
        // Self-overlap between an item's own segments is never a pair.
        let mut idx = IntervalIndex::new();
        idx.insert(7, 0, 10, RMA_WRITE);
        idx.insert(7, 5, 15, RMA_READ);
        assert!(idx.overlapping_pairs().is_empty());
    }

    #[test]
    fn interval_index_matches_naive_all_pairs() {
        // Pseudo-random two-segment items (segments of one item may
        // overlap each other) with a random class per segment; compare
        // the sweep against the O(n²) definition: overlapping pairs of
        // distinct items minus reader/reader and local/local.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 16
        };
        for round in 0..32 {
            let mut idx = IntervalIndex::new();
            let mut segs: Vec<(u64, u64, u32, Touch)> = Vec::new();
            // Mostly-reader, balanced and mostly-writer populations.
            let reader_pct = [90, 50, 10][round % 3];
            for item in 0..40u32 {
                for _ in 0..2 {
                    let start = next() % 64;
                    let len = 1 + next() % 8;
                    let touch = Touch { reader: next() % 100 < reader_pct, local: next() % 3 == 0 };
                    segs.push((start, start + len, item, touch));
                    idx.insert(item, start, start + len, touch);
                }
            }
            let mut naive: Vec<(u32, u32)> = Vec::new();
            for i in 0..segs.len() {
                for j in (i + 1)..segs.len() {
                    let (a, b) = (segs[i], segs[j]);
                    let overlap = a.2 != b.2 && a.0 < b.1 && b.0 < a.1;
                    if overlap && !(a.3.reader && b.3.reader || a.3.local && b.3.local) {
                        naive.push((a.2.min(b.2), a.2.max(b.2)));
                    }
                }
            }
            naive.sort_unstable();
            naive.dedup();
            assert!(!naive.is_empty());
            assert_eq!(idx.overlapping_pairs(), naive, "round {round}");
        }
    }
}

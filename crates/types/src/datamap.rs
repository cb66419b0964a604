//! Data-maps: the segment-list representation of MPI datatypes.
//!
//! The paper's DN-Analyzer represents every datatype as a *data-map*, "a
//! series of segments, each containing the displacement and the length of a
//! contiguous chunk of the buffer" (§IV-C1c). `MPI_INT` is `{(0,4)}`; a
//! derived type of two ints separated by an 8-byte gap is `{(0,4),(12,4)}`.
//!
//! A [`DataMap`] here is a normalized, sorted list of non-overlapping,
//! non-adjacent [`Segment`]s, plus an *extent* (the stride used when the
//! type is repeated `count` times, mirroring MPI's type extent). All
//! byte-precise overlap reasoning in the checker goes through this type.

use crate::region::MemRegion;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One contiguous chunk of a data-map: `len` bytes at offset `disp` from
/// the buffer origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Displacement from the buffer origin, in bytes.
    pub disp: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// Creates a segment of `len` bytes at displacement `disp`.
    #[inline]
    pub fn new(disp: u64, len: u64) -> Self {
        Self { disp, len }
    }

    /// One byte past the segment end.
    #[inline]
    pub fn end(self) -> u64 {
        self.disp + self.len
    }
}

/// A normalized datatype layout: sorted, merged segments plus an extent.
///
/// The extent is the distance between consecutive elements when the type is
/// tiled by a count (MPI's `MPI_Type_get_extent`); for a simple contiguous
/// type it equals the total length, for a vector type it includes the
/// trailing stride gap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataMap {
    segments: Vec<Segment>,
    extent: u64,
}

impl DataMap {
    /// A contiguous map of `len` bytes at displacement 0.
    pub fn contiguous(len: u64) -> Self {
        if len == 0 {
            return Self::empty();
        }
        Self { segments: vec![Segment::new(0, len)], extent: len }
    }

    /// The empty map (zero-size datatype).
    pub fn empty() -> Self {
        Self { segments: Vec::new(), extent: 0 }
    }

    /// Builds a map from arbitrary segments, normalizing them (sorting,
    /// merging overlapping/adjacent chunks). The extent defaults to the
    /// span `max(end)`; use [`DataMap::with_extent`] to override it.
    pub fn from_segments(segs: impl IntoIterator<Item = Segment>) -> Self {
        let mut segs: Vec<Segment> = segs.into_iter().filter(|s| s.len > 0).collect();
        segs.sort_by_key(|s| s.disp);
        let mut merged: Vec<Segment> = Vec::with_capacity(segs.len());
        for s in segs {
            match merged.last_mut() {
                Some(last) if s.disp <= last.end() => {
                    last.len = last.len.max(s.end() - last.disp);
                }
                _ => merged.push(s),
            }
        }
        let extent = merged.last().map_or(0, |s| s.end());
        Self { segments: merged, extent }
    }

    /// Overrides the extent (must be at least the span of the segments).
    ///
    /// # Panics
    /// Panics if `extent` is smaller than the last segment's end.
    pub fn with_extent(mut self, extent: u64) -> Self {
        let span = self.span();
        assert!(extent >= span, "extent {extent} smaller than span {span}");
        self.extent = extent;
        self
    }

    /// The normalized segments.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The extent (tiling stride).
    #[inline]
    pub fn extent(&self) -> u64 {
        self.extent
    }

    /// Distance from origin to the end of the last segment.
    pub fn span(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.end())
    }

    /// Total number of bytes covered (sum of segment lengths).
    pub fn size(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Whether the map covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Whether the map is one segment from its origin to its extent, so
    /// that its tiles touch and any tiling of it is one segment too.
    pub fn is_dense(&self) -> bool {
        matches!(self.segments[..], [s] if s.disp == 0 && s.len == self.extent)
    }

    /// The map obtained by repeating this type `count` times at extent
    /// stride — the layout of an MPI call with a `count` argument.
    pub fn tiled(&self, count: u64) -> DataMap {
        if count == 0 || self.is_empty() {
            return DataMap::empty();
        }
        if count == 1 {
            return self.clone();
        }
        if self.is_dense() {
            return DataMap::contiguous(self.extent * count);
        }
        let mut segs = Vec::with_capacity(self.segments.len() * count as usize);
        for i in 0..count {
            let off = i * self.extent;
            segs.extend(self.segments.iter().map(|s| Segment::new(s.disp + off, s.len)));
        }
        DataMap::from_segments(segs).with_extent(self.extent * count)
    }

    /// The map shifted by `disp` bytes — the footprint of this layout when
    /// applied at displacement `disp` into a buffer.
    pub fn shifted(&self, disp: u64) -> DataMap {
        DataMap {
            segments: self.segments.iter().map(|s| Segment::new(s.disp + disp, s.len)).collect(),
            extent: self.extent + disp,
        }
    }

    /// Concatenation used for `type_struct`: each `(disp, map)` places a
    /// child map at the given displacement.
    pub fn structured(fields: impl IntoIterator<Item = (u64, DataMap)>) -> DataMap {
        let mut segs = Vec::new();
        let mut max_end = 0;
        for (disp, map) in fields {
            max_end = max_end.max(disp + map.extent());
            segs.extend(map.segments.iter().map(|s| Segment::new(s.disp + disp, s.len)));
        }
        let dm = DataMap::from_segments(segs);
        let span = dm.span();
        dm.with_extent(max_end.max(span))
    }

    /// The absolute memory footprint of this map applied at `base`.
    pub fn regions_at(&self, base: u64) -> impl Iterator<Item = MemRegion> + '_ {
        self.segments.iter().map(move |s| MemRegion::new(base + s.disp, s.len))
    }

    /// The bounding region `[base + first.disp, base + span)`.
    pub fn bounding_region_at(&self, base: u64) -> MemRegion {
        match (self.segments.first(), self.segments.last()) {
            (Some(f), Some(l)) => MemRegion::new(base + f.disp, l.end() - f.disp),
            _ => MemRegion::new(base, 0),
        }
    }

    /// Whether this map at `base_a` shares any byte with `other` at
    /// `base_b` (both in the same address space).
    pub fn overlaps_at(&self, base_a: u64, other: &DataMap, base_b: u64) -> bool {
        // Both segment lists are sorted: sweep in O(|a| + |b|).
        let mut ia = 0;
        let mut ib = 0;
        while ia < self.segments.len() && ib < other.segments.len() {
            let a = self.segments[ia];
            let b = other.segments[ib];
            let ra = MemRegion::new(base_a + a.disp, a.len);
            let rb = MemRegion::new(base_b + b.disp, b.len);
            if ra.overlaps(rb) {
                return true;
            }
            if ra.end() <= rb.end() {
                ia += 1;
            } else {
                ib += 1;
            }
        }
        false
    }

    /// Whether this map at `base` intersects the plain region `r`.
    pub fn overlaps_region_at(&self, base: u64, r: MemRegion) -> bool {
        self.regions_at(base).any(|seg| seg.overlaps(r))
    }
}

impl fmt::Display for DataMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {})", s.disp, s.len)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_examples() {
        // MPI_INT is {(0, 4)}.
        let int = DataMap::contiguous(4);
        assert_eq!(int.segments(), &[Segment::new(0, 4)]);
        assert_eq!(int.to_string(), "{(0, 4)}");
        // Two MPI_INTs separated by an 8-byte gap: {(0,4), (12,4)}.
        let two = DataMap::from_segments([Segment::new(0, 4), Segment::new(12, 4)]);
        assert_eq!(two.to_string(), "{(0, 4), (12, 4)}");
        assert_eq!(two.size(), 8);
        assert_eq!(two.span(), 16);
    }

    #[test]
    fn normalization_merges_adjacent_and_overlapping() {
        let m = DataMap::from_segments([
            Segment::new(8, 4),
            Segment::new(0, 4),
            Segment::new(4, 4),
            Segment::new(10, 6),
        ]);
        assert_eq!(m.segments(), &[Segment::new(0, 16)]);
    }

    #[test]
    fn zero_length_segments_dropped() {
        let m = DataMap::from_segments([Segment::new(5, 0), Segment::new(2, 3)]);
        assert_eq!(m.segments(), &[Segment::new(2, 3)]);
        assert!(DataMap::from_segments([Segment::new(9, 0)]).is_empty());
    }

    #[test]
    fn tiling_contiguous() {
        let int = DataMap::contiguous(4);
        let four = int.tiled(4);
        assert_eq!(four.segments(), &[Segment::new(0, 16)]);
        assert_eq!(four.extent(), 16);
        assert!(int.tiled(0).is_empty());
    }

    #[test]
    fn tiling_with_gap_extent() {
        // A vector-ish type: 4 bytes data, extent 16 (12-byte gap).
        let v = DataMap::contiguous(4).with_extent(16);
        let t = v.tiled(3);
        assert_eq!(t.segments(), &[Segment::new(0, 4), Segment::new(16, 4), Segment::new(32, 4)]);
        assert_eq!(t.extent(), 48);
    }

    #[test]
    fn shifted_footprint() {
        let m = DataMap::from_segments([Segment::new(0, 4), Segment::new(12, 4)]);
        let s = m.shifted(100);
        assert_eq!(s.segments(), &[Segment::new(100, 4), Segment::new(112, 4)]);
    }

    #[test]
    fn structured_layout() {
        // struct { int a; /* 4-byte pad */ double b; }
        let s = DataMap::structured([(0, DataMap::contiguous(4)), (8, DataMap::contiguous(8))]);
        assert_eq!(s.segments(), &[Segment::new(0, 4), Segment::new(8, 8)]);
        assert_eq!(s.extent(), 16);
    }

    #[test]
    fn overlap_detection() {
        let a = DataMap::from_segments([Segment::new(0, 4), Segment::new(12, 4)]);
        let b = DataMap::contiguous(4);
        assert!(a.overlaps_at(0, &b, 0));
        assert!(!a.overlaps_at(0, &b, 4), "gap bytes do not overlap");
        assert!(a.overlaps_at(0, &b, 12));
        assert!(a.overlaps_at(0, &b, 15));
        assert!(!a.overlaps_at(0, &b, 16));
        // Shifted bases.
        assert!(a.overlaps_at(100, &b, 112));
        assert!(!a.overlaps_at(100, &b, 104));
    }

    #[test]
    fn overlaps_region() {
        let a = DataMap::from_segments([Segment::new(0, 4), Segment::new(12, 4)]);
        assert!(a.overlaps_region_at(0, MemRegion::new(2, 2)));
        assert!(!a.overlaps_region_at(0, MemRegion::new(4, 8)));
        assert!(a.overlaps_region_at(0, MemRegion::new(8, 5)));
    }

    #[test]
    fn bounding_region() {
        let a = DataMap::from_segments([Segment::new(4, 4), Segment::new(12, 4)]);
        assert_eq!(a.bounding_region_at(100), MemRegion::new(104, 12));
        assert_eq!(DataMap::empty().bounding_region_at(7), MemRegion::new(7, 0));
    }

    fn arb_datamap() -> impl Strategy<Value = DataMap> {
        proptest::collection::vec((0u64..200, 1u64..16), 0..6)
            .prop_map(|v| DataMap::from_segments(v.into_iter().map(|(d, l)| Segment::new(d, l))))
    }

    proptest! {
        #[test]
        fn normalized_invariants(m in arb_datamap()) {
            // Sorted, non-overlapping, non-adjacent, no zero-length.
            for w in m.segments().windows(2) {
                prop_assert!(w[0].end() < w[1].disp);
            }
            for s in m.segments() {
                prop_assert!(s.len > 0);
            }
            prop_assert!(m.extent() >= m.span());
        }

        #[test]
        fn overlap_symmetric(a in arb_datamap(), b in arb_datamap(), ba in 0u64..64, bb in 0u64..64) {
            prop_assert_eq!(a.overlaps_at(ba, &b, bb), b.overlaps_at(bb, &a, ba));
        }

        #[test]
        fn overlap_matches_naive(a in arb_datamap(), b in arb_datamap(), ba in 0u64..64, bb in 0u64..64) {
            let naive = a.regions_at(ba).any(|ra| b.regions_at(bb).any(|rb| ra.overlaps(rb)));
            prop_assert_eq!(a.overlaps_at(ba, &b, bb), naive);
        }

        #[test]
        fn tiled_size_scales(m in arb_datamap(), count in 0u64..5) {
            // With extent >= span, tiles never overlap, so size scales linearly.
            let t = m.tiled(count);
            prop_assert_eq!(t.size(), m.size() * count);
        }

        #[test]
        fn self_overlap_iff_nonempty(m in arb_datamap(), base in 0u64..64) {
            prop_assert_eq!(m.overlaps_at(base, &m, base), !m.is_empty());
        }
    }
}

//! Lane-major (slot-packed) arena addressing.
//!
//! The GPU algorithm keeps a warp's threads uniform across
//! operating-point/stimuli *slots*: one gate evaluation advances many slots
//! per instruction. [`LaneLayout`] is the CPU realization of that memory
//! shape. Slots are grouped into *lane groups* of `L` consecutive slots,
//! and within a group one net's `L` waveforms are stored **contiguously**
//! (net-major within the group), so a gate's per-lane data is one dense
//! run:
//!
//! ```text
//! slot-major (L = 1):            lane-major (L = 4, 2 nets):
//!   s0·n0  s0·n1 │ s1·n0  s1·n1     n0: s0 s1 s2 s3 │ n1: s0 s1 s2 s3
//!   └─ one slot ─┘                  └──── one lane group (4 slots) ────┘
//! ```
//!
//! `L = 1` degenerates *exactly* to the slot-major layout (`index =
//! slot · nodes + net`), which is what makes the lane-packed engine
//! bit-for-bit comparable to the scalar reference. A slot count that is
//! not a multiple of `L` produces one *partial tail group* of width `w <
//! L`; the tail packs its runs at width `w`, so the arena stays dense
//! (`slots · nodes` entries total, same as slot-major).
//!
//! Lane *masks* (`u64`, bit `k` ↔ lane `k`) ride on this layout: the
//! claim bitmap of [`crate::WaveformArena`] stores 64 claims per atomic
//! word, and a full group's run never straddles a word when `L` is a
//! power of two ≤ 64, so batch claims are a single `fetch_or`
//! ([`crate::LevelWriter::write_constant_run`]).

/// Addressing for a lane-major waveform arena: `lanes` slots per group
/// over `nodes` nets, `slots` slots total.
///
/// The forward map is
///
/// ```text
/// group g = slot / L,  lane = slot % L,  w = group width (≤ L)
/// index(slot, net) = g·L·nodes + net·w + lane
/// ```
///
/// # Example — lane-major round-trips and degenerates to slot-major
///
/// ```
/// use avfs_waveform::LaneLayout;
///
/// // 2 nets, 5 slots, lane width 4: one full group + a tail of width 1.
/// let lay = LaneLayout::new(4, 2, 5);
/// assert_eq!(lay.groups(), 2);
/// assert_eq!(lay.group_width(0), 4);
/// assert_eq!(lay.group_width(1), 1);
/// // Every (slot, net) maps to a distinct cell and back to its slot.
/// let mut seen = vec![false; lay.entries()];
/// for slot in 0..5 {
///     for net in 0..2 {
///         let idx = lay.index(slot, net);
///         assert!(!seen[idx]);
///         seen[idx] = true;
///         assert_eq!(lay.slot_of(idx), slot);
///     }
/// }
/// assert!(seen.iter().all(|&s| s), "dense: slots × nodes cells");
///
/// // L = 1 is exactly the scalar slot-major layout.
/// let scalar = LaneLayout::new(1, 2, 5);
/// for slot in 0..5 {
///     for net in 0..2 {
///         assert_eq!(scalar.index(slot, net), slot * 2 + net);
///     }
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneLayout {
    lanes: usize,
    nodes: usize,
    slots: usize,
}

impl LaneLayout {
    /// Creates a layout of `lanes`-wide groups over `nodes` nets and
    /// `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64 (lane masks are `u64`), or if
    /// `nodes` is 0.
    pub fn new(lanes: usize, nodes: usize, slots: usize) -> LaneLayout {
        assert!(
            (1..=64).contains(&lanes),
            "lane width {lanes} outside 1..=64"
        );
        assert!(nodes > 0, "layout needs at least one node");
        LaneLayout {
            lanes,
            nodes,
            slots,
        }
    }

    /// The lane width `L` (slots per full group).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Nets per slot.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total slot count.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of lane groups (the last may be a partial tail).
    pub fn groups(&self) -> usize {
        self.slots.div_ceil(self.lanes)
    }

    /// Total arena entries — dense at `slots · nodes`, identical to the
    /// slot-major footprint.
    pub fn entries(&self) -> usize {
        self.slots * self.nodes
    }

    /// Arena entries per **full** group (`L · nodes`); the tail group is
    /// naturally shorter.
    pub fn group_entries(&self) -> usize {
        self.lanes * self.nodes
    }

    /// Width of group `g`: `L` for full groups, `slots − g·L` for the
    /// tail.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `g` is out of range.
    #[inline]
    pub fn group_width(&self, g: usize) -> usize {
        debug_assert!(g < self.groups(), "group {g} out of range");
        self.lanes.min(self.slots - g * self.lanes)
    }

    /// First slot of group `g`.
    #[inline]
    pub fn group_slot(&self, g: usize) -> usize {
        g * self.lanes
    }

    /// Arena index of group `g`'s first cell.
    #[inline]
    pub fn group_base(&self, g: usize) -> usize {
        g * self.lanes * self.nodes
    }

    /// Arena index of the first lane of net `net` in group `g` — the
    /// start of that net's contiguous lane run (length
    /// [`LaneLayout::group_width`]). For full power-of-two-width groups
    /// the start is a multiple of `L`, so the run never straddles a
    /// 64-bit claim word.
    #[inline]
    pub fn run_start(&self, g: usize, net: usize) -> usize {
        debug_assert!(net < self.nodes, "net {net} out of range");
        self.group_base(g) + net * self.group_width(g)
    }

    /// Arena index of `(slot, net)`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `slot` or `net` is out of range.
    #[inline]
    pub fn index(&self, slot: usize, net: usize) -> usize {
        debug_assert!(slot < self.slots, "slot {slot} out of range");
        let g = slot / self.lanes;
        let lane = slot % self.lanes;
        self.run_start(g, net) + lane
    }

    /// The slot that owns arena cell `idx` — the inverse of
    /// [`LaneLayout::index`] projected onto slots, used to attribute
    /// per-cell events (e.g. overflow injection keys) back to stimuli.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `idx` is out of range.
    #[inline]
    pub fn slot_of(&self, idx: usize) -> usize {
        debug_assert!(idx < self.entries(), "cell {idx} out of range");
        let per_group = self.group_entries();
        let g = idx / per_group;
        let r = idx % per_group;
        let lane = r % self.group_width(g);
        g * self.lanes + lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_is_slot_major() {
        let lay = LaneLayout::new(1, 7, 13);
        for slot in 0..13 {
            for net in 0..7 {
                assert_eq!(lay.index(slot, net), slot * 7 + net);
                assert_eq!(lay.slot_of(slot * 7 + net), slot);
            }
        }
        assert_eq!(lay.groups(), 13);
        assert_eq!(lay.group_width(12), 1);
    }

    #[test]
    fn index_is_a_bijection_with_partial_tail() {
        // 5 nets, 11 slots, L = 4 → groups of width 4, 4, 3.
        let lay = LaneLayout::new(4, 5, 11);
        assert_eq!(lay.groups(), 3);
        assert_eq!(lay.group_width(2), 3);
        assert_eq!(lay.group_slot(2), 8);
        assert_eq!(lay.entries(), 55);
        let mut seen = vec![false; lay.entries()];
        for slot in 0..11 {
            for net in 0..5 {
                let idx = lay.index(slot, net);
                assert!(!seen[idx], "cell {idx} mapped twice");
                seen[idx] = true;
                assert_eq!(lay.slot_of(idx), slot, "slot_of inverts index");
            }
        }
        assert!(seen.iter().all(|&s| s), "layout is dense");
    }

    #[test]
    fn runs_are_contiguous_lanes_of_one_net() {
        let lay = LaneLayout::new(8, 3, 20); // widths 8, 8, 4
        for g in 0..lay.groups() {
            let w = lay.group_width(g);
            for net in 0..3 {
                let start = lay.run_start(g, net);
                for lane in 0..w {
                    assert_eq!(lay.index(lay.group_slot(g) + lane, net), start + lane);
                }
            }
        }
    }

    #[test]
    fn full_power_of_two_runs_never_straddle_claim_words() {
        for &lanes in &[1usize, 2, 4, 8, 16, 32, 64] {
            let lay = LaneLayout::new(lanes, 5, lanes * 3);
            for g in 0..lay.groups() {
                for net in 0..5 {
                    let start = lay.run_start(g, net);
                    let end = start + lay.group_width(g) - 1;
                    assert_eq!(start / 64, end / 64, "L={lanes} g={g} net={net}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane width")]
    fn rejects_zero_lanes() {
        let _ = LaneLayout::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "lane width")]
    fn rejects_oversized_lanes() {
        let _ = LaneLayout::new(65, 1, 1);
    }
}

//! A capacity-bounded `(slot, net)` waveform arena.
//!
//! The GPU algorithm of Holst et al. \[25\] stores all waveforms of a
//! launch in one flat global-memory allocation: a fixed-size buffer per
//! `(slot, net)` cell, with an overflow flag raised when a gate's output
//! history would run past its buffer. This module is the CPU realization of
//! that layout: storage for `entries` waveforms of at most `capacity`
//! transitions each, dense in one `Vec<f64>`, with explicit overflow
//! reporting instead of reallocation. The simulation engine sizes the
//! arena from its memory budget, quarantines slots whose gates overflow,
//! and re-runs them against a larger arena — so a glitch-heavy slot can
//! never abort or bloat a whole batch.
//!
//! # Concurrent access
//!
//! A single owner fills cells through `&mut` ([`WaveformArena::write`],
//! [`WaveformArena::copy_cell`]). Several workers populate the arena
//! through [`WaveformArena::level_writer`]: a shared [`LevelWriter`] for
//! one *write epoch* (one level of a levelized simulation). Any worker may
//! write any cell **once** per epoch; a per-cell atomic claim bit makes
//! each cell's writer exclusive, so scattered work-stealing schedules
//! (where the set of written cells is disjoint but not contiguous) can
//! write in place concurrently.

use crate::{CapacityOverflow, Waveform, WaveformRead};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A `times` lane below this size always comes from the allocator's heap.
const HEAP_LANE_BYTES: usize = 128 << 10;

/// What a `times` lane of at least [`HEAP_LANE_BYTES`] reserves, so that
/// dropping the arena gives its pages back to the OS whatever the process
/// allocated before.
///
/// glibc's malloc serves a request from a private mapping, unmapped on
/// free, once it reaches the *mmap threshold* — 128 KiB at first, then
/// the size of the largest mapped block freed so far, up to 32 MiB. A
/// lane between the two is mapped the first time and carved from the heap
/// the next, where it stays after the drop; whether a later arena can
/// reuse that hole depends on what else was allocated in between, so the
/// peak RSS of a process that builds several arenas in turn flips between
/// one lane and two (perfbench `grid_small`: 27.8 or 44 MiB run to run).
/// Just over the ceiling the lane is mapped every time. The surplus is
/// address space only — zeroed pages the arena never touches are never
/// resident — and other allocators see one larger request.
const MAPPED_LANE_BYTES: usize = (32 << 20) + 1;

/// Flat bounded storage for a batch of waveforms.
///
/// Entry `i` occupies `times[i * capacity .. i * capacity + len[i]]`; the
/// engine maps `(slot, net)` to entries through [`crate::LaneLayout`].
/// The default arena is empty and owns no storage — what a long-lived
/// owner holds until the first [`WaveformArena::reshape`].
#[derive(Debug, Default)]
pub struct WaveformArena {
    capacity: usize,
    initial: Vec<bool>,
    len: Vec<u32>,
    times: Vec<f64>,
    /// One claim bit per entry (64 per word), reset at the start of each
    /// [`Self::level_writer`] epoch. The word width matches the lane-group
    /// width of [`crate::LaneLayout`], so a full lane run's claims live in
    /// one word and batch claims are a single `fetch_or`.
    claims: Vec<AtomicU64>,
    /// Peak transitions written to any entry since construction or the
    /// last [`Self::reshape`]; atomic so concurrent writers can fold
    /// into it (max is order-independent, hence deterministic).
    peak: AtomicUsize,
}

impl Clone for WaveformArena {
    fn clone(&self) -> WaveformArena {
        WaveformArena {
            capacity: self.capacity,
            initial: self.initial.clone(),
            len: self.len.clone(),
            times: self.times.clone(),
            claims: self
                .claims
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            peak: AtomicUsize::new(self.peak.load(Ordering::Relaxed)),
        }
    }
}

/// A borrowed waveform inside a [`WaveformArena`].
#[derive(Debug, Clone, Copy)]
pub struct WaveformView<'a> {
    initial: bool,
    times: &'a [f64],
}

impl WaveformRead for WaveformView<'_> {
    fn initial_value(&self) -> bool {
        self.initial
    }
    fn transitions(&self) -> &[f64] {
        self.times
    }
}

impl WaveformArena {
    /// Allocates an arena of `entries` waveforms with room for `capacity`
    /// transitions each. All entries start as constant-low signals.
    pub fn new(entries: usize, capacity: usize) -> WaveformArena {
        let cells = entries * capacity;
        let reserved = if cells * std::mem::size_of::<f64>() < HEAP_LANE_BYTES {
            cells
        } else {
            cells.max(MAPPED_LANE_BYTES.div_ceil(std::mem::size_of::<f64>()))
        };
        let mut times = vec![0.0; reserved];
        times.truncate(cells);
        WaveformArena {
            capacity,
            initial: vec![false; entries],
            len: vec![0; entries],
            times,
            claims: (0..entries.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            peak: AtomicUsize::new(0),
        }
    }

    /// Number of waveform entries.
    pub fn entries(&self) -> usize {
        self.len.len()
    }

    /// Per-entry transition capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resets every entry to a constant-low signal (storage is retained;
    /// the peak-occupancy watermark is kept for diagnostics).
    pub fn reset(&mut self) {
        self.initial.fill(false);
        self.len.fill(0);
        for word in &mut self.claims {
            *word.get_mut() = 0;
        }
    }

    /// Re-purposes the arena for `entries` waveforms of `capacity`
    /// transitions each and starts a new peak-occupancy watermark — what
    /// a long-lived owner calls between launches instead of
    /// [`Self::new`]. Storage is kept whenever the new shape fits the
    /// existing allocations (an unchanged shape touches no cell at all),
    /// so the `times` lane is neither re-allocated, re-zeroed nor
    /// re-faulted; a shape that does not fit replaces the arena with a
    /// fresh one. Returns whether it had to allocate.
    ///
    /// Cells are valid but stale afterwards (a changed shape leaves them
    /// constant-low, an unchanged one leaves them as they were): call
    /// [`Self::reset`] before use, as after any earlier batch.
    pub fn reshape(&mut self, entries: usize, capacity: usize) -> bool {
        *self.peak.get_mut() = 0;
        if entries == self.entries() && capacity == self.capacity {
            return false;
        }
        let cells = entries
            .checked_mul(capacity)
            .expect("arena shape fits usize");
        if cells > self.times.capacity() || entries > self.len.capacity() {
            // Release the old lanes before asking for larger ones, so
            // the two never coexist.
            *self = WaveformArena::default();
            *self = WaveformArena::new(entries, capacity);
            return true;
        }
        self.capacity = capacity;
        self.initial.resize(entries, false);
        self.len.resize(entries, 0);
        self.times.resize(cells, 0.0);
        self.claims
            .resize_with(entries.div_ceil(64), || AtomicU64::new(0));
        // Old lengths are meaningless under the new cell stride.
        self.reset();
        false
    }

    /// A read view of entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: usize) -> WaveformView<'_> {
        let start = idx * self.capacity;
        WaveformView {
            initial: self.initial[idx],
            times: &self.times[start..start + self.len[idx] as usize],
        }
    }

    /// Writes a waveform into entry `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] (leaving the entry untouched) if the
    /// waveform has more than [`Self::capacity`] transitions.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn write(&mut self, idx: usize, waveform: &Waveform) -> Result<(), CapacityOverflow> {
        let transitions = waveform.transitions();
        if transitions.len() > self.capacity {
            return Err(CapacityOverflow {
                capacity: self.capacity,
            });
        }
        let start = idx * self.capacity;
        self.initial[idx] = waveform.initial_value();
        self.len[idx] = transitions.len() as u32;
        self.times[start..start + transitions.len()].copy_from_slice(transitions);
        self.peak.fetch_max(transitions.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Copies entry `src` over entry `dst` within the arena — the cheap
    /// passthrough for identity stages (e.g. primary-output observation
    /// nodes), avoiding the owned-[`Waveform`] round trip.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `src == dst`.
    pub fn copy_cell(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "copy_cell requires distinct cells");
        self.initial[dst] = self.initial[src];
        let n = self.len[src];
        self.len[dst] = n;
        self.times.copy_within(
            src * self.capacity..src * self.capacity + n as usize,
            dst * self.capacity,
        );
    }

    /// Copies entry `idx` out into an owned [`Waveform`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn to_waveform(&self, idx: usize) -> Waveform {
        let view = self.view(idx);
        Waveform {
            initial: view.initial,
            transitions: view.times.to_vec(),
        }
    }

    /// The largest transition count written to any entry since
    /// construction or the last [`Self::reshape`] — the watermark the
    /// engine reports as peak arena occupancy (survives [`Self::reset`]).
    /// Writes through a [`LevelWriter`] count once their writer reports
    /// them with [`LevelWriter::note_occupancy`].
    pub fn peak_occupancy(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Begins a concurrent write epoch: clears every claim bit and
    /// returns a shared [`LevelWriter`] through which any worker may
    /// write each cell at most once. See [`LevelWriter`] for the access
    /// discipline.
    ///
    /// `hook` is the fault-injection seam (`None` on every normal epoch):
    /// when present, every *non-empty* [`LevelWriter::write`] consults
    /// `hook(idx)` first and reports [`CapacityOverflow`] — cell
    /// untouched, unclaimed — when it returns `true`, exactly as if the
    /// waveform had outgrown the cell. The hook must be pure per `(epoch,
    /// idx)` (it runs on whichever worker owns the task), and it is never
    /// consulted for empty writes or
    /// [`LevelWriter::write_constant_run`], so a quiet cell can not be
    /// forced to overflow — the activity-gating invariant ("a quiet task
    /// cannot overflow") survives injection.
    pub fn level_writer<'a>(&'a mut self, hook: Option<&'a OverflowHook<'a>>) -> LevelWriter<'a> {
        for word in &mut self.claims {
            *word.get_mut() = 0;
        }
        let entries = self.len.len();
        LevelWriter {
            capacity: self.capacity,
            entries,
            initial: self.initial.as_mut_ptr(),
            len: self.len.as_mut_ptr(),
            times: self.times.as_mut_ptr(),
            claims: &self.claims,
            peak: &self.peak,
            overflow_hook: hook,
            _arena: std::marker::PhantomData,
        }
    }
}

/// A forced-overflow predicate for [`WaveformArena::level_writer`]:
/// `hook(cell index) == true` makes that cell's write report
/// [`CapacityOverflow`]. Installed by fault-injection harnesses; `Sync`
/// because it is consulted from pool workers.
pub type OverflowHook<'h> = dyn Fn(usize) -> bool + Sync + 'h;

/// A shared handle for one concurrent write epoch of a [`WaveformArena`]
/// (one *level* of a levelized simulation), created by
/// [`WaveformArena::level_writer`].
///
/// # Access discipline
///
/// * Every cell may be **written at most once** per epoch. Writes claim
///   the cell's atomic bit first (`fetch_or`, acquire-release); exactly
///   one writer wins, so the subsequent plain stores are exclusive. A
///   second write of the same cell panics instead of racing.
/// * Reads ([`LevelWriter::view`] and the lane-run forms
///   [`LevelWriter::quiet_run`] and [`LevelWriter::initial_run`]) must
///   target cells that are **not written in this epoch**. In a
///   levelized schedule this holds by
///   construction: a level's gates read only fanin cells of strictly
///   earlier levels, and each level writes only its own gates' outputs.
///   The claim bit is checked on every read and panics on a violation;
///   this is a best-effort tripwire — the levelization invariant, not the
///   check, is the memory-model argument (a read can only race with a
///   write if that invariant is already broken).
///
/// The writer is `Send + Sync`; it borrows the arena mutably, so no other
/// access to the arena is possible until it is dropped — the epoch's
/// *barrier* is simply the end of the borrow.
pub struct LevelWriter<'a> {
    capacity: usize,
    entries: usize,
    initial: *mut bool,
    len: *mut u32,
    times: *mut f64,
    claims: &'a [AtomicU64],
    peak: &'a AtomicUsize,
    /// Fault-injection forced-overflow predicate (see
    /// [`WaveformArena::level_writer`]); `None` on every normal
    /// epoch, so the unarmed cost is one discriminant branch per write.
    overflow_hook: Option<&'a OverflowHook<'a>>,
    _arena: std::marker::PhantomData<&'a mut WaveformArena>,
}

impl std::fmt::Debug for LevelWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelWriter")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries)
            .field("hooked", &self.overflow_hook.is_some())
            .finish_non_exhaustive()
    }
}

// SAFETY: all mutation goes through the per-cell claim protocol (one
// exclusive winner per cell per epoch); reads are claim-checked. The raw
// pointers are valid for the arena borrow 'a.
unsafe impl Send for LevelWriter<'_> {}
// SAFETY: shared references only permit claim-protocol-mediated access
// (same argument as Send above): `write`/`write_constant_run` first win
// the per-cell atomic claim, and `view`/`quiet_run`/`initial_run` assert
// the cells are unclaimed for the epoch, so `&LevelWriter` is safe to share.
unsafe impl Sync for LevelWriter<'_> {}

impl LevelWriter<'_> {
    /// Per-entry transition capacity (same as the parent arena's).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cells addressable through this writer.
    pub fn entries(&self) -> usize {
        self.entries
    }

    #[inline]
    fn is_claimed(&self, idx: usize) -> bool {
        self.claims[idx / 64].load(Ordering::Acquire) & (1 << (idx % 64)) != 0
    }

    /// Claims cell `idx`; returns whether this caller won the claim.
    #[inline]
    fn claim(&self, idx: usize) -> bool {
        let bit = 1u64 << (idx % 64);
        self.claims[idx / 64].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Claims every cell `start + k` for each set bit `k` of `mask`, using
    /// one `fetch_or` per touched claim word (full lane runs are word-
    /// aligned by [`crate::LaneLayout`], so the common case is a single
    /// atomic op; partial tails may straddle two words). Returns the lane
    /// bits that were **already claimed** — `0` means this caller won every
    /// requested cell.
    #[inline]
    fn claim_run(&self, start: usize, mask: u64) -> u64 {
        let mut lost = 0u64;
        let mut rem = mask;
        while rem != 0 {
            let k = rem.trailing_zeros() as usize;
            let idx = start + k;
            let word = idx / 64;
            let shift = idx % 64;
            // Lane bits k .. k + (64 − shift) land in this claim word.
            let span = 64 - shift;
            let window = if span >= 64 {
                rem
            } else {
                rem & (((1u64 << span) - 1) << k)
            };
            let claim_bits = (window >> k) << shift;
            let prev = self.claims[word].fetch_or(claim_bits, Ordering::AcqRel);
            lost |= ((prev & claim_bits) >> shift) << k;
            rem &= !window;
        }
        lost
    }

    /// The already-claimed bits among cells `start .. start + width`
    /// (lane bit `k` ↔ cell `start + k`), read with acquire ordering —
    /// the batch form of [`LevelWriter::is_claimed`].
    #[inline]
    fn claimed_bits(&self, start: usize, width: usize) -> u64 {
        debug_assert!(width <= 64);
        let mut out = 0u64;
        let mut k = 0;
        while k < width {
            let idx = start + k;
            let word = idx / 64;
            let shift = idx % 64;
            let span = (64 - shift).min(width - k);
            let loaded = self.claims[word].load(Ordering::Acquire);
            let window = if span >= 64 {
                loaded >> shift
            } else {
                (loaded >> shift) & ((1u64 << span) - 1)
            };
            out |= window << k;
            k += span;
        }
        out
    }

    /// A read view of cell `idx`, which must not be written in this epoch
    /// (see the access discipline above).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the cell was already written in
    /// this epoch.
    #[inline]
    pub fn view(&self, idx: usize) -> WaveformView<'_> {
        assert!(idx < self.entries, "arena cell {idx} out of range");
        assert!(
            !self.is_claimed(idx),
            "read of arena cell {idx} written in the same level epoch"
        );
        // SAFETY: idx is in range; the cell is unclaimed, and under the
        // levelization contract no writer will claim it during this epoch,
        // so the plain reads cannot race.
        unsafe {
            WaveformView {
                initial: *self.initial.add(idx),
                times: std::slice::from_raw_parts(
                    self.times.add(idx * self.capacity),
                    *self.len.add(idx) as usize,
                ),
            }
        }
    }

    /// The *quiet bits* of the lane run `start .. start + width`: bit `k`
    /// of the result is set iff cell `start + k` is *quiet* — zero
    /// transitions, i.e. a constant signal for the whole simulation
    /// window. A gate whose fanin cells are all quiet has a constant
    /// output and needs no waveform evaluation. In a lane-major arena one
    /// net's waveforms for a whole lane group are contiguous
    /// ([`crate::LaneLayout::run_start`]); a width-1 run is the single
    /// cell. Same access discipline as [`LevelWriter::view`]: the run
    /// must not be written in this epoch.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the run leaves the arena, or any cell of
    /// the run was already written in this epoch.
    #[inline]
    pub fn quiet_run(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64, "lane run width {width} exceeds 64");
        assert!(
            start + width <= self.entries,
            "lane run {start}+{width} out of range"
        );
        assert_eq!(
            self.claimed_bits(start, width),
            0,
            "read of arena run {start}+{width} written in the same level epoch"
        );
        let mut out = 0u64;
        for k in 0..width {
            // SAFETY: the run is in range and unclaimed; under the
            // levelization contract no writer will claim it during this
            // epoch, so the plain reads cannot race.
            if unsafe { *self.len.add(start + k) } == 0 {
                out |= 1 << k;
            }
        }
        out
    }

    /// The packed *initial values* of the lane run `start .. start +
    /// width`: bit `k` of the result is cell `start + k`'s initial logic
    /// value. Together with [`LevelWriter::quiet_run`] this feeds the
    /// bit-parallel boolean kernel
    /// (`LogicFunction::eval_lanes`): all-quiet fanin runs reduce a gate
    /// to one word-wide logic op per input. Same access discipline as
    /// [`LevelWriter::view`].
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the run leaves the arena, or any cell of
    /// the run was already written in this epoch.
    #[inline]
    pub fn initial_run(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64, "lane run width {width} exceeds 64");
        assert!(
            start + width <= self.entries,
            "lane run {start}+{width} out of range"
        );
        assert_eq!(
            self.claimed_bits(start, width),
            0,
            "read of arena run {start}+{width} written in the same level epoch"
        );
        let mut out = 0u64;
        for k in 0..width {
            // SAFETY: in range, unclaimed, and not written this epoch per
            // the levelization contract — plain reads cannot race.
            if unsafe { *self.initial.add(start + k) } {
                out |= 1 << k;
            }
        }
        out
    }

    /// Writes constant signals into the masked lanes of a run: for every
    /// set bit `k` of `mask`, cell `start + k` becomes a constant of logic
    /// value `bit k of values`. The whole run's claims are won with at
    /// most two `fetch_or`s (one for a word-aligned full group) — the
    /// quiet-cell fast path. Per cell it is equivalent to
    /// `write(idx, value, &[])` but infallible: a constant (zero
    /// transitions) fits any capacity, so no overflow is possible.
    /// Unmasked lanes are untouched and stay unclaimed.
    ///
    /// # Panics
    ///
    /// Panics if the masked run leaves the arena or any masked cell was
    /// already written in this epoch.
    pub fn write_constant_run(&self, start: usize, mask: u64, values: u64) {
        if mask == 0 {
            return;
        }
        let top = 63 - mask.leading_zeros() as usize;
        assert!(
            start + top < self.entries,
            "lane run {start}+{top} out of range"
        );
        let lost = self.claim_run(start, mask);
        assert!(
            lost == 0,
            "arena run {start} (lanes {lost:#x}) written twice within one level epoch"
        );
        let mut rem = mask;
        while rem != 0 {
            let k = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            // SAFETY: this caller won the claim for every masked cell, so
            // it has exclusive write access for the rest of the epoch; the
            // indices are in bounds. The peak watermark is untouched —
            // `max(peak, 0)` is the identity.
            unsafe {
                *self.initial.add(start + k) = values >> k & 1 == 1;
                *self.len.add(start + k) = 0;
            }
        }
    }

    /// Writes `transitions` (with initial value `initial`) into cell
    /// `idx`, claiming it for this epoch. The arena's peak-occupancy
    /// watermark is *not* touched — one shared cache line per gate
    /// written is what this path avoids; the caller keeps its own
    /// running maximum of the lengths it wrote and reports it once with
    /// [`LevelWriter::note_occupancy`].
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] (leaving the cell untouched and
    /// unclaimed) if `transitions` exceeds the per-cell capacity.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the cell was already written in
    /// this epoch.
    pub fn write(
        &self,
        idx: usize,
        initial: bool,
        transitions: &[f64],
    ) -> Result<(), CapacityOverflow> {
        assert!(idx < self.entries, "arena cell {idx} out of range");
        if transitions.len() > self.capacity {
            return Err(CapacityOverflow {
                capacity: self.capacity,
            });
        }
        // Injected forced overflow: same observable outcome as a real
        // capacity miss — cell untouched and unclaimed — taken before the
        // claim so quarantine sees a clean cell. Empty writes are exempt
        // (a constant output fits any capacity, hooked or not).
        if let Some(hook) = self.overflow_hook {
            if !transitions.is_empty() && hook(idx) {
                return Err(CapacityOverflow {
                    capacity: self.capacity,
                });
            }
        }
        assert!(
            self.claim(idx),
            "arena cell {idx} written twice within one level epoch"
        );
        // SAFETY: this caller won the claim for idx, so it has exclusive
        // write access to the cell's initial/len/times storage for the
        // rest of the epoch; the ranges are in bounds.
        unsafe {
            *self.initial.add(idx) = initial;
            *self.len.add(idx) = transitions.len() as u32;
            std::ptr::copy_nonoverlapping(
                transitions.as_ptr(),
                self.times.add(idx * self.capacity),
                transitions.len(),
            );
        }
        Ok(())
    }

    /// Folds a worker's running maximum of written transition counts
    /// into the arena's peak-occupancy watermark — called once per
    /// worker per epoch rather than once per write. Max is
    /// order-independent, so the watermark equals what per-write
    /// updates would have produced.
    pub fn note_occupancy(&self, transitions: usize) {
        self.peak.fetch_max(transitions, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_gate_bounded_raw, GateScratch, PinDelays};

    #[test]
    fn round_trips_waveforms() {
        let mut arena = WaveformArena::new(4, 8);
        let w = Waveform::with_transitions(true, vec![1.0, 5.0, 9.0]).unwrap();
        arena.write(2, &w).unwrap();
        assert_eq!(arena.to_waveform(2), w);
        let v = arena.view(2);
        assert!(v.initial_value());
        assert_eq!(v.transitions(), &[1.0, 5.0, 9.0]);
        // Other entries are untouched constants.
        assert_eq!(arena.to_waveform(0), Waveform::constant(false));
        assert_eq!(arena.peak_occupancy(), 3);
    }

    #[test]
    fn write_rejects_oversized() {
        let mut arena = WaveformArena::new(1, 2);
        let w = Waveform::with_transitions(false, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(arena.write(0, &w), Err(CapacityOverflow { capacity: 2 }));
        // Entry unchanged.
        assert_eq!(arena.to_waveform(0), Waveform::constant(false));
    }

    #[test]
    fn reset_clears_entries_but_keeps_peak() {
        let mut arena = WaveformArena::new(2, 4);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0]).unwrap();
        arena.write(1, &w).unwrap();
        arena.reset();
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
        assert_eq!(arena.peak_occupancy(), 2);
    }

    #[test]
    fn reshape_to_a_smaller_shape_keeps_storage() {
        let mut arena = WaveformArena::new(8, 16);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0, 3.0]).unwrap();
        arena.write(7, &w).unwrap();
        let (times, lens) = (arena.times.as_ptr(), arena.len.as_ptr());
        // Fewer entries, then fewer-but-wider cells, then the original
        // shape again: all fit the first allocation.
        for (entries, capacity) in [(3, 16), (2, 64), (8, 16)] {
            assert!(!arena.reshape(entries, capacity), "{entries}×{capacity}");
            assert_eq!((arena.entries(), arena.capacity()), (entries, capacity));
            assert_eq!(arena.times.as_ptr(), times, "times lane kept");
            assert_eq!(arena.len.as_ptr(), lens, "len lane kept");
            assert_eq!(arena.peak_occupancy(), 0, "a new watermark per reshape");
            arena.reset();
            for idx in 0..entries {
                assert_eq!(arena.to_waveform(idx), Waveform::constant(false));
            }
            // The reshaped arena is fully usable: last cell, full capacity.
            let full: Vec<f64> = (0..capacity).map(|t| t as f64).collect();
            let w = Waveform::with_transitions(false, full).unwrap();
            arena.write(entries - 1, &w).unwrap();
            assert_eq!(arena.to_waveform(entries - 1), w);
            let writer = arena.level_writer(None);
            assert_eq!(writer.entries(), entries);
            writer.write_constant_run(0, 1, 1);
        }
    }

    #[test]
    fn reshape_to_the_same_shape_touches_nothing_but_the_watermark() {
        let mut arena = WaveformArena::new(4, 4);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0]).unwrap();
        arena.write(1, &w).unwrap();
        assert_eq!(arena.peak_occupancy(), 2);
        assert!(!arena.reshape(4, 4));
        assert_eq!(arena.peak_occupancy(), 0);
        // Stale but valid until the caller's reset.
        assert_eq!(arena.to_waveform(1), w);
        arena.reset();
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
    }

    #[test]
    fn a_times_lane_is_heap_sized_or_reserved_past_the_mmap_ceiling() {
        let small = WaveformArena::new(255, 64);
        assert_eq!(small.times.capacity(), 255 * 64);
        let large = WaveformArena::new(256, 64);
        assert_eq!(large.times.len(), 256 * 64);
        assert!(large.times.capacity() * 8 >= MAPPED_LANE_BYTES);
        assert!(large.times.iter().all(|&t| t == 0.0));
        let huge = WaveformArena::new(1 << 16, 128);
        assert_eq!(huge.times.capacity(), (1 << 16) * 128);
    }

    #[test]
    fn reshape_beyond_the_allocation_reallocates() {
        let mut arena = WaveformArena::new(4, 4);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0]).unwrap();
        arena.write(3, &w).unwrap();
        // More cells than the times lane holds.
        assert!(arena.reshape(4, 8));
        assert_eq!((arena.entries(), arena.capacity()), (4, 8));
        // More entries than the len lane holds, though fewer cells.
        assert!(arena.reshape(16, 1));
        assert_eq!((arena.entries(), arena.capacity()), (16, 1));
        assert_eq!(arena.peak_occupancy(), 0);
        arena.reset();
        for idx in 0..16 {
            assert_eq!(arena.to_waveform(idx), Waveform::constant(false));
        }
        let w = Waveform::with_transitions(false, vec![9.0]).unwrap();
        arena.write(15, &w).unwrap();
        assert_eq!(arena.to_waveform(15), w);
    }

    #[test]
    fn level_writer_reports_occupancy_once_per_worker() {
        let mut arena = WaveformArena::new(4, 8);
        {
            let writer = arena.level_writer(None);
            writer.write(0, false, &[1.0, 2.0, 3.0]).unwrap();
            writer.write(1, false, &[1.0]).unwrap();
            // Writes alone leave the shared watermark alone ...
            writer.note_occupancy(1);
        }
        assert_eq!(arena.peak_occupancy(), 1);
        {
            // ... until the worker folds its running maximum in.
            let writer = arena.level_writer(None);
            writer.note_occupancy(3);
            writer.note_occupancy(2);
        }
        assert_eq!(arena.peak_occupancy(), 3);
    }

    #[test]
    fn copy_cell_is_a_passthrough() {
        let mut arena = WaveformArena::new(3, 4);
        let w = Waveform::with_transitions(true, vec![3.0, 8.0]).unwrap();
        arena.write(0, &w).unwrap();
        arena.copy_cell(0, 2);
        assert_eq!(arena.to_waveform(2), w);
        // Source is untouched, unrelated cells too.
        assert_eq!(arena.to_waveform(0), w);
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
    }

    #[test]
    fn views_feed_the_bounded_kernel() {
        let mut arena = WaveformArena::new(2, 4);
        let a = Waveform::with_transitions(false, vec![100.0]).unwrap();
        let b = Waveform::constant(true);
        arena.write(0, &a).unwrap();
        arena.write(1, &b).unwrap();
        let d = [PinDelays {
            rise: 10.0,
            fall: 10.0,
        }; 2];
        let mut scratch = GateScratch::new();
        let initial = evaluate_gate_bounded_raw(
            &[arena.view(0), arena.view(1)],
            &d,
            |v| v[0] && v[1],
            &mut scratch,
            4,
        )
        .unwrap();
        assert!(!initial);
        assert_eq!(scratch.scheduled(), &[110.0]);
    }

    #[test]
    fn bounded_kernel_overflows_at_cap() {
        // An XOR fed by two staggered 4-transition inputs produces more
        // output transitions than a cap of 2 allows.
        let a = Waveform::with_transitions(false, vec![100.0, 200.0, 300.0, 400.0]).unwrap();
        let b = Waveform::with_transitions(false, vec![150.0, 250.0, 350.0, 450.0]).unwrap();
        let d = [PinDelays {
            rise: 1.0,
            fall: 1.0,
        }; 2];
        let mut scratch = GateScratch::new();
        let err =
            evaluate_gate_bounded_raw(&[&a, &b], &d, |v| v[0] ^ v[1], &mut scratch, 2).unwrap_err();
        assert_eq!(err, CapacityOverflow { capacity: 2 });
        // The same evaluation succeeds with room to spare.
        evaluate_gate_bounded_raw(&[&a, &b], &d, |v| v[0] ^ v[1], &mut scratch, 8).unwrap();
        assert_eq!(scratch.scheduled().len(), 8);
    }

    #[test]
    fn level_writer_concurrent_disjoint_writes() {
        let mut arena = WaveformArena::new(64, 4);
        {
            let writer = arena.level_writer(None);
            let writer = &writer;
            std::thread::scope(|scope| {
                // Scattered (non-contiguous) assignment: worker w writes
                // every 4th cell — the shape a work-stealing schedule
                // produces.
                for w in 0..4usize {
                    scope.spawn(move || {
                        for idx in (w..64).step_by(4) {
                            writer
                                .write(idx, idx % 2 == 0, &[idx as f64 + 0.5])
                                .unwrap();
                        }
                    });
                }
            });
        }
        for idx in 0..64 {
            let v = arena.view(idx);
            assert_eq!(v.initial_value(), idx % 2 == 0);
            assert_eq!(v.transitions(), &[idx as f64 + 0.5]);
        }
    }

    #[test]
    fn level_writer_quiet_bits_and_constant_writes() {
        let mut arena = WaveformArena::new(4, 2);
        let w = Waveform::with_transitions(true, vec![5.0]).unwrap();
        arena.write(1, &w).unwrap();
        arena.write(2, &Waveform::constant(true)).unwrap();
        {
            // A width-1 run is the single cell.
            let writer = arena.level_writer(None);
            // Quiet = zero transitions; a toggling cell is not quiet.
            assert_eq!(writer.quiet_run(0, 1), 1);
            assert_eq!(writer.quiet_run(1, 1), 0);
            assert_eq!(writer.quiet_run(2, 1), 1, "constant-high is quiet too");
            // The constant fast path claims the cell like a normal write.
            writer.write_constant_run(3, 1, 1);
            let double = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                writer.write_constant_run(3, 1, 0);
            }));
            assert!(double.is_err(), "double constant write must panic");
            // Reading the quiet bit of a cell written this epoch trips
            // the same wire as a dirty view.
            let dirty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = writer.quiet_run(3, 1);
            }));
            assert!(dirty.is_err(), "same-epoch quiet read must panic");
        }
        assert_eq!(arena.to_waveform(3), Waveform::constant(true));
        // A constant write never moves the peak watermark.
        assert_eq!(arena.peak_occupancy(), 1);
        // A constant write is bit-for-bit equivalent to an empty write.
        {
            let writer = arena.level_writer(None);
            writer.write_constant_run(0, 1, 1);
            writer.write(3, true, &[]).unwrap();
        }
        assert_eq!(arena.to_waveform(0), arena.to_waveform(3));
    }

    #[test]
    fn overflow_hook_forces_capacity_miss_and_leaves_cell_unclaimed() {
        let mut arena = WaveformArena::new(4, 8);
        let hook = |idx: usize| idx == 1;
        {
            let writer = arena.level_writer(Some(&hook));
            writer.write(0, false, &[1.0]).unwrap();
            // The hooked cell reports the same error a real capacity miss
            // would, even though 1 transition fits a capacity of 8 ...
            assert_eq!(
                writer.write(1, false, &[2.0]),
                Err(CapacityOverflow { capacity: 8 })
            );
            // ... and an empty write is exempt: a quiet cell can not be
            // forced to overflow.
            writer.write(2, true, &[]).unwrap();
        }
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
        assert_eq!(arena.to_waveform(2), Waveform::constant(true));
        // The cell was left unclaimed: the quarantine epoch (no hook)
        // writes it normally.
        {
            let writer = arena.level_writer(None);
            writer.write(1, false, &[2.0]).unwrap();
        }
        assert_eq!(
            arena.to_waveform(1),
            Waveform::with_transitions(false, vec![2.0]).unwrap()
        );
    }

    #[test]
    fn lane_runs_round_trip_quiet_initial_and_constant_writes() {
        let mut arena = WaveformArena::new(16, 4);
        // Cells 0..8: a run with mixed initial values and one loud cell.
        let loud = Waveform::with_transitions(false, vec![3.0]).unwrap();
        arena.write(2, &loud).unwrap();
        arena.write(5, &Waveform::constant(true)).unwrap();
        {
            let writer = arena.level_writer(None);
            // Quiet bits: all but cell 2.
            assert_eq!(writer.quiet_run(0, 8), 0b1111_1011);
            // Initial bits: only cell 5 is high.
            assert_eq!(writer.initial_run(0, 8), 0b0010_0000);
            // Masked constant write: lanes 0, 2, 3 of run 8..12.
            writer.write_constant_run(8, 0b1101, 0b0100);
            // Unmasked lane 1 stays unclaimed and writable.
            writer.write_constant_run(9, 1, 1);
            // Double-writing a masked lane panics.
            let double = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                writer.write_constant_run(8, 0b0001, 0);
            }));
            assert!(double.is_err(), "lane double write must panic");
        }
        assert_eq!(arena.to_waveform(8), Waveform::constant(false));
        assert_eq!(arena.to_waveform(9), Waveform::constant(true));
        assert_eq!(arena.to_waveform(10), Waveform::constant(true));
        assert_eq!(arena.to_waveform(11), Waveform::constant(false));
        // An all-zero mask is a no-op.
        {
            let writer = arena.level_writer(None);
            writer.write_constant_run(0, 0, !0);
            assert_eq!(writer.quiet_run(12, 4), 0b1111);
        }
    }

    #[test]
    fn lane_runs_straddle_claim_words() {
        // A run crossing the 64-bit claim-word boundary (cells 60..76)
        // exercises the two-word fetch_or path a partial tail group hits.
        let mut arena = WaveformArena::new(128, 2);
        arena
            .write(70, &Waveform::with_transitions(true, vec![1.0]).unwrap())
            .unwrap();
        {
            let writer = arena.level_writer(None);
            let quiet = writer.quiet_run(60, 16);
            assert_eq!(quiet, !(1u64 << 10) & 0xFFFF);
            assert_eq!(writer.initial_run(60, 16), 1 << 10);
            // Claim lanes on both sides of the boundary in one call.
            writer.write_constant_run(60, 0b11_0000_0011, 0b10_0000_0001);
            let dirty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = writer.quiet_run(60, 16);
            }));
            assert!(dirty.is_err(), "same-epoch lane read must panic");
            let dirty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = writer.initial_run(60, 16);
            }));
            assert!(dirty.is_err(), "same-epoch initial-value read must panic");
        }
        // Mask bits 0, 1 land in claim word 0 (cells 60, 61); bits 8, 9
        // land in claim word 1 (cells 68, 69).
        assert_eq!(arena.to_waveform(60), Waveform::constant(true));
        assert_eq!(arena.to_waveform(61), Waveform::constant(false));
        assert_eq!(arena.to_waveform(68), Waveform::constant(false));
        assert_eq!(arena.to_waveform(69), Waveform::constant(true));
        // Cells outside the mask kept their prior contents.
        assert_eq!(arena.view(70).transitions(), &[1.0]);
    }

    #[test]
    fn lane_run_claims_race_to_one_winner() {
        // Two threads fight over overlapping masked runs; exactly one may
        // win each lane, and the loser must observe the claim panic.
        let mut arena = WaveformArena::new(64, 2);
        let writer = arena.level_writer(None);
        let writer = &writer;
        let wins: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    scope.spawn(move || {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            writer.write_constant_run(0, 0xFF, if t == 0 { 0xFF } else { 0 });
                        }));
                        r.is_ok()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one writer wins an overlapping lane run"
        );
    }

    #[test]
    fn level_writer_rejects_double_write_and_dirty_read() {
        let mut arena = WaveformArena::new(4, 2);
        {
            let writer = arena.level_writer(None);
            writer.write(1, true, &[5.0]).unwrap();
            // Second write of the same cell in one epoch: claim panic.
            let double = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = writer.write(1, false, &[6.0]);
            }));
            assert!(double.is_err(), "double write must panic");
            // Reading a cell written this epoch: tripwire panic.
            let dirty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = writer.view(1);
            }));
            assert!(dirty.is_err(), "same-epoch read must panic");
            // Unwritten cells remain readable.
            assert_eq!(writer.view(0).transitions(), &[] as &[f64]);
            // Overflow leaves the cell unclaimed and untouched.
            assert_eq!(
                writer.write(2, false, &[1.0, 2.0, 3.0]),
                Err(CapacityOverflow { capacity: 2 })
            );
            writer.write(2, false, &[1.0, 2.0]).unwrap();
        }
        // A fresh epoch clears the claims.
        {
            let writer = arena.level_writer(None);
            writer.write(1, false, &[9.0]).unwrap();
        }
        assert_eq!(arena.view(1).transitions(), &[9.0]);
        assert_eq!(arena.view(2).transitions(), &[1.0, 2.0]);
    }
}

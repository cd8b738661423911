//! A capacity-bounded `(slot, net)` waveform arena.
//!
//! The GPU algorithm of Holst et al. \[25\] stores all waveforms of a
//! launch in one flat global-memory allocation: a fixed-size buffer per
//! `(slot, net)` cell, with an overflow flag raised when a gate's output
//! history would run past its buffer. This module is the CPU realization
//! of that contract: `entries` waveforms of at most `capacity`
//! transitions each, with explicit overflow reporting instead of
//! reallocation. The simulation engine sizes the arena from its memory
//! budget, quarantines slots whose gates overflow, and re-runs them
//! against a larger arena — so a glitch-heavy slot can never abort or
//! bloat a whole batch.
//!
//! # Storage
//!
//! The arena *reserves* the worst case — `entries × capacity`
//! transitions in one `times` lane — and stores what is written packed
//! end to end: entry `i` occupies `times[off[i]..][..len[i]]`, appended
//! behind a bump cursor that [`WaveformArena::reset`] rewinds. No cell
//! may exceed `capacity` and every cell is written at most once between
//! resets, so the written total never exceeds the reservation and
//! running out is impossible by construction; what is *resident* is what
//! was written (the reservation's other pages are never touched), and a
//! constant cell costs no `times` storage at all.
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
//! write in place concurrently. A worker collects finished cells in its
//! [`GateScratch`] and publishes them a block at a time: one `fetch_add`
//! on the cursor reserves the block's span of `times`, one copy fills
//! it, and each cell's `off`/`len`/`initial` are stored once its claim
//! is won.

use crate::{CapacityOverflow, GateScratch, Waveform, WaveformRead, WaveformStats};
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
/// Entry `i` occupies `times[off[i]..][..len[i]]` (see the module docs);
/// the engine maps `(slot, net)` to entries through
/// [`crate::LaneLayout`]. The default arena is empty and owns no storage
/// — what a long-lived owner holds until the first
/// [`WaveformArena::reshape`].
#[derive(Debug, Default)]
pub struct WaveformArena {
    capacity: usize,
    initial: Vec<bool>,
    len: Vec<u32>,
    /// Where each entry's transitions start in `times`. Read only for an
    /// entry with `len > 0`; what an empty entry holds is stale.
    off: Vec<u32>,
    /// The whole allocation, zero-initialised and never resized: only
    /// the first `reserved` elements belong to the current shape, and
    /// only the first `used` of those were ever written.
    times: Vec<f64>,
    /// `entries × capacity`, the worst case of the current shape.
    reserved: usize,
    /// The bump cursor: first unwritten element of `times`. Atomic so
    /// concurrent publishers can reserve disjoint spans.
    used: AtomicUsize,
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
            off: self.off.clone(),
            times: self.times.clone(),
            reserved: self.reserved,
            used: AtomicUsize::new(self.used.load(Ordering::Relaxed)),
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
#[derive(Debug, Clone, Copy, Default)]
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

/// `entries × capacity`, which the `u32` offsets of the `off` lane must
/// be able to address.
fn reservation(entries: usize, capacity: usize) -> usize {
    entries
        .checked_mul(capacity)
        .filter(|&cells| cells <= WaveformArena::MAX_RESERVATION)
        .expect("arena reservation (entries × capacity) fits u32 offsets")
}

impl WaveformArena {
    /// The largest `entries × capacity` an arena can be shaped to.
    pub const MAX_RESERVATION: usize = u32::MAX as usize;

    /// Allocates an arena of `entries` waveforms with room for `capacity`
    /// transitions each. All entries start as constant-low signals.
    ///
    /// # Panics
    ///
    /// Panics if `entries × capacity` exceeds [`Self::MAX_RESERVATION`].
    pub fn new(entries: usize, capacity: usize) -> WaveformArena {
        let reserved = reservation(entries, capacity);
        let allocated = if reserved * std::mem::size_of::<f64>() < HEAP_LANE_BYTES {
            reserved
        } else {
            reserved.max(MAPPED_LANE_BYTES.div_ceil(std::mem::size_of::<f64>()))
        };
        WaveformArena {
            capacity,
            initial: vec![false; entries],
            len: vec![0; entries],
            off: vec![0; entries],
            times: vec![0.0; allocated],
            reserved,
            used: AtomicUsize::new(0),
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

    /// Resets every entry to a constant-low signal and rewinds the
    /// storage cursor (storage is retained; the peak-occupancy watermark
    /// is kept for diagnostics).
    pub fn reset(&mut self) {
        self.initial.fill(false);
        self.len.fill(0);
        *self.used.get_mut() = 0;
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
    ///
    /// # Panics
    ///
    /// Panics if `entries × capacity` exceeds [`Self::MAX_RESERVATION`].
    pub fn reshape(&mut self, entries: usize, capacity: usize) -> bool {
        *self.peak.get_mut() = 0;
        if entries == self.entries() && capacity == self.capacity {
            return false;
        }
        let reserved = reservation(entries, capacity);
        if reserved > self.times.len() || entries > self.len.capacity() {
            // Release the old lanes before asking for larger ones, so
            // the two never coexist.
            *self = WaveformArena::default();
            *self = WaveformArena::new(entries, capacity);
            return true;
        }
        self.capacity = capacity;
        self.reserved = reserved;
        self.initial.resize(entries, false);
        self.len.resize(entries, 0);
        self.off.resize(entries, 0);
        self.claims
            .resize_with(entries.div_ceil(64), || AtomicU64::new(0));
        // Old spans are meaningless under the new shape.
        self.reset();
        false
    }

    /// A read view of entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: usize) -> WaveformView<'_> {
        let len = self.len[idx] as usize;
        let start = if len == 0 { 0 } else { self.off[idx] as usize };
        WaveformView {
            initial: self.initial[idx],
            times: &self.times[start..start + len],
        }
    }

    /// Writes a waveform into entry `idx`, appending its transitions to
    /// the packed storage.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] (leaving the entry untouched) if the
    /// waveform has more than [`Self::capacity`] transitions.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, or if rewriting entries without
    /// a [`Self::reset`] in between has used up the reservation.
    pub fn write(&mut self, idx: usize, waveform: &Waveform) -> Result<(), CapacityOverflow> {
        let transitions = waveform.transitions();
        if transitions.len() > self.capacity {
            return Err(CapacityOverflow {
                capacity: self.capacity,
            });
        }
        let used = self.used.get_mut();
        let start = *used;
        self.times[..self.reserved][start..start + transitions.len()].copy_from_slice(transitions);
        *used += transitions.len();
        self.initial[idx] = waveform.initial_value();
        self.len[idx] = transitions.len() as u32;
        self.off[idx] = start as u32;
        self.peak.fetch_max(transitions.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Makes entry `dst` the same waveform as entry `src` by pointing it
    /// at `src`'s stored transitions — the passthrough for identity
    /// stages (e.g. primary-output observation nodes); nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn copy_cell(&mut self, src: usize, dst: usize) {
        self.initial[dst] = self.initial[src];
        self.len[dst] = self.len[src];
        self.off[dst] = self.off[src];
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
    /// when present, every *non-empty* [`LevelWriter::stage`] consults
    /// `hook(idx)` first and reports [`CapacityOverflow`] — nothing
    /// staged, cell untouched and unclaimed — when it returns `true`,
    /// exactly as if the waveform had outgrown the cell. The hook must be
    /// pure per `(epoch, idx)` (it runs on whichever worker owns the
    /// task), and it is never consulted for empty outputs or
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
            reserved: self.reserved,
            initial: self.initial.as_mut_ptr(),
            len: self.len.as_mut_ptr(),
            off: self.off.as_mut_ptr(),
            times: self.times.as_mut_ptr(),
            used: &self.used,
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

/// One finished cell waiting in a [`GateScratch`] for
/// [`LevelWriter::publish`]; its transitions are the next `len` of the
/// scratch's staged times.
#[derive(Debug)]
pub(crate) struct StagedCell {
    idx: usize,
    len: u32,
    initial: bool,
}

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
/// * Transitions reach the arena a block at a time
///   ([`LevelWriter::stage`], then [`LevelWriter::publish`]): the
///   publisher reserves a span of the packed `times` lane with one
///   `fetch_add` on the storage cursor, so concurrent publishers fill
///   disjoint spans, and a cell's `off`/`len`/`initial` are stored only
///   after its claim is won. An output that is never staged reserves
///   nothing.
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
    /// `entries × capacity`: the part of `times` a span may lie in.
    reserved: usize,
    initial: *mut bool,
    len: *mut u32,
    off: *mut u32,
    times: *mut f64,
    used: &'a AtomicUsize,
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
// exclusive winner per cell per epoch) and the cursor reservation (one
// exclusive span of `times` per published block); reads are
// claim-checked. The raw pointers are valid for the arena borrow 'a.
unsafe impl Send for LevelWriter<'_> {}
// SAFETY: shared references only permit protocol-mediated access (same
// argument as Send above): `publish`/`write_constant_run` first win the
// per-cell atomic claim, `publish` copies only into the span its own
// `fetch_add` reserved, and `view`/`quiet_run`/`initial_run` assert the
// cells are unclaimed for the epoch, so `&LevelWriter` is safe to share.
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
        // so the plain reads cannot race. A non-empty cell's span was
        // stored by `WaveformArena::write` or `publish`, both of which
        // keep `off + len` within `reserved`, and nothing in this epoch
        // writes below the cursor its publishers started from.
        unsafe {
            let len = *self.len.add(idx) as usize;
            let start = if len == 0 {
                0
            } else {
                *self.off.add(idx) as usize
            };
            WaveformView {
                initial: *self.initial.add(idx),
                times: std::slice::from_raw_parts(self.times.add(start), len),
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
    /// quiet-cell fast path. Per cell it is equivalent to staging and
    /// publishing an empty output, but infallible and storage-free: a
    /// constant (zero transitions) fits any capacity and reserves
    /// nothing. Unmasked lanes are untouched and stay unclaimed.
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
            // `max(peak, 0)` is the identity — and so is `off`, which is
            // never read for an empty cell.
            unsafe {
                *self.initial.add(start + k) = values >> k & 1 == 1;
                *self.len.add(start + k) = 0;
            }
        }
    }

    /// Stages the output the last evaluation left in `scratch`
    /// ([`GateScratch::scheduled`]) as cell `idx` with initial value
    /// `initial`, and returns its statistics. Nothing reaches the arena
    /// — no claim, no reservation — before [`LevelWriter::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] if the output exceeds the per-cell
    /// capacity or the epoch's overflow hook fires for `idx`; the output
    /// stays unstaged (the next evaluation drops it), so the cell is left
    /// untouched and unclaimed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn stage(
        &self,
        scratch: &mut GateScratch,
        idx: usize,
        initial: bool,
    ) -> Result<WaveformStats, CapacityOverflow> {
        assert!(idx < self.entries, "arena cell {idx} out of range");
        let transitions = scratch.scheduled();
        let overflow = Err(CapacityOverflow {
            capacity: self.capacity,
        });
        if transitions.len() > self.capacity {
            return overflow;
        }
        // Injected forced overflow: same observable outcome as a real
        // capacity miss. Empty outputs are exempt (a constant output
        // fits any capacity, hooked or not).
        if let Some(hook) = self.overflow_hook {
            if !transitions.is_empty() && hook(idx) {
                return overflow;
            }
        }
        let stats = WaveformStats::of(&WaveformView {
            initial,
            times: transitions,
        });
        scratch.staged.push(StagedCell {
            idx,
            len: stats.transitions as u32,
            initial,
        });
        scratch.staged_len = scratch.sched.len();
        Ok(stats)
    }

    /// Moves every cell staged in `scratch` into the arena and empties
    /// the scratch: one `fetch_add` on the storage cursor reserves the
    /// block's span of `times`, one copy fills it, then each cell's claim
    /// is won and its `off`/`len`/`initial` stored. The arena's
    /// peak-occupancy watermark is *not* touched — one shared cache line
    /// per gate written is what this path avoids; the caller keeps its
    /// own running maximum of the lengths it staged and reports it once
    /// with [`LevelWriter::note_occupancy`].
    ///
    /// # Panics
    ///
    /// Panics if a staged cell was already written in this epoch, or if
    /// the block does not fit the arena's reservation — which takes a
    /// cell rewritten in a later epoch without a
    /// [`WaveformArena::reset`] in between.
    pub fn publish(&self, scratch: &mut GateScratch) {
        let total = scratch.staged_len;
        if scratch.staged.is_empty() {
            scratch.sched.clear();
            return;
        }
        // Relaxed: the cursor publishes no data, it only hands out
        // disjoint spans; the spans' contents become visible to readers
        // with the end of the epoch's borrow, like every other write.
        let start = self.used.fetch_add(total, Ordering::Relaxed);
        assert!(
            start
                .checked_add(total)
                .is_some_and(|end| end <= self.reserved),
            "arena reservation exhausted: cells rewritten without a reset"
        );
        // SAFETY: `start .. start + total` lies inside the `reserved`
        // elements of `times` (asserted above) and was handed to this
        // caller alone by the `fetch_add`; no view can reach it, because
        // every stored span ends at or below a cursor value observed
        // before this reservation. `sched` holds at least `staged_len`
        // initialised elements.
        unsafe {
            std::ptr::copy_nonoverlapping(scratch.sched.as_ptr(), self.times.add(start), total);
        }
        scratch.sched.clear();
        scratch.staged_len = 0;
        let mut off = start;
        for cell in scratch.staged.drain(..) {
            assert!(
                self.claim(cell.idx),
                "arena cell {} written twice within one level epoch",
                cell.idx
            );
            // SAFETY: this caller won the claim for `cell.idx` (in range,
            // checked by `stage`), so it has exclusive write access to
            // the cell's initial/len/off for the rest of the epoch. The
            // span `off .. off + len` is the cell's share of the block
            // copied above and `off < reserved ≤ u32::MAX`.
            unsafe {
                *self.initial.add(cell.idx) = cell.initial;
                *self.len.add(cell.idx) = cell.len;
                *self.off.add(cell.idx) = off as u32;
            }
            off += cell.len as usize;
        }
        debug_assert_eq!(off, start + total);
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
    use crate::{evaluate_gate_bounded_raw, PinDelays};

    /// Stages and publishes `transitions` as cell `idx`: a one-cell block.
    fn write_one(
        writer: &LevelWriter<'_>,
        idx: usize,
        initial: bool,
        transitions: &[f64],
    ) -> Result<(), CapacityOverflow> {
        let mut scratch = GateScratch::new();
        scratch.sched.extend_from_slice(transitions);
        writer.stage(&mut scratch, idx, initial)?;
        writer.publish(&mut scratch);
        Ok(())
    }

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
        assert_eq!(small.times.len(), 255 * 64);
        let large = WaveformArena::new(256, 64);
        assert_eq!(large.reserved, 256 * 64);
        assert!(large.times.len() * 8 >= MAPPED_LANE_BYTES);
        assert!(large.times.iter().all(|&t| t == 0.0));
        let huge = WaveformArena::new(1 << 16, 128);
        assert_eq!(huge.times.len(), (1 << 16) * 128);
    }

    #[test]
    fn reset_and_reshape_rewind_the_storage_cursor() {
        let mut arena = WaveformArena::new(4, 2);
        let full = Waveform::with_transitions(false, vec![1.0, 2.0]).unwrap();
        // Every cell at full capacity ends exactly at the reservation.
        for idx in 0..4 {
            arena.write(idx, &full).unwrap();
        }
        assert_eq!(*arena.used.get_mut(), 4 * 2);
        // Without a rewind there is no room left for a rewrite ...
        let rewrite = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = arena.write(0, &full);
        }));
        assert!(
            rewrite.is_err(),
            "a rewrite past the reservation must panic"
        );
        // ... a reset gives the whole reservation back ...
        arena.reset();
        assert_eq!(*arena.used.get_mut(), 0);
        for idx in 0..4 {
            arena.write(idx, &full).unwrap();
        }
        // ... and so does a reshape that changes the shape.
        assert!(!arena.reshape(2, 4));
        assert_eq!((*arena.used.get_mut(), arena.reserved), (0, 8));
        let wide = Waveform::with_transitions(true, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        arena.write(0, &wide).unwrap();
        arena.write(1, &wide).unwrap();
        assert_eq!(arena.to_waveform(1), wide);
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
            write_one(&writer, 0, false, &[1.0, 2.0, 3.0]).unwrap();
            write_one(&writer, 1, false, &[1.0]).unwrap();
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
        // The copy is an alias: it took no storage of its own ...
        assert_eq!(*arena.used.get_mut(), 2);
        // ... and still reads back after later epochs appended theirs.
        for epoch in 0..2 {
            let writer = arena.level_writer(None);
            assert_eq!(writer.view(2).transitions(), &[3.0, 8.0]);
            write_one(&writer, 1, false, &[10.0 + epoch as f64]).unwrap();
        }
        assert_eq!(arena.to_waveform(2), w);
        assert_eq!(arena.to_waveform(0), w);
        assert_eq!(arena.view(1).transitions(), &[11.0]);
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

    /// What cell `idx` holds in the block tests below: `idx % 4`
    /// transitions (so every fourth cell is a constant).
    fn cell_times(idx: usize) -> Vec<f64> {
        (0..idx % 4).map(|k| (idx * 10 + k) as f64).collect()
    }

    #[test]
    fn level_writer_concurrent_scattered_blocks() {
        let mut arena = WaveformArena::new(64, 4);
        {
            let writer = arena.level_writer(None);
            let writer = &writer;
            let start = std::sync::Barrier::new(4);
            let start = &start;
            std::thread::scope(|scope| {
                // Scattered (non-contiguous) assignment: worker w stages
                // every 4th cell — the shape a work-stealing schedule
                // produces — and publishes four cells to a block.
                for w in 0..4usize {
                    scope.spawn(move || {
                        let mut scratch = GateScratch::new();
                        start.wait();
                        for (n, idx) in (w..64).step_by(4).enumerate() {
                            scratch.sched.extend(cell_times(idx));
                            writer.stage(&mut scratch, idx, idx % 2 == 0).unwrap();
                            if n % 4 == 3 {
                                writer.publish(&mut scratch);
                            }
                        }
                    });
                }
            });
        }
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for idx in 0..64 {
            let v = arena.view(idx);
            assert_eq!(v.initial_value(), idx % 2 == 0);
            assert_eq!(v.transitions(), cell_times(idx));
            if arena.len[idx] > 0 {
                spans.push((arena.off[idx] as usize, arena.len[idx] as usize));
            }
        }
        // Packed with zero waste: the spans tile `0 .. used` exactly.
        spans.sort_unstable();
        let mut end = 0;
        for (off, len) in spans {
            assert_eq!(off, end, "spans are disjoint and gap-free");
            end = off + len;
        }
        assert_eq!(end, *arena.used.get_mut());
        assert_eq!(end, (0..64).map(|idx| idx % 4).sum::<usize>());
    }

    #[test]
    fn every_cell_at_full_capacity_fits_the_reservation_exactly() {
        let mut arena = WaveformArena::new(6, 3);
        let full = [1.0, 2.0, 3.0];
        {
            let writer = arena.level_writer(None);
            let mut scratch = GateScratch::new();
            for idx in 0..6 {
                scratch.sched.extend_from_slice(&full);
                writer.stage(&mut scratch, idx, true).unwrap();
                if idx % 2 == 1 {
                    writer.publish(&mut scratch);
                }
            }
        }
        assert_eq!(*arena.used.get_mut(), arena.reserved);
        for idx in 0..6 {
            assert_eq!(arena.view(idx).transitions(), &full);
        }
        // One transition more has nowhere to go: the next epoch's
        // publisher panics instead of writing past the reservation.
        let writer = arena.level_writer(None);
        let spill = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = write_one(&writer, 0, true, &[9.0]);
        }));
        assert!(spill.is_err(), "a block past the reservation must panic");
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
            write_one(&writer, 3, true, &[]).unwrap();
        }
        assert_eq!(arena.to_waveform(0), arena.to_waveform(3));
    }

    #[test]
    fn overflow_hook_forces_capacity_miss_and_leaves_cell_unclaimed() {
        let mut arena = WaveformArena::new(4, 8);
        let hook = |idx: usize| idx == 1;
        {
            let writer = arena.level_writer(Some(&hook));
            let mut scratch = GateScratch::new();
            scratch.sched.push(1.0);
            writer.stage(&mut scratch, 0, false).unwrap();
            // The hooked cell reports the same error a real capacity miss
            // would, even though 1 transition fits a capacity of 8 ...
            scratch.sched.push(2.0);
            assert_eq!(
                writer.stage(&mut scratch, 1, false),
                Err(CapacityOverflow { capacity: 8 })
            );
            // ... its output is dropped by the next evaluation, which
            // here produces a constant, and an empty output is exempt: a
            // quiet cell can not be forced to overflow.
            let quiet = Waveform::constant(true);
            let d = [PinDelays::default()];
            evaluate_gate_bounded_raw(&[&quiet], &d, |v| v[0], &mut scratch, 8).unwrap();
            writer.stage(&mut scratch, 2, true).unwrap();
            writer.publish(&mut scratch);
        }
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
        assert_eq!(arena.to_waveform(2), Waveform::constant(true));
        // The published block holds cell 0's transition and nothing of
        // the hooked cell's.
        assert_eq!(*arena.used.get_mut(), 1);
        assert_eq!(arena.view(0).transitions(), &[1.0]);
        // The cell was left unclaimed: the quarantine epoch (no hook)
        // writes it normally.
        {
            let writer = arena.level_writer(None);
            write_one(&writer, 1, false, &[2.0]).unwrap();
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
            write_one(&writer, 1, true, &[5.0]).unwrap();
            // Second write of the same cell in one epoch: claim panic.
            let double = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = write_one(&writer, 1, false, &[6.0]);
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
                write_one(&writer, 2, false, &[1.0, 2.0, 3.0]),
                Err(CapacityOverflow { capacity: 2 })
            );
            write_one(&writer, 2, false, &[1.0, 2.0]).unwrap();
        }
        // A fresh epoch clears the claims.
        {
            let writer = arena.level_writer(None);
            write_one(&writer, 1, false, &[9.0]).unwrap();
        }
        assert_eq!(arena.view(1).transitions(), &[9.0]);
        assert_eq!(arena.view(2).transitions(), &[1.0, 2.0]);
    }
}

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
//! Each entry has three bits, kept 64 entries to a word like the claim
//! bits of [`LevelWriter`]: *claimed* (written this batch), *switching*
//! (it has transitions) and *high* (it starts high). A lane run of the
//! engine's [`crate::LaneLayout`] — one net's cells of one lane group —
//! is consecutive entries, and a full power-of-two run never straddles
//! a word, so a run's quiet and initial values are one load of each word
//! whatever its width. The transitions of a switching entry are
//! `times[off[i]..][..len[i]]`; `len` and `off` are written only for
//! those entries and read only where the switching bit is set, so a
//! constant entry costs its three bits and nothing else, and
//! [`WaveformArena::reset`] clears the bits alone.
//!
//! The arena *reserves* the worst case — `entries × capacity`
//! transitions in one `times` lane — and splits it into *regions*, one
//! per run of `region` consecutive entries ([`WaveformArena::reset`]
//! sets `region`; the engine passes a lane group's cell count, so each
//! lane group owns one region, as the GPU algorithm gives each
//! `(slot, net)` cell a buffer of its own). Region `r` holds entries
//! `r·region ..` and owns the `times` span `r·region·capacity ..`, one
//! `capacity` per entry; what is written is stored packed end to end
//! behind the region's own bump cursor. No cell may exceed `capacity`
//! and every cell is written at most once between resets, so what a
//! region's cells write never exceeds the region's span — running out
//! is impossible by construction, region by region, with no slack; what
//! is *resident* is what was written (the reservation's other pages are
//! never touched).
//!
//! # Concurrent access
//!
//! Cells are written only through a shared [`LevelWriter`]
//! ([`WaveformArena::level_writer`]), from any number of workers, and
//! read back through `&self` ([`WaveformArena::view`]) once the writer is
//! gone. Between two [`WaveformArena::reset`]s — one *batch* of a
//! levelized simulation, every level of it — any worker may write any
//! cell **once**; a per-cell atomic claim bit makes each cell's writer
//! exclusive, so scattered work-stealing schedules (where the set of
//! written cells is disjoint but not contiguous) can write in place
//! concurrently. A cell's switching and high bits are set with
//! `fetch_or` by the worker that won its claim, after it stored the
//! cell's `off`/`len`, so two workers writing cells of one word never
//! race on it, and a reader that sees a switching bit sees the span it
//! guards. A worker collects finished cells in its [`GateScratch`] and
//! publishes them a block at a time — every cell of a block lies in one
//! region: one `fetch_add` on that region's cursor reserves the block's
//! span of `times`, one copy fills it, one `fetch_or` per word the block
//! touches wins its cells, each switching cell's `off`/`len` is stored,
//! and one `fetch_or` per word sets each of the other two bits where
//! any cell needs it. Workers on different regions share no cursor and
//! fill disjoint parts of `times`.

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

/// One region's bump cursor: the first unwritten element of `times` in
/// the region's span. Atomic so that the publishers of one region (a
/// lane group's owner and its helpers) reserve disjoint spans, and on
/// cache lines of its own so that two regions' publishers never touch a
/// shared one.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Cursor(AtomicUsize);

/// The bits of 64 consecutive entries `64·w ..` — bit `k` for entry
/// `64·w + k` — side by side, so a lane run's three words share a cache
/// line. All three are cleared by [`WaveformArena::reset`] and set only
/// by the entry's one writer.
#[derive(Debug, Default)]
struct CellBits {
    /// Set by the entry's write, before anything else of it is stored.
    claimed: AtomicU64,
    /// Set iff the entry has transitions, after its `off`/`len` are
    /// stored (release), so a reader that sees it (acquire) sees them.
    switching: AtomicU64,
    /// Set iff the entry starts high.
    high: AtomicU64,
}

impl CellBits {
    fn copy(&self) -> CellBits {
        let bits = |word: &AtomicU64| AtomicU64::new(word.load(Ordering::Relaxed));
        CellBits {
            claimed: bits(&self.claimed),
            switching: bits(&self.switching),
            high: bits(&self.high),
        }
    }
}

/// Flat bounded storage for a batch of waveforms.
///
/// Entry `i` that has transitions occupies `times[off[i]..][..len[i]]`,
/// inside its region's span; its switching and high bits say whether it
/// has any and its initial value (see the module docs). The engine maps
/// `(slot, net)` to entries through [`crate::LaneLayout`]. The default
/// arena is empty and owns no storage — what a long-lived owner holds
/// until the first [`WaveformArena::reshape`].
#[derive(Debug, Default)]
pub struct WaveformArena {
    capacity: usize,
    /// Transitions of each entry that has any. Written only for such an
    /// entry and read only where its switching bit is set; what any
    /// other entry holds is stale.
    len: Vec<u32>,
    /// Where each entry's transitions start in `times`, under the same
    /// rule as `len`.
    off: Vec<u32>,
    /// The whole allocation, zero-initialised and never resized: only
    /// the first `entries × capacity` elements — the reservation —
    /// belong to the current shape, and of region `r`'s span only what
    /// lies below `cursors[r]` was ever written.
    times: Vec<f64>,
    /// Entries per region (at least 1).
    region: usize,
    /// One cursor per region: `entries.div_ceil(region)` of them.
    cursors: Vec<Cursor>,
    /// Each entry's claimed, switching and high bits, 64 entries per
    /// [`CellBits`]. The word width matches the lane-group width of
    /// [`crate::LaneLayout`], so a full lane run's bits live in one word
    /// of each kind and batch claims are a single `fetch_or`.
    bits: Vec<CellBits>,
    /// Peak transitions written to any entry since construction or the
    /// last [`Self::reshape`]; atomic so concurrent writers can fold
    /// into it (max is order-independent, hence deterministic).
    peak: AtomicUsize,
}

impl Clone for WaveformArena {
    fn clone(&self) -> WaveformArena {
        WaveformArena {
            capacity: self.capacity,
            len: self.len.clone(),
            off: self.off.clone(),
            times: self.times.clone(),
            region: self.region,
            cursors: self
                .cursors
                .iter()
                .map(|c| Cursor(AtomicUsize::new(c.0.load(Ordering::Relaxed))))
                .collect(),
            bits: self.bits.iter().map(CellBits::copy).collect(),
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
    assert!(
        entries <= WaveformArena::max_entries(capacity),
        "arena reservation (entries × capacity) fits u32 offsets"
    );
    entries * capacity
}

impl WaveformArena {
    /// The largest `entries × capacity` an arena can be shaped to.
    pub const MAX_RESERVATION: usize = u32::MAX as usize;

    /// The most entries an arena of `capacity` transitions each can be
    /// shaped to: `entries × capacity` must not pass
    /// [`Self::MAX_RESERVATION`]. Callers that size arenas from
    /// untrusted shapes check this instead of meeting the panic of
    /// [`Self::new`].
    pub fn max_entries(capacity: usize) -> usize {
        Self::MAX_RESERVATION
            .checked_div(capacity)
            .unwrap_or(usize::MAX)
    }

    /// Allocates an arena of `entries` waveforms with room for `capacity`
    /// transitions each, as one region. All entries start as
    /// constant-low signals.
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
        let mut arena = WaveformArena {
            capacity,
            len: vec![0; entries],
            off: vec![0; entries],
            times: vec![0.0; allocated],
            region: 1,
            cursors: Vec::new(),
            bits: (0..entries.div_ceil(64))
                .map(|_| CellBits::default())
                .collect(),
            peak: AtomicUsize::new(0),
        };
        arena.partition(entries);
        arena
    }

    /// Number of waveform entries.
    pub fn entries(&self) -> usize {
        self.len.len()
    }

    /// Per-entry transition capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resets every entry to an unwritten constant-low signal — its
    /// bits cleared, so it may be written once more — and splits the
    /// storage into regions of `region` consecutive entries (the last
    /// may hold fewer; 0 counts as 1, and more than the arena's entries
    /// as one region), each with its cursor rewound to the start of its
    /// span. Every block a [`LevelWriter`] publishes must lie in one
    /// region. Nothing per entry is cleared but its bits; storage is
    /// retained, and the peak-occupancy watermark is kept for
    /// diagnostics.
    pub fn reset(&mut self, region: usize) {
        for bits in &mut self.bits {
            *bits.claimed.get_mut() = 0;
            *bits.switching.get_mut() = 0;
            *bits.high.get_mut() = 0;
        }
        self.partition(region);
    }

    /// Splits the storage into regions of `region` entries (clamped to
    /// `1 ..= entries`), every cursor at the start of its region's span.
    fn partition(&mut self, region: usize) {
        self.region = region.clamp(1, self.entries().max(1));
        let regions = self.entries().div_ceil(self.region);
        self.cursors.resize_with(regions, Cursor::default);
        let span = self.region * self.capacity;
        for (r, cursor) in self.cursors.iter_mut().enumerate() {
            *cursor.0.get_mut() = r * span;
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
    /// constant-low, one region, an unchanged one leaves them as they
    /// were): call [`Self::reset`] before use, as after any earlier
    /// batch.
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
        self.len.resize(entries, 0);
        self.off.resize(entries, 0);
        self.bits
            .resize_with(entries.div_ceil(64), CellBits::default);
        // Old spans are meaningless under the new shape.
        self.reset(entries);
        false
    }

    /// A read view of entry `idx`: constant-low while it is unwritten
    /// since the last [`Self::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: usize) -> WaveformView<'_> {
        assert!(idx < self.entries(), "arena cell {idx} out of range");
        let (bits, bit) = (&self.bits[idx / 64], 1u64 << (idx % 64));
        let times = if bits.switching.load(Ordering::Relaxed) & bit == 0 {
            &[][..]
        } else {
            let start = self.off[idx] as usize;
            &self.times[start..start + self.len[idx] as usize]
        };
        WaveformView {
            initial: bits.high.load(Ordering::Relaxed) & bit != 0,
            times,
        }
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

    /// A shared [`LevelWriter`] through which any worker may write each
    /// cell not yet written since the last [`Self::reset`] — once. Claims
    /// outlive the writer, so writers opened one after another within a
    /// batch see each other's cells as written. See [`LevelWriter`] for
    /// the access discipline.
    pub fn level_writer(&mut self) -> LevelWriter<'_> {
        LevelWriter {
            capacity: self.capacity,
            entries: self.len.len(),
            region: self.region,
            len: self.len.as_mut_ptr(),
            off: self.off.as_mut_ptr(),
            times: self.times.as_mut_ptr(),
            cursors: &self.cursors,
            bits: &self.bits,
            peak: &self.peak,
            _arena: std::marker::PhantomData,
        }
    }
}

/// One finished cell waiting in a [`GateScratch`] for
/// [`LevelWriter::publish`]; its transitions are the next `len` of the
/// scratch's staged times.
#[derive(Debug)]
pub(crate) struct StagedCell {
    idx: usize,
    len: u32,
    initial: bool,
}

/// One 64-entry word's share of a block [`LevelWriter::publish`] is
/// moving into the arena: the cells it writes, and of those the ones
/// that switch and the ones that start high.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockWord {
    word: usize,
    cells: u64,
    switching: u64,
    high: u64,
}

/// A shared handle through which the workers of one *batch* of a
/// levelized simulation write a [`WaveformArena`] — stimuli, every
/// level's gate outputs and passthroughs — created by
/// [`WaveformArena::level_writer`].
///
/// # Access discipline
///
/// * Every cell may be **written at most once** between two
///   [`WaveformArena::reset`]s. Writes claim the cell's atomic bit first
///   (`fetch_or`, acquire-release); exactly one writer wins, so the
///   subsequent plain stores of its `off`/`len` are exclusive, and only
///   the winner sets its switching and high bits (`fetch_or`, release —
///   the switching bit after the `off`/`len` it guards). A second write
///   of the same cell panics instead of racing.
/// * Transitions reach the arena a block at a time
///   ([`LevelWriter::stage`] or [`LevelWriter::stage_edge`], then
///   [`LevelWriter::publish`]), every cell of a block in one region
///   (see [`WaveformArena::reset`]): the publisher reserves a span of
///   the region's packed part of `times` with one `fetch_add` on the
///   region's cursor, so concurrent publishers fill disjoint spans, and
///   fills it before any of the block's claims goes out. An output that
///   is never staged reserves nothing.
/// * Reads ([`LevelWriter::read_run`], whose [`WrittenRun::view`]s it
///   checked once, and [`LevelWriter::copy_cell`]'s source) must target
///   cells **already written in this batch**, and the caller must have
///   synchronized with their writer. In a levelized schedule both hold
///   by construction: a level's gates read only fanin cells of strictly
///   earlier levels, and a level opens only after every task of the one
///   before it reported done. The claim bit is checked on every read
///   and panics when the cell is unwritten — a read ahead of
///   levelization. This is a best-effort tripwire for the *values*: a
///   claimed cell whose bits are still in flight passes the check and
///   reads as a constant, which only a broken schedule can see. Memory
///   safety needs no schedule: a cell's span is read only behind its
///   switching bit, which its writer sets after storing the span.
///
/// The writer is `Send + Sync`; it borrows the arena mutably, so no other
/// access to the arena is possible until it is dropped.
pub struct LevelWriter<'a> {
    capacity: usize,
    entries: usize,
    /// Entries per region: region `r` holds cells `r·region ..` and the
    /// `times` span `r·region·capacity ..`, one `capacity` per cell.
    region: usize,
    len: *mut u32,
    off: *mut u32,
    times: *mut f64,
    cursors: &'a [Cursor],
    bits: &'a [CellBits],
    peak: &'a AtomicUsize,
    _arena: std::marker::PhantomData<&'a mut WaveformArena>,
}

impl std::fmt::Debug for LevelWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelWriter")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

// SAFETY: all mutation goes through the per-cell claim protocol (one
// exclusive winner per cell per batch, the only thread that stores the
// cell's `off`/`len`), atomic `fetch_or`s of the per-cell bits and the
// region cursors' reservation (one exclusive span of `times` per
// published block); spans are read only behind a switching bit set
// after they were stored. The raw pointers are valid for the arena
// borrow 'a.
unsafe impl Send for LevelWriter<'_> {}
// SAFETY: shared references only permit protocol-mediated access (same
// argument as Send above): `publish`/`write_constant_run`/`copy_cell`
// first win the per-cell atomic claim and set the other bits with
// `fetch_or`, `publish` copies only into the span its own `fetch_add` on
// its region's cursor reserved, and `read_run`/`copy_cell` (and the
// views of a `WrittenRun`) read a cell's `off`/`len` and span only
// after an acquire load saw the switching bit its writer set (release)
// once it had stored them — and no one stores them again before the
// next reset — so `&LevelWriter` is safe to share.
unsafe impl Sync for LevelWriter<'_> {}

/// A lane run whose masked cells [`LevelWriter::read_run`] found written:
/// their quiet and initial words, and views of them that need no claim
/// check of their own.
#[derive(Debug, Clone, Copy)]
pub struct WrittenRun<'w> {
    writer: &'w LevelWriter<'w>,
    start: usize,
    lanes: u64,
    quiet: u64,
    initial: u64,
}

impl<'w> WrittenRun<'w> {
    /// The masked lanes whose cell has zero transitions.
    #[inline]
    pub fn quiet(&self) -> u64 {
        self.quiet
    }

    /// The masked lanes whose cell starts high.
    #[inline]
    pub fn initial(&self) -> u64 {
        self.initial
    }

    /// A read view of lane `lane`'s cell.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not one of the lanes the run was read for.
    #[inline]
    pub fn view(&self, lane: usize) -> WaveformView<'w> {
        assert!(
            self.lanes
                .checked_shr(lane as u32)
                .is_some_and(|b| b & 1 == 1),
            "lane {lane} of arena run {} was not read",
            self.start
        );
        let times = if self.quiet >> lane & 1 == 1 {
            &[][..]
        } else {
            // SAFETY: `read_run` found the cell in range, and its acquire
            // load saw the cell's switching bit, which the cell's one
            // writer set (release) after storing its `off`/`len` and
            // filling its span; none is stored again before the next
            // reset.
            unsafe { self.writer.times_unchecked(self.start + lane) }
        };
        WaveformView {
            initial: self.initial >> lane & 1 == 1,
            times,
        }
    }
}

/// Bits `shift .. shift + span` of a loaded word, moved down to bit 0.
#[inline]
fn lane_window(loaded: u64, shift: usize, span: usize) -> u64 {
    if span >= 64 {
        loaded >> shift
    } else {
        (loaded >> shift) & ((1u64 << span) - 1)
    }
}

impl LevelWriter<'_> {
    /// Per-entry transition capacity (same as the parent arena's).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cells addressable through this writer.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Claims cell `idx`; returns whether this caller won the claim.
    #[inline]
    fn claim(&self, idx: usize) -> bool {
        let bit = 1u64 << (idx % 64);
        self.bits[idx / 64].claimed.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Sets, in the word `field` selects, the bit of every cell
    /// `start + k` for each set bit `k` of `mask`, using one `fetch_or`
    /// per touched word (full lane runs are word-aligned by
    /// [`crate::LaneLayout`], so the common case is a single atomic op;
    /// partial tails may straddle two words). Returns the lane bits that
    /// were **already set** — for claims, `0` means this caller won every
    /// requested cell.
    #[inline]
    fn set_run(
        &self,
        start: usize,
        mask: u64,
        field: fn(&CellBits) -> &AtomicU64,
        order: Ordering,
    ) -> u64 {
        let mut lost = 0u64;
        let mut rem = mask;
        while rem != 0 {
            let k = rem.trailing_zeros() as usize;
            let idx = start + k;
            let shift = idx % 64;
            // Lane bits k .. k + (64 − shift) land in this word.
            let span = 64 - shift;
            let window = if span >= 64 {
                rem
            } else {
                rem & (((1u64 << span) - 1) << k)
            };
            let bits = (window >> k) << shift;
            let prev = field(&self.bits[idx / 64]).fetch_or(bits, order);
            lost |= ((prev & bits) >> shift) << k;
            rem &= !window;
        }
        lost
    }

    /// The claimed, switching and high bits of cells
    /// `start .. start + width` (lane bit `k` ↔ cell `start + k`), read
    /// with acquire ordering.
    #[inline]
    fn run_bits(&self, start: usize, width: usize) -> [u64; 3] {
        debug_assert!(width <= 64);
        let mut out = [0u64; 3];
        let mut k = 0;
        while k < width {
            let idx = start + k;
            let shift = idx % 64;
            let span = (64 - shift).min(width - k);
            let bits = &self.bits[idx / 64];
            // The claim first: a reader that sees a cell claimed sees
            // whatever its writer stored before the claim.
            for (out, word) in out
                .iter_mut()
                .zip([&bits.claimed, &bits.switching, &bits.high])
            {
                *out |= lane_window(word.load(Ordering::Acquire), shift, span) << k;
            }
            k += span;
        }
        out
    }

    /// Reads the `lanes` of the lane run at `start` once: checks that
    /// every masked cell is written (see the access discipline above)
    /// and returns the run with its *quiet* and *initial* words — one
    /// load of each bit word per 64-cell word the run touches, whatever
    /// its width. Bit `k` of [`WrittenRun::quiet`] is set iff bit `k` of
    /// `lanes` is and cell `start + k` has zero transitions — a constant
    /// signal for the whole simulation window; bit `k` of
    /// [`WrittenRun::initial`] is that cell's initial logic value. A gate
    /// whose quiet fanin cells fix its output has a constant output,
    /// found for 64 lanes at once from these words by
    /// [`crate::constant_lanes`] instead of a waveform evaluation. In a
    /// lane-major arena one net's waveforms for a whole lane group are
    /// contiguous ([`crate::LaneLayout::run_start`]); a one-lane run is
    /// the single cell. Unmasked lanes are not read, and
    /// [`WrittenRun::view`] serves only the masked ones.
    ///
    /// # Panics
    ///
    /// Panics if the masked run leaves the arena or any masked cell is
    /// not written yet.
    #[inline]
    pub fn read_run(&self, start: usize, lanes: u64) -> WrittenRun<'_> {
        let [claimed, switching, high] = if lanes == 0 {
            [0; 3]
        } else {
            let width = 64 - lanes.leading_zeros() as usize;
            assert!(
                start + width <= self.entries,
                "lane run {start}+{width} out of range"
            );
            self.run_bits(start, width)
        };
        let unwritten = lanes & !claimed;
        assert!(
            unwritten == 0,
            "read of arena run {start} (lanes {unwritten:#x}) not written yet this batch"
        );
        WrittenRun {
            writer: self,
            start,
            lanes,
            quiet: lanes & !switching,
            initial: lanes & high,
        }
    }

    /// The stored transitions of cell `idx`.
    ///
    /// # Safety
    ///
    /// `idx` must be in range, and the caller must have seen its
    /// switching bit set with an acquire load (see
    /// [`LevelWriter::read_run`]).
    #[inline]
    // SAFETY: unsafe to call; `WrittenRun::view` calls it only for lanes
    // whose switching bit `read_run` loaded set.
    unsafe fn times_unchecked(&self, idx: usize) -> &[f64] {
        // SAFETY: the caller's contract: the cell's one writer stored its
        // `off`/`len` — within a region's span of the reservation, which
        // `publish` filled before any claim of the block went out — and
        // then set the switching bit the caller's acquire load saw; no
        // one stores them again, nor writes below a cursor it reserved
        // from, before the next reset.
        unsafe {
            let start = *self.off.add(idx) as usize;
            let len = *self.len.add(idx) as usize;
            std::slice::from_raw_parts(self.times.add(start), len)
        }
    }

    /// Writes constant signals into the masked lanes of a run: for every
    /// set bit `k` of `mask`, cell `start + k` becomes a constant of logic
    /// value `bit k of values`. The whole run's claims are won with at
    /// most two `fetch_or`s (one for a word-aligned full group) and its
    /// high lanes set with as many more — the quiet-cell fast path. Per
    /// cell it is equivalent to staging and publishing an empty output,
    /// but infallible and storage-free: a constant (zero transitions)
    /// fits any capacity and reserves nothing. Unmasked lanes are
    /// untouched and stay unclaimed.
    ///
    /// # Panics
    ///
    /// Panics if the masked run leaves the arena or any masked cell was
    /// already written.
    pub fn write_constant_run(&self, start: usize, mask: u64, values: u64) {
        if mask == 0 {
            return;
        }
        let top = 63 - mask.leading_zeros() as usize;
        assert!(
            start + top < self.entries,
            "lane run {start}+{top} out of range"
        );
        let lost = self.set_run(start, mask, |b| &b.claimed, Ordering::AcqRel);
        assert!(
            lost == 0,
            "arena run {start} (lanes {lost:#x}) written twice within one batch"
        );
        // A quiet cell's switching bit stays clear; the peak watermark is
        // untouched — `max(peak, 0)` is the identity.
        self.set_run(start, mask & values, |b| &b.high, Ordering::Release);
    }

    /// Makes cell `dst` the same waveform as the written cell `src` —
    /// the passthrough for identity stages (e.g. primary-output
    /// observation nodes) — and returns a view of it. A switching cell is
    /// pointed at `src`'s stored transitions: nothing is copied and no
    /// storage is reserved.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, `src` is not written yet
    /// or `dst` was already written.
    pub fn copy_cell(&self, src: usize, dst: usize) -> WaveformView<'_> {
        assert!(dst < self.entries, "arena cell {dst} out of range");
        let from = self.read_run(src, 1);
        assert!(
            self.claim(dst),
            "arena cell {dst} written twice within one batch"
        );
        let (bits, bit) = (&self.bits[dst / 64], 1u64 << (dst % 64));
        if from.quiet == 0 {
            // SAFETY: both cells are in range (checked above and by
            // `read_run`). `read_run`'s acquire load saw `src`'s switching
            // bit, so its `off`/`len` are stored and never stored again
            // before the next reset; this caller won `dst`'s claim, so
            // its stores of `dst`'s are exclusive — the two cells alias
            // one span of `times`.
            unsafe {
                *self.len.add(dst) = *self.len.add(src);
                *self.off.add(dst) = *self.off.add(src);
            }
            bits.switching.fetch_or(bit, Ordering::Release);
        }
        if from.initial != 0 {
            bits.high.fetch_or(bit, Ordering::Release);
        }
        from.view(0)
    }

    /// Stages the output the last evaluation left in `scratch`
    /// ([`GateScratch::scheduled`]) as cell `idx` with initial value
    /// `initial`, and returns its statistics. Nothing reaches the arena
    /// — no claim, no reservation — before [`LevelWriter::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] if the output exceeds the per-cell
    /// capacity; the output stays unstaged (the next evaluation drops
    /// it), so the cell is left untouched and unclaimed.
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
        if transitions.len() > self.capacity {
            return Err(CapacityOverflow {
                capacity: self.capacity,
            });
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

    /// Stages a stimulus as cell `idx`: value `initial`, switching once
    /// at `edge` — [`LevelWriter::stage`] for an output no evaluation
    /// produced, with the same statistics. A stimulus that holds its
    /// value is a constant ([`LevelWriter::write_constant_run`]).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] if the arena's cells hold no
    /// transition (nothing staged).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn stage_edge(
        &self,
        scratch: &mut GateScratch,
        idx: usize,
        initial: bool,
        edge: f64,
    ) -> Result<WaveformStats, CapacityOverflow> {
        scratch.sched.truncate(scratch.staged_len);
        scratch.sched.push(edge);
        self.stage(scratch, idx, initial)
    }

    /// Moves every cell staged in `scratch` into the arena and empties
    /// the scratch: the block's cells are gathered into 64-cell words (a
    /// cell staged twice, or a block that leaves its first cell's region,
    /// panics here, before any claim goes out), one `fetch_add` on the
    /// region's cursor reserves the block's span of `times`, one copy
    /// fills it, one `fetch_or` per word wins the block's cells of that
    /// word, each switching cell's `off`/`len` is stored, and one
    /// `fetch_or` per word sets the switching and the high bits where
    /// any of its cells needs them. A gate's lanes are consecutive cells
    /// of one run, so a lane group's outputs cost at most three atomic
    /// operations, not one per lane. The arena's peak-occupancy watermark
    /// is *not* touched — one shared cache line per gate written is what
    /// this path avoids; the caller keeps its own running maximum of the
    /// lengths it staged and reports it once with
    /// [`LevelWriter::note_occupancy`].
    ///
    /// # Panics
    ///
    /// Panics if a cell was staged twice or was already written, if the
    /// block holds cells of two regions, or if the block does not fit
    /// its region's span — which takes a cell rewritten without a
    /// [`WaveformArena::reset`] in between.
    pub fn publish(&self, scratch: &mut GateScratch) {
        let total = scratch.staged_len;
        let Some(first) = scratch.staged.first() else {
            scratch.sched.clear();
            return;
        };
        let r = first.idx / self.region;
        let cells = r * self.region..((r + 1) * self.region).min(self.entries);
        let words = &mut scratch.words;
        words.clear();
        for cell in &scratch.staged {
            assert!(
                cells.contains(&cell.idx),
                "arena cell {} published in a block of region {r} (cells {cells:?})",
                cell.idx
            );
            let (word, bit) = (cell.idx / 64, 1u64 << (cell.idx % 64));
            let switching = if cell.len > 0 { bit } else { 0 };
            let high = if cell.initial { bit } else { 0 };
            match words.last_mut() {
                Some(last) if last.word == word => {
                    assert!(
                        last.cells & bit == 0,
                        "arena cell {} written twice within one batch",
                        cell.idx
                    );
                    last.cells |= bit;
                    last.switching |= switching;
                    last.high |= high;
                }
                _ => words.push(BlockWord {
                    word,
                    cells: bit,
                    switching,
                    high,
                }),
            }
        }
        // Consecutive cells of one word — a gate's lanes — merged above;
        // words staged apart merge after the sort, which passes a block
        // already in word order in one scan.
        words.sort_unstable_by_key(|w| w.word);
        words.dedup_by(|later, earlier| {
            let same = later.word == earlier.word;
            if same {
                let twice = later.cells & earlier.cells;
                assert!(
                    twice == 0,
                    "arena cell {} written twice within one batch",
                    later.word * 64 + twice.trailing_zeros() as usize
                );
                earlier.cells |= later.cells;
                earlier.switching |= later.switching;
                earlier.high |= later.high;
            }
            same
        });
        // Relaxed: the cursor publishes no data, it only hands out
        // disjoint spans; the spans' contents reach readers through the
        // release `fetch_or`s of the switching bits below.
        let start = self.cursors[r].0.fetch_add(total, Ordering::Relaxed);
        // Region `r`'s span ends where its cells' share of the
        // reservation does. Each of its cells is written at most once
        // between resets with at most `capacity` transitions, so the
        // region's blocks fill at most exactly its span: only a cell
        // rewritten without a reset can fail this.
        assert!(
            start
                .checked_add(total)
                .is_some_and(|end| end <= cells.end * self.capacity),
            "arena region {r} exhausted: cells rewritten without a reset"
        );
        // SAFETY: `start .. start + total` lies inside region `r`'s span
        // (asserted above), which lies inside the reservation's
        // `entries × capacity` elements of `times`, and was handed to
        // this caller alone by the `fetch_add` on the region's cursor:
        // every other block reserves either from another region's span
        // or from this cursor. No view can reach it, because every stored
        // span ends at or below a cursor value observed before its
        // reservation. `sched` holds at least `staged_len` initialised
        // elements.
        unsafe {
            std::ptr::copy_nonoverlapping(scratch.sched.as_ptr(), self.times.add(start), total);
        }
        scratch.sched.clear();
        scratch.staged_len = 0;
        for w in &scratch.words {
            let lost = self.bits[w.word]
                .claimed
                .fetch_or(w.cells, Ordering::AcqRel)
                & w.cells;
            assert!(
                lost == 0,
                "arena cell {} written twice within one batch",
                w.word * 64 + lost.trailing_zeros() as usize
            );
        }
        let mut off = start;
        for cell in scratch.staged.drain(..) {
            if cell.len > 0 {
                // SAFETY: this caller won the claim for `cell.idx` (in
                // range, checked by `stage`) above, so it has exclusive
                // write access to the cell's `len`/`off` until the next
                // reset, and no reader loads them before the switching
                // bit set below. The span `off .. off + len` is the
                // cell's share of the block copied above and
                // `off < entries × capacity ≤ u32::MAX`.
                unsafe {
                    *self.len.add(cell.idx) = cell.len;
                    *self.off.add(cell.idx) = off as u32;
                }
            }
            off += cell.len as usize;
        }
        debug_assert_eq!(off, start + total);
        for w in &scratch.words {
            let bits = &self.bits[w.word];
            if w.switching != 0 {
                bits.switching.fetch_or(w.switching, Ordering::Release);
            }
            if w.high != 0 {
                bits.high.fetch_or(w.high, Ordering::Release);
            }
        }
    }

    /// Folds a worker's running maximum of written transition counts
    /// into the arena's peak-occupancy watermark — called once per
    /// worker per batch rather than once per write. Max is
    /// order-independent, so the watermark equals what per-write
    /// updates would have produced.
    pub fn note_occupancy(&self, transitions: usize) {
        self.peak.fetch_max(transitions, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_gate_bounded_raw, LaneLayout, PinDelays};

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

    /// Writes a constant of value `high` as cell `idx`.
    fn write_constant(writer: &LevelWriter<'_>, idx: usize, high: bool) {
        writer.write_constant_run(idx, 1, u64::from(high));
    }

    /// A view of the written cell `idx`, through a one-lane run read.
    fn view<'w>(writer: &'w LevelWriter<'w>, idx: usize) -> WaveformView<'w> {
        writer.read_run(idx, 1).view(0)
    }

    /// Writes `waveform` as cell `idx` through a writer of its own, and
    /// folds its length into the occupancy watermark.
    fn write(
        arena: &mut WaveformArena,
        idx: usize,
        waveform: &Waveform,
    ) -> Result<(), CapacityOverflow> {
        let writer = arena.level_writer();
        let mut scratch = GateScratch::new();
        scratch.sched.extend_from_slice(waveform.transitions());
        let stats = writer.stage(&mut scratch, idx, waveform.initial_value())?;
        writer.publish(&mut scratch);
        writer.note_occupancy(stats.transitions);
        Ok(())
    }

    /// Resets `arena` to one region.
    fn reset_whole(arena: &mut WaveformArena) {
        arena.reset(arena.entries());
    }

    /// Transitions written since the last reset, over every region.
    fn written(arena: &mut WaveformArena) -> usize {
        let span = arena.region * arena.capacity;
        let mut total = 0;
        for (r, cursor) in arena.cursors.iter_mut().enumerate() {
            total += *cursor.0.get_mut() - r * span;
        }
        total
    }

    /// The `(off, len)` spans of the switching cells among `cells`,
    /// sorted.
    fn spans(arena: &WaveformArena, cells: std::ops::Range<usize>) -> Vec<(usize, usize)> {
        let mut spans: Vec<_> = cells
            .filter(|&idx| !arena.view(idx).transitions().is_empty())
            .map(|idx| (arena.off[idx] as usize, arena.len[idx] as usize))
            .collect();
        spans.sort_unstable();
        spans
    }

    /// Whether `f` panics.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn round_trips_waveforms() {
        let mut arena = WaveformArena::new(4, 8);
        let w = Waveform::with_transitions(true, vec![1.0, 5.0, 9.0]).unwrap();
        write(&mut arena, 2, &w).unwrap();
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
        assert_eq!(
            write(&mut arena, 0, &w),
            Err(CapacityOverflow { capacity: 2 })
        );
        // Entry unchanged, and still writable.
        assert_eq!(arena.to_waveform(0), Waveform::constant(false));
        let fits = Waveform::with_transitions(false, vec![1.0, 2.0]).unwrap();
        write(&mut arena, 0, &fits).unwrap();
        assert_eq!(arena.to_waveform(0), fits);
    }

    #[test]
    fn reset_clears_entries_and_claims_but_keeps_peak() {
        let mut arena = WaveformArena::new(2, 4);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0]).unwrap();
        write(&mut arena, 1, &w).unwrap();
        reset_whole(&mut arena);
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
        assert_eq!(arena.peak_occupancy(), 2);
        // The cell is unwritten again: readable through no writer, and
        // writable once more.
        assert!(panics(|| {
            let writer = arena.level_writer();
            let _ = view(&writer, 1);
        }));
        write(&mut arena, 1, &w).unwrap();
        assert_eq!(arena.to_waveform(1), w);
    }

    #[test]
    fn reshape_to_a_smaller_shape_keeps_storage() {
        let mut arena = WaveformArena::new(8, 16);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0, 3.0]).unwrap();
        write(&mut arena, 7, &w).unwrap();
        let (times, lens) = (arena.times.as_ptr(), arena.len.as_ptr());
        let bits = arena.bits.as_ptr();
        // Fewer entries, then fewer-but-wider cells, then the original
        // shape again: all fit the first allocation.
        for (entries, capacity) in [(3, 16), (2, 64), (8, 16)] {
            assert!(!arena.reshape(entries, capacity), "{entries}×{capacity}");
            assert_eq!((arena.entries(), arena.capacity()), (entries, capacity));
            assert_eq!(arena.times.as_ptr(), times, "times lane kept");
            assert_eq!(arena.len.as_ptr(), lens, "len lane kept");
            assert_eq!(arena.bits.as_ptr(), bits, "cell bits kept");
            assert_eq!(arena.peak_occupancy(), 0, "a new watermark per reshape");
            reset_whole(&mut arena);
            for idx in 0..entries {
                assert_eq!(arena.to_waveform(idx), Waveform::constant(false));
            }
            // The reshaped arena is fully usable: last cell, full capacity.
            let full: Vec<f64> = (0..capacity).map(|t| t as f64).collect();
            let w = Waveform::with_transitions(false, full).unwrap();
            write(&mut arena, entries - 1, &w).unwrap();
            assert_eq!(arena.to_waveform(entries - 1), w);
            let writer = arena.level_writer();
            assert_eq!(writer.entries(), entries);
            write_constant(&writer, 0, true);
        }
    }

    #[test]
    fn reshape_to_the_same_shape_touches_nothing_but_the_watermark() {
        let mut arena = WaveformArena::new(4, 4);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0]).unwrap();
        write(&mut arena, 1, &w).unwrap();
        assert_eq!(arena.peak_occupancy(), 2);
        assert!(!arena.reshape(4, 4));
        assert_eq!(arena.peak_occupancy(), 0);
        // Stale but valid until the caller's reset.
        assert_eq!(arena.to_waveform(1), w);
        reset_whole(&mut arena);
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
    }

    #[test]
    fn a_times_lane_is_heap_sized_or_reserved_past_the_mmap_ceiling() {
        let small = WaveformArena::new(255, 64);
        assert_eq!(small.times.len(), 255 * 64);
        let large = WaveformArena::new(256, 64);
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
            write(&mut arena, idx, &full).unwrap();
        }
        assert_eq!(written(&mut arena), 4 * 2);
        // Without a rewind there is no room left for a rewrite ...
        assert!(
            panics(|| {
                let _ = write(&mut arena, 0, &full);
            }),
            "a rewrite past the reservation must panic"
        );
        // ... a reset gives the whole reservation back ...
        reset_whole(&mut arena);
        assert_eq!(written(&mut arena), 0);
        for idx in 0..4 {
            write(&mut arena, idx, &full).unwrap();
        }
        // ... and so does a reshape that changes the shape.
        assert!(!arena.reshape(2, 4));
        assert_eq!(written(&mut arena), 0);
        let wide = Waveform::with_transitions(true, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        write(&mut arena, 0, &wide).unwrap();
        write(&mut arena, 1, &wide).unwrap();
        assert_eq!(arena.to_waveform(1), wide);
    }

    #[test]
    fn reshape_beyond_the_allocation_reallocates() {
        let mut arena = WaveformArena::new(4, 4);
        let w = Waveform::with_transitions(true, vec![1.0, 2.0]).unwrap();
        write(&mut arena, 3, &w).unwrap();
        // More cells than the times lane holds.
        assert!(arena.reshape(4, 8));
        assert_eq!((arena.entries(), arena.capacity()), (4, 8));
        // More entries than the len lane holds, though fewer cells.
        assert!(arena.reshape(16, 1));
        assert_eq!((arena.entries(), arena.capacity()), (16, 1));
        assert_eq!(arena.peak_occupancy(), 0);
        reset_whole(&mut arena);
        for idx in 0..16 {
            assert_eq!(arena.to_waveform(idx), Waveform::constant(false));
        }
        let w = Waveform::with_transitions(false, vec![9.0]).unwrap();
        write(&mut arena, 15, &w).unwrap();
        assert_eq!(arena.to_waveform(15), w);
    }

    #[test]
    fn level_writer_reports_occupancy_once_per_worker() {
        let mut arena = WaveformArena::new(4, 8);
        {
            let writer = arena.level_writer();
            write_one(&writer, 0, false, &[1.0, 2.0, 3.0]).unwrap();
            write_one(&writer, 1, false, &[1.0]).unwrap();
            // Writes alone leave the shared watermark alone ...
            writer.note_occupancy(1);
        }
        assert_eq!(arena.peak_occupancy(), 1);
        {
            // ... until the worker folds its running maximum in.
            let writer = arena.level_writer();
            writer.note_occupancy(3);
            writer.note_occupancy(2);
        }
        assert_eq!(arena.peak_occupancy(), 3);
    }

    #[test]
    fn copy_cell_is_a_passthrough() {
        let mut arena = WaveformArena::new(4, 4);
        let w = Waveform::with_transitions(true, vec![3.0, 8.0]).unwrap();
        {
            let writer = arena.level_writer();
            write_one(&writer, 0, true, &[3.0, 8.0]).unwrap();
            assert_eq!(writer.copy_cell(0, 2).transitions(), &[3.0, 8.0]);
            assert_eq!(view(&writer, 2).transitions(), &[3.0, 8.0]);
            // The source must be written and the target must not be.
            assert!(panics(|| {
                writer.copy_cell(1, 3);
            }));
            assert!(panics(|| {
                writer.copy_cell(0, 2);
            }));
        }
        assert_eq!(arena.to_waveform(2), w);
        // Source is untouched, unrelated cells too.
        assert_eq!(arena.to_waveform(0), w);
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
        // The copy is an alias: it took no storage of its own ...
        assert_eq!(written(&mut arena), 2);
        // ... and still reads back after later writers appended theirs.
        for (idx, t) in [(1, 10.0), (3, 11.0)] {
            let writer = arena.level_writer();
            assert_eq!(view(&writer, 2).transitions(), &[3.0, 8.0]);
            write_one(&writer, idx, false, &[t]).unwrap();
        }
        assert_eq!(arena.to_waveform(2), w);
        assert_eq!(arena.to_waveform(0), w);
        assert_eq!(arena.view(3).transitions(), &[11.0]);
    }

    #[test]
    fn views_feed_the_bounded_kernel() {
        let mut arena = WaveformArena::new(2, 4);
        let a = Waveform::with_transitions(false, vec![100.0]).unwrap();
        let b = Waveform::constant(true);
        write(&mut arena, 0, &a).unwrap();
        write(&mut arena, 1, &b).unwrap();
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
            let writer = arena.level_writer();
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
        for idx in 0..64 {
            let v = arena.view(idx);
            assert_eq!(v.initial_value(), idx % 2 == 0);
            assert_eq!(v.transitions(), cell_times(idx));
        }
        // Packed with zero waste: the spans tile `0 .. used` exactly.
        let mut end = 0;
        for (off, len) in spans(&arena, 0..64) {
            assert_eq!(off, end, "spans are disjoint and gap-free");
            end = off + len;
        }
        assert_eq!(end, written(&mut arena));
        assert_eq!(end, (0..64).map(|idx| idx % 4).sum::<usize>());
    }

    #[test]
    fn every_cell_at_full_capacity_fits_the_reservation_exactly() {
        let mut arena = WaveformArena::new(6, 3);
        let full = [1.0, 2.0, 3.0];
        {
            let writer = arena.level_writer();
            let mut scratch = GateScratch::new();
            for idx in 0..6 {
                scratch.sched.extend_from_slice(&full);
                writer.stage(&mut scratch, idx, true).unwrap();
                if idx % 2 == 1 {
                    writer.publish(&mut scratch);
                }
            }
        }
        assert_eq!(written(&mut arena), 6 * 3);
        for idx in 0..6 {
            assert_eq!(arena.view(idx).transitions(), &full);
        }
        // One transition more has nowhere to go: the next publisher
        // panics instead of writing past the reservation.
        let writer = arena.level_writer();
        assert!(
            panics(|| {
                let _ = write_one(&writer, 0, true, &[9.0]);
            }),
            "a block past the reservation must panic"
        );
    }

    #[test]
    fn two_regions_publish_at_once_each_into_its_own_span() {
        let mut arena = WaveformArena::new(64, 4);
        arena.reset(32);
        {
            let writer = arena.level_writer();
            let writer = &writer;
            let start = std::sync::Barrier::new(2);
            let start = &start;
            std::thread::scope(|scope| {
                // Thread `r` writes region `r`'s cells, four to a block.
                for r in 0..2usize {
                    scope.spawn(move || {
                        let mut scratch = GateScratch::new();
                        start.wait();
                        for idx in r * 32..(r + 1) * 32 {
                            scratch.sched.extend(cell_times(idx));
                            writer.stage(&mut scratch, idx, idx % 2 == 0).unwrap();
                            if idx % 4 == 3 {
                                writer.publish(&mut scratch);
                            }
                        }
                    });
                }
            });
        }
        for idx in 0..64 {
            assert_eq!(arena.view(idx).transitions(), cell_times(idx));
        }
        // Each region's spans tile the start of its own span of `times`,
        // packed from the region's first element.
        for r in 0..2 {
            let mut end = r * 32 * 4;
            for (off, len) in spans(&arena, r * 32..(r + 1) * 32) {
                assert_eq!(off, end, "region {r}: disjoint and gap-free");
                end = off + len;
            }
            let want: usize = (r * 32..(r + 1) * 32).map(|idx| idx % 4).sum();
            assert_eq!(end, r * 32 * 4 + want, "region {r}");
            assert!(end <= (r + 1) * 32 * 4, "region {r} stays in its span");
        }
    }

    #[test]
    fn a_region_with_every_cell_at_capacity_fits_exactly() {
        // Regions of 4 cells over 10: cells 0..4, 4..8 and the tail 8..10.
        let mut arena = WaveformArena::new(10, 3);
        arena.reset(4);
        let full = [1.0, 2.0, 3.0];
        {
            let writer = arena.level_writer();
            let mut scratch = GateScratch::new();
            for idx in (4..10).chain(0..4) {
                scratch.sched.extend_from_slice(&full);
                writer.stage(&mut scratch, idx, true).unwrap();
                if idx % 2 == 1 {
                    writer.publish(&mut scratch);
                }
            }
        }
        // Every region ends exactly at its span's end; the tail's is the
        // end of the reservation.
        let ends: Vec<usize> = arena.cursors.iter_mut().map(|c| *c.0.get_mut()).collect();
        assert_eq!(ends, [4 * 3, 8 * 3, 10 * 3]);
        for idx in 0..10 {
            assert_eq!(arena.view(idx).transitions(), &full, "cell {idx}");
        }
        // One transition more has nowhere to go in a full region.
        let writer = arena.level_writer();
        let message = panic_message(|| {
            let _ = write_one(&writer, 5, true, &[9.0]);
        });
        assert!(message.contains("region 1 exhausted"), "{message}");
    }

    #[test]
    fn a_block_mixing_two_regions_panics_before_any_claim() {
        let mut arena = WaveformArena::new(16, 2);
        arena.reset(8);
        {
            let writer = arena.level_writer();
            let mut scratch = GateScratch::new();
            let message = panic_message(|| {
                for idx in [6, 7, 8] {
                    stage_cell(&writer, &mut scratch, idx);
                }
                writer.publish(&mut scratch);
            });
            assert!(
                message.contains("arena cell 8 published in a block of region 0"),
                "{message}"
            );
            // The block claimed nothing: each cell is written normally
            // alone.
            for idx in [6, 7, 8] {
                write_one(&writer, idx, true, &[1.0]).unwrap();
            }
        }
        // A region wider than the arena is the whole arena.
        arena.reset(usize::MAX);
        let writer = arena.level_writer();
        let mut scratch = GateScratch::new();
        for idx in [0, 8, 15] {
            stage_cell(&writer, &mut scratch, idx);
        }
        writer.publish(&mut scratch);
        assert_eq!(view(&writer, 15).transitions(), &[15.0]);
    }

    #[test]
    fn level_writer_quiet_bits_and_constant_writes() {
        let mut arena = WaveformArena::new(5, 2);
        {
            let writer = arena.level_writer();
            write_constant(&writer, 0, false);
            write_one(&writer, 1, true, &[5.0]).unwrap();
            write_constant(&writer, 2, true);
            // A one-lane run is the single cell. Quiet = zero
            // transitions; a toggling cell is not quiet.
            let quiet = |idx| writer.read_run(idx, 1).quiet();
            assert_eq!(quiet(0), 1);
            assert_eq!(quiet(1), 0);
            assert_eq!(quiet(2), 1, "constant-high is quiet too");
            // The constant fast path claims the cell like a normal write.
            write_constant(&writer, 3, true);
            assert!(
                panics(|| write_constant(&writer, 3, false)),
                "double constant write must panic"
            );
            // Reading the quiet bit of a cell not written yet trips the
            // same wire as a view of it.
            assert!(
                panics(|| {
                    let _ = quiet(4);
                }),
                "unwritten quiet read must panic"
            );
            writer.note_occupancy(1);
        }
        assert_eq!(arena.to_waveform(3), Waveform::constant(true));
        // A constant write never moves the peak watermark.
        assert_eq!(arena.peak_occupancy(), 1);
        // A constant write is bit-for-bit equivalent to an empty write.
        reset_whole(&mut arena);
        {
            let writer = arena.level_writer();
            write_constant(&writer, 0, true);
            write_one(&writer, 3, true, &[]).unwrap();
        }
        assert_eq!(arena.to_waveform(0), arena.to_waveform(3));
    }

    #[test]
    fn an_overflowed_output_leaves_the_block_and_its_cell_alone() {
        let mut arena = WaveformArena::new(4, 1);
        {
            let writer = arena.level_writer();
            let mut scratch = GateScratch::new();
            scratch.sched.push(1.0);
            writer.stage(&mut scratch, 0, false).unwrap();
            // Two transitions do not fit a capacity of 1 ...
            scratch.sched.extend_from_slice(&[2.0, 3.0]);
            assert_eq!(
                writer.stage(&mut scratch, 1, false),
                Err(CapacityOverflow { capacity: 1 })
            );
            // ... and the unstaged output is dropped by the next
            // evaluation, which here produces a constant.
            let quiet = Waveform::constant(true);
            let d = [PinDelays::default()];
            evaluate_gate_bounded_raw(&[&quiet], &d, |v| v[0], &mut scratch, 1).unwrap();
            writer.stage(&mut scratch, 2, true).unwrap();
            writer.publish(&mut scratch);
        }
        assert_eq!(arena.to_waveform(1), Waveform::constant(false));
        assert_eq!(arena.to_waveform(2), Waveform::constant(true));
        // The published block holds cell 0's transition and nothing of
        // the overflowed cell's.
        assert_eq!(written(&mut arena), 1);
        assert_eq!(arena.view(0).transitions(), &[1.0]);
        // The cell was left unclaimed: a later writer of the same batch
        // writes it normally.
        {
            let writer = arena.level_writer();
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
        // One group of 8 lanes over two nets: runs 0..8 and 8..16.
        let (a, b) = (0, 8);
        let writer = arena.level_writer();
        // Run `a`: mixed initial values and one loud cell.
        writer.write_constant_run(a, 0b1111_1011, 0b0010_0000);
        write_one(&writer, 2, false, &[3.0]).unwrap();
        // Quiet bits: all but lane 2.
        assert_eq!(writer.read_run(a, 0xFF).quiet(), 0b1111_1011);
        // Initial bits: only lane 5 is high.
        assert_eq!(writer.read_run(a, 0xFF).initial(), 0b0010_0000);
        // Only the masked lanes are read and reported.
        assert_eq!(writer.read_run(a, 0b0000_0110).quiet(), 0b0000_0010);
        assert_eq!(writer.read_run(a, 0b0000_1111).initial(), 0);
        // Masked constant write: lanes 0, 2, 3 of run `b`.
        writer.write_constant_run(b, 0b1101, 0b0100);
        // The written lanes read back; unmasked lane 1 is unwritten, so a
        // mask naming it trips the wire ...
        assert_eq!(writer.read_run(b, 0b1101).quiet(), 0b1101);
        assert!(
            panics(|| {
                let _ = writer.read_run(b, 0b1111).initial();
            }),
            "a run read naming an unwritten lane must panic"
        );
        // ... and it stays unclaimed and writable.
        writer.write_constant_run(b, 0b10, 0b10);
        // Double-writing a masked lane panics.
        assert!(
            panics(|| writer.write_constant_run(b, 0b0001, 0)),
            "lane double write must panic"
        );
        // An all-zero mask is a no-op that reads nothing.
        writer.write_constant_run(b, 0, !0);
        assert_eq!(writer.read_run(b, 0).quiet(), 0);
        assert_eq!(arena.to_waveform(8), Waveform::constant(false));
        assert_eq!(arena.to_waveform(9), Waveform::constant(true));
        assert_eq!(arena.to_waveform(10), Waveform::constant(true));
        assert_eq!(arena.to_waveform(11), Waveform::constant(false));
        assert_eq!(arena.to_waveform(5), Waveform::constant(true));
    }

    #[test]
    fn lane_runs_straddle_claim_words() {
        // One tail group of width 12 over 16 nets: net 5's run holds
        // cells 60..72 and net 10's cells 120..132, so each crosses a
        // 64-bit word boundary — the two-word paths of a tail group.
        let mut arena = WaveformArena::new(192, 2);
        let layout = LaneLayout::new(64, 16, 12);
        let (five, ten) = (layout.run_start(0, 5), layout.run_start(0, 10));
        let writer = arena.level_writer();
        writer.write_constant_run(five, 0xFFF & !(1 << 10), 0);
        write_one(&writer, 70, true, &[1.0]).unwrap();
        assert_eq!(writer.read_run(five, 0xFFF).quiet(), 0xFFF & !(1 << 10));
        assert_eq!(writer.read_run(five, 0xFFF).initial(), 1 << 10);
        // Claim lanes on both sides of the boundary in one call.
        writer.write_constant_run(ten, 0b11_0000_0011, 0b10_0000_0001);
        assert_eq!(
            writer.read_run(ten, 0b11_0000_0011).initial(),
            0b10_0000_0001
        );
        assert!(
            panics(|| {
                let _ = writer.read_run(ten, 0xFFF).quiet();
            }),
            "a run read over unwritten lanes must panic"
        );
        assert!(
            panics(|| writer.write_constant_run(ten, 0b1_0000_0000, 0)),
            "a lane past the boundary is claimed"
        );
        // Mask bits 0, 1 land in claim word 1 (cells 120, 121); bits 8, 9
        // land in claim word 2 (cells 128, 129).
        assert_eq!(arena.to_waveform(120), Waveform::constant(true));
        assert_eq!(arena.to_waveform(121), Waveform::constant(false));
        assert_eq!(arena.to_waveform(128), Waveform::constant(false));
        assert_eq!(arena.to_waveform(129), Waveform::constant(true));
        assert_eq!(arena.view(70).transitions(), &[1.0]);
    }

    #[test]
    fn lane_run_claims_race_to_one_winner() {
        // Two threads fight over the same masked run; exactly one may win
        // its lanes, and the loser must observe the claim panic.
        let mut arena = WaveformArena::new(64, 2);
        let writer = arena.level_writer();
        let writer = &writer;
        let wins: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    scope.spawn(move || {
                        !panics(|| {
                            writer.write_constant_run(0, 0xFF, if t == 0 { 0xFF } else { 0 });
                        })
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

    /// The message `f` panics with (empty when it does not panic).
    fn panic_message(f: impl FnOnce()) -> String {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(()) => String::new(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default(),
        }
    }

    /// Stages one transition at `idx` (its own index as the time).
    fn stage_cell(writer: &LevelWriter<'_>, scratch: &mut GateScratch, idx: usize) {
        scratch.sched.push(idx as f64);
        writer.stage(scratch, idx, idx.is_multiple_of(2)).unwrap();
    }

    #[test]
    fn a_block_claims_every_cell_of_every_word_it_touches() {
        let mut arena = WaveformArena::new(192, 2);
        let writer = arena.level_writer();
        // Cells 60..68 straddle claim words 0 and 1; cell 130 is alone in
        // word 2, staged between them.
        let block: Vec<usize> = (60..64).chain([130]).chain(64..68).collect();
        let mut scratch = GateScratch::new();
        for &idx in &block {
            stage_cell(&writer, &mut scratch, idx);
        }
        writer.publish(&mut scratch);
        for &idx in &block {
            assert_eq!(
                view(&writer, idx).transitions(),
                &[idx as f64],
                "cell {idx}"
            );
            assert!(
                panic_message(|| write_constant(&writer, idx, false)).contains("written twice"),
                "cell {idx} is claimed"
            );
        }
        // The neighbours of the block stay unclaimed.
        for idx in [59, 68, 129, 131] {
            write_constant(&writer, idx, false);
        }
    }

    #[test]
    fn a_cell_written_twice_panics_whichever_block_holds_it() {
        let mut arena = WaveformArena::new(128, 2);
        let writer = arena.level_writer();
        let mut scratch = GateScratch::new();
        // Staged twice in one block: refused before any claim goes out,
        // so the block's other cells stay unclaimed.
        let message = panic_message(|| {
            for idx in [3, 70, 3] {
                stage_cell(&writer, &mut scratch, idx);
            }
            writer.publish(&mut scratch);
        });
        assert!(message.contains("arena cell 3 written twice"), "{message}");
        for idx in [3, 70] {
            write_constant(&writer, idx, false);
        }
        // Won by another block already.
        let mut scratch = GateScratch::new();
        let message = panic_message(|| {
            for idx in [10, 11, 70] {
                stage_cell(&writer, &mut scratch, idx);
            }
            writer.publish(&mut scratch);
        });
        assert!(message.contains("arena cell 70 written twice"), "{message}");
    }

    #[test]
    fn level_writer_rejects_double_write_and_unwritten_read() {
        let mut arena = WaveformArena::new(4, 2);
        {
            let writer = arena.level_writer();
            write_one(&writer, 1, true, &[5.0]).unwrap();
            // Second write of the same cell in one batch: claim panic.
            assert!(
                panics(|| {
                    let _ = write_one(&writer, 1, false, &[6.0]);
                }),
                "double write must panic"
            );
            // Reading a cell no one wrote yet: tripwire panic.
            assert!(
                panics(|| {
                    let _ = view(&writer, 0);
                }),
                "unwritten read must panic"
            );
            // Written cells are readable.
            assert_eq!(view(&writer, 1).transitions(), &[5.0]);
            // Overflow leaves the cell unclaimed and untouched.
            assert_eq!(
                write_one(&writer, 2, false, &[1.0, 2.0, 3.0]),
                Err(CapacityOverflow { capacity: 2 })
            );
            write_one(&writer, 2, false, &[1.0, 2.0]).unwrap();
        }
        {
            // A later writer of the same batch sees both cells written.
            let writer = arena.level_writer();
            assert_eq!(view(&writer, 2).transitions(), &[1.0, 2.0]);
            assert!(
                panics(|| {
                    let _ = write_one(&writer, 1, false, &[9.0]);
                }),
                "claims outlive the writer"
            );
        }
        // A reset clears the claims.
        reset_whole(&mut arena);
        {
            let writer = arena.level_writer();
            write_one(&writer, 1, false, &[9.0]).unwrap();
        }
        assert_eq!(arena.view(1).transitions(), &[9.0]);
    }

    /// What slot `slot` of net `net` holds in `round` of the lane-word
    /// test under `layout`: `None` for a cell left unwritten, else its
    /// waveform.
    fn planned(layout: LaneLayout, round: usize, slot: usize, net: usize) -> Option<Waveform> {
        let (s, high) = (slot + round, (slot / 2 + round) % 2 == 1);
        let g = slot / layout.lanes();
        let last = layout.group_slot(g) + layout.group_width(g) - 1;
        let switching = |n: usize| {
            let times = (0..n).map(|k| (slot * 8 + k + 1) as f64).collect();
            Waveform::with_transitions(high, times).unwrap()
        };
        match net {
            // Stimuli: one edge or none.
            0 => Some(switching(s % 3 % 2)),
            // The passthrough of net 1 leaves each group's last lane out.
            2 if slot == last => None,
            // A gate task: every other lane a constant, the rest
            // switching — or an empty output, one in three.
            1 | 2 if s.is_multiple_of(2) => Some(Waveform::constant(high)),
            1 | 2 => Some(switching(s % 3)),
            _ => None,
        }
    }

    /// Stages `wave` as cell `idx`.
    fn stage_wave(
        writer: &LevelWriter<'_>,
        scratch: &mut GateScratch,
        idx: usize,
        wave: &Waveform,
    ) {
        scratch.sched.extend_from_slice(wave.transitions());
        writer.stage(scratch, idx, wave.initial_value()).unwrap();
    }

    /// Writes `round` of the lane-word test into `arena`, reset to
    /// `layout` (4 nets), one block per group and net: net 0 published
    /// as stimuli are; net 1 as a gate task is — in even rounds its
    /// constant lanes stored as one run and the rest published, in odd
    /// rounds every lane published; net 2 copied from net 1 lane by lane;
    /// net 3 left unwritten.
    fn write_round(arena: &mut WaveformArena, layout: LaneLayout, round: usize) {
        arena.reset(layout.group_entries());
        let writer = arena.level_writer();
        let mut scratch = GateScratch::new();
        for g in 0..layout.groups() {
            let (base, width) = (layout.group_slot(g), layout.group_width(g));
            let plan = |lane: usize, net| planned(layout, round, base + lane, net).unwrap();
            for lane in 0..width {
                stage_wave(
                    &writer,
                    &mut scratch,
                    layout.run_start(g, 0) + lane,
                    &plan(lane, 0),
                );
            }
            writer.publish(&mut scratch);
            let (mut constant, mut values) = (0u64, 0u64);
            for lane in 0..width {
                if round.is_multiple_of(2) && (base + lane + round).is_multiple_of(2) {
                    constant |= 1 << lane;
                    values |= u64::from(plan(lane, 1).initial_value()) << lane;
                }
            }
            writer.write_constant_run(layout.run_start(g, 1), constant, values);
            for lane in (0..width).filter(|&lane| constant >> lane & 1 == 0) {
                stage_wave(
                    &writer,
                    &mut scratch,
                    layout.run_start(g, 1) + lane,
                    &plan(lane, 1),
                );
            }
            writer.publish(&mut scratch);
            for lane in 0..width - 1 {
                let (from, to) = (layout.run_start(g, 1), layout.run_start(g, 2));
                let copy = writer.copy_cell(from + lane, to + lane);
                assert_eq!(copy.transitions(), plan(lane, 1).transitions());
            }
        }
    }

    /// Holds every cell of `arena`, and the quiet and initial words of
    /// its written lanes, to `round`'s plan under `layout`.
    fn check_round(arena: &mut WaveformArena, layout: LaneLayout, round: usize) {
        for slot in 0..layout.slots() {
            for net in 0..4 {
                let want = planned(layout, round, slot, net);
                assert_eq!(
                    arena.to_waveform(layout.index(slot, net)),
                    want.unwrap_or(Waveform::constant(false)),
                    "round {round}, L={}, slot {slot}, net {net}",
                    layout.lanes()
                );
            }
        }
        let writer = arena.level_writer();
        for g in 0..layout.groups() {
            let base = layout.group_slot(g);
            for net in 0..4 {
                let at = format!("round {round}, L={}, group {g}, net {net}", layout.lanes());
                let plan: Vec<_> = (0..layout.group_width(g))
                    .map(|lane| planned(layout, round, base + lane, net))
                    .collect();
                let (mut written, mut quiet, mut high) = (0u64, 0u64, 0u64);
                for (lane, wave) in plan.iter().enumerate() {
                    if let Some(wave) = wave {
                        written |= 1 << lane;
                        quiet |= u64::from(wave.transitions().is_empty()) << lane;
                        high |= u64::from(wave.initial_value()) << lane;
                    }
                }
                let run = writer.read_run(layout.run_start(g, net), written);
                assert_eq!((run.quiet(), run.initial()), (quiet, high), "{at}");
                for (lane, wave) in plan.iter().enumerate() {
                    if let Some(wave) = wave {
                        let view = run.view(lane);
                        assert_eq!(view.initial_value(), wave.initial_value(), "{at}");
                        assert_eq!(view.transitions(), wave.transitions(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_words_agree_with_the_cells() {
        // Widths 1, 8 and 64; the last two end on tail groups of 3 and 19.
        for (lanes, slots) in [(1, 5), (8, 19), (64, 64 + 19)] {
            let layout = LaneLayout::new(lanes, 4, slots);
            let mut arena = WaveformArena::new(layout.entries(), 4);
            // Constant runs, then everything published, over the
            // `len`/`off` the first round left.
            for round in 0..2 {
                write_round(&mut arena, layout, round);
                check_round(&mut arena, layout, round);
            }
            // A retry round: the slots left, at a larger capacity, in the
            // reshaped arena, whose stale `len`/`off` no reset clears.
            let retry = LaneLayout::new(lanes, 4, slots / 2 + 1);
            assert!(!arena.reshape(retry.entries(), 6));
            write_round(&mut arena, retry, 2);
            check_round(&mut arena, retry, 2);
        }
    }
}

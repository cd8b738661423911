//! Models of the engine's lock-free protocols, checked exhaustively.
//!
//! These mirror the real implementations step-for-step at the atomic
//! granularity of the code:
//!
//! * **Claim protocol** (`avfs-waveform`'s `WaveformArena`): each writer
//!   performs one `fetch_or(AcqRel)` on the per-cell claim bitmap; the
//!   thread that observes the bit clear is the *single winner* and gains
//!   exclusive write access to the cell's transition storage. Writers
//!   that hit arena overflow skip the claim entirely and leave the cell
//!   unclaimed for quarantine-and-retry.
//! * **Lane-claim protocol** (`avfs-waveform`'s `claim_run` /
//!   `write_constant_run`): the lane-major generalization — one
//!   `fetch_or(AcqRel)` claims a whole lane *mask* of a run's claim word
//!   and the writer wins exactly the bits it observed clear, so the
//!   single-winner invariant must hold per lane even when racing masks
//!   overlap on some lanes and not others. Within a level one
//!   worker's constant run (the quiet lanes of its task) and another
//!   worker's `publish` (one claim per claim word its block touches)
//!   claim disjoint bits of the *same* word, so neither may clear a bit
//!   the other won.
//! * **Reservation protocol** (`avfs-waveform`'s `LevelWriter::publish`):
//!   waveforms are stored packed behind a shared bump cursor. A
//!   publisher reserves its block's span with one `fetch_add`, copies
//!   the block into it, then wins its cells' claims with one `fetch_or`
//!   per claim word and only then stores each cell's `off`/`len`. Spans
//!   reserved by concurrent publishers must be disjoint and gap-free,
//!   and an output that overflowed reserves nothing.
//! * **Epoch protocol** (`avfs-core`'s `WorkerPool`): the coordinator
//!   publishes a job, bumps the epoch counter to release parked workers,
//!   then waits for the running count to drain back to zero before
//!   invalidating the job and publishing the next one.
//! * **Hand-off protocol** (`avfs-core`'s batch walk): inside one pool
//!   release, a lane group's owner opens each level by resetting the
//!   group's `done` count and fault bits and then publishing the level
//!   and its first gate as one packed cursor word; any worker grabs a
//!   chunk with one `fetch_add` on that word, runs it, records its
//!   faults and bumps `done`; the owner closes the level once `done`
//!   reaches the gate count, then opens the next.
//!
//! Each `check_*` function explores **every** interleaving of the model
//! via [`explore`] and returns the exploration statistics, or a failing
//! schedule as a witness. The `tests` module additionally contains
//! deliberately broken variants (non-atomic claim, non-atomic lane
//! claim, non-atomic reservation, barrier-free coordinator, a cursor
//! torn into a level word and a gate word) proving the checker detects
//! the races these protocols are designed to prevent.

use crate::interleave::{explore, Explored, InterleaveError, StepResult, ThreadModel};
use crate::Finding;

/// Upper bound on modeled writers/workers: exploration is factorial in
/// thread count, and lock-free protocol bugs manifest by 2–3 threads.
pub const MAX_MODEL_THREADS: usize = 3;

// ---------------------------------------------------------------------
// Claim protocol (WaveformArena per-cell claim bitmap)
// ---------------------------------------------------------------------

/// Shared state of the claim model: one cell of the claim bitmap plus
/// instrumentation observing the exclusivity the protocol must provide.
#[derive(Clone, Debug)]
struct ClaimState {
    /// The cell's claim bit (one bit of the real `AtomicU64` bitmap).
    claimed: bool,
    /// Writers currently inside the cell's write section. The claim
    /// protocol exists to make this never exceed one.
    writers_in_section: u32,
    /// Which writer's payload the cell holds.
    cell_value: Option<usize>,
    /// Total writes performed on the cell.
    writes: u32,
    /// Threads that observed themselves as the claim winner.
    winners: u32,
}

/// One writer thread racing to claim and fill the cell.
#[derive(Clone)]
struct ClaimWriter {
    id: usize,
    /// Writers past the arena's capacity watermark take the overflow
    /// path: no claim, no write (the cell is left for quarantine).
    overflow: bool,
    pc: u8,
}

impl ThreadModel<ClaimState> for ClaimWriter {
    fn step(&mut self, shared: &mut ClaimState) -> StepResult {
        if self.overflow {
            // Overflow path: bail before touching the claim bitmap.
            return StepResult::Finished;
        }
        match self.pc {
            0 => {
                // fetch_or(bit, AcqRel): one atomic step.
                let prev = shared.claimed;
                shared.claimed = true;
                if prev {
                    return StepResult::Finished; // lost the claim
                }
                shared.winners += 1;
                self.pc = 1;
                StepResult::Ran
            }
            1 => {
                shared.writers_in_section += 1;
                self.pc = 2;
                StepResult::Ran
            }
            2 => {
                shared.cell_value = Some(self.id);
                shared.writes += 1;
                self.pc = 3;
                StepResult::Ran
            }
            _ => {
                shared.writers_in_section -= 1;
                StepResult::Finished
            }
        }
    }
}

fn claim_invariant(s: &ClaimState) -> Result<(), String> {
    if s.writers_in_section > 1 {
        return Err(format!(
            "{} writers inside the cell's write section",
            s.writers_in_section
        ));
    }
    if s.winners > 1 {
        return Err(format!("{} threads won the claim for one cell", s.winners));
    }
    Ok(())
}

/// Checks the single-winner claim invariant over `writers` racing
/// threads (clamped to [`MAX_MODEL_THREADS`]), with `overflow_writers`
/// additional threads taking the arena-overflow bail-out path.
///
/// # Errors
///
/// Returns the failing schedule if any interleaving admits two winners,
/// two concurrent writers, a lost write, or an overflow-path write.
pub fn check_claim_protocol(
    writers: usize,
    overflow_writers: usize,
) -> Result<Explored, InterleaveError> {
    let writers = writers.clamp(1, MAX_MODEL_THREADS);
    let mut threads: Vec<ClaimWriter> = (0..writers)
        .map(|id| ClaimWriter {
            id,
            overflow: false,
            pc: 0,
        })
        .collect();
    threads.extend(
        (0..overflow_writers.min(MAX_MODEL_THREADS)).map(|i| ClaimWriter {
            id: writers + i,
            overflow: true,
            pc: 0,
        }),
    );
    let shared = ClaimState {
        claimed: false,
        writers_in_section: 0,
        cell_value: None,
        writes: 0,
        winners: 0,
    };
    let normal = writers;
    explore(&shared, &threads, &claim_invariant, &|s| {
        if s.winners != 1 {
            return Err(format!("expected exactly one winner, saw {}", s.winners));
        }
        if s.writes != 1 {
            return Err(format!("cell written {} times, want exactly 1", s.writes));
        }
        match s.cell_value {
            Some(id) if id < normal => Ok(()),
            Some(id) => Err(format!("overflow writer {id} wrote the cell")),
            None => Err("claim won but cell never written".into()),
        }
    })
}

// ---------------------------------------------------------------------
// Lane-claim protocol (WaveformArena masked run claims)
// ---------------------------------------------------------------------

/// Lanes in the lane-claim model: every masked-claim race is a per-bit
/// race, and four lanes let a constant run and a `publish` interleave
/// their cells on one word.
const MODEL_LANES: usize = 4;

/// Shared state of the lane-claim model: one claim *word* covering the
/// lanes of a run, plus per-lane instrumentation. This mirrors
/// `claim_run` in `avfs-waveform`: a writer claims a whole lane mask with
/// one `fetch_or(AcqRel)` and wins exactly the bits it observed clear.
#[derive(Clone, Debug)]
struct LaneClaimState {
    /// The run's claim bits (a window of the real `AtomicU64` bitmap).
    claimed: u64,
    /// Writers currently inside each lane's write section.
    writers_in_section: [u32; MODEL_LANES],
    /// Which writer's payload each lane holds.
    lane_value: [Option<usize>; MODEL_LANES],
    /// Writes performed on each lane.
    writes: [u32; MODEL_LANES],
    /// Threads that observed themselves as each lane's claim winner.
    winners: [u32; MODEL_LANES],
}

/// One writer claiming its lane masks in order, filling the lanes each
/// claim won before making the next: a constant run
/// (`write_constant_run`) is one mask of its task's quiet lanes, a
/// `publish` one mask of its block's cells per claim word.
#[derive(Clone)]
struct LaneClaimWriter {
    id: usize,
    masks: Vec<u64>,
    /// Writers past the capacity watermark skip the claim entirely.
    overflow: bool,
    /// Claims are a load and then a store of the word instead of one
    /// `fetch_or` — the broken variant tests use to prove the checker
    /// catches a non-atomic claim.
    torn: bool,
    /// Index into `masks` of the next claim.
    next: usize,
    /// The word a torn claim loaded, between its two steps.
    seen: Option<u64>,
    /// Lanes the last claim won and not yet written.
    won: u64,
    /// Step of the current lane's enter/write/leave section.
    pc: u8,
}

impl LaneClaimWriter {
    fn done(&self) -> StepResult {
        if self.won == 0 && self.next == self.masks.len() {
            StepResult::Finished
        } else {
            StepResult::Ran
        }
    }
}

impl ThreadModel<LaneClaimState> for LaneClaimWriter {
    fn step(&mut self, shared: &mut LaneClaimState) -> StepResult {
        if self.overflow || self.masks.is_empty() {
            return StepResult::Finished;
        }
        if self.won == 0 {
            let mask = self.masks[self.next];
            let prev = if self.torn {
                let Some(seen) = self.seen.take() else {
                    self.seen = Some(shared.claimed);
                    return StepResult::Ran;
                };
                shared.claimed = seen | mask;
                seen
            } else {
                // fetch_or(mask, AcqRel): one atomic step claims every
                // lane of the mask at once; the bits observed clear are
                // won.
                let prev = shared.claimed;
                shared.claimed |= mask;
                prev
            };
            self.won = mask & !prev;
            for lane in 0..MODEL_LANES {
                if self.won & (1 << lane) != 0 {
                    shared.winners[lane] += 1;
                }
            }
            self.next += 1;
            return self.done();
        }
        // Per-lane write section, one won lane at a time — the masked
        // constant store of `write_constant_run` iterates its won bits
        // without further synchronization.
        let lane = self.won.trailing_zeros() as usize;
        match self.pc {
            0 => shared.writers_in_section[lane] += 1,
            1 => {
                shared.lane_value[lane] = Some(self.id);
                shared.writes[lane] += 1;
            }
            _ => {
                shared.writers_in_section[lane] -= 1;
                self.won &= self.won - 1;
            }
        }
        self.pc = (self.pc + 1) % 3;
        self.done()
    }
}

fn lane_claim_invariant(s: &LaneClaimState) -> Result<(), String> {
    for lane in 0..MODEL_LANES {
        if s.writers_in_section[lane] > 1 {
            return Err(format!(
                "{} writers inside lane {lane}'s write section",
                s.writers_in_section[lane]
            ));
        }
        if s.winners[lane] > 1 {
            return Err(format!(
                "{} threads won the claim for lane {lane}",
                s.winners[lane]
            ));
        }
        if s.winners[lane] > 0 && s.claimed & (1 << lane) == 0 {
            return Err(format!("lane {lane}'s won claim was lost from the word"));
        }
    }
    Ok(())
}

/// Checks the per-lane single-winner invariant of masked run claims:
/// `writers[i]` is the sequence of claim masks writer `i` makes (clamped
/// to [`MAX_MODEL_THREADS`] writers over `MODEL_LANES` = 4 lanes), with
/// `overflow_writers` additional threads taking the capacity bail-out
/// path (mask held but never claimed). A writer's mask is a constant
/// run's quiet lanes or a `publish`'s cells of the word, so constant
/// runs and publishes can share one claim word.
///
/// # Errors
///
/// Returns the failing schedule if any interleaving admits two winners of
/// one lane, two concurrent writers in one lane's section, a won claim
/// cleared from the word, a covered lane left unwritten, or an
/// overflow-path write.
fn check_lane_claim_protocol(
    writers: &[&[u64]],
    overflow_writers: usize,
) -> Result<Explored, InterleaveError> {
    check_lane_claims(writers, overflow_writers, false)
}

fn check_lane_claims(
    writers: &[&[u64]],
    overflow_writers: usize,
    torn: bool,
) -> Result<Explored, InterleaveError> {
    let lane_mask = (1u64 << MODEL_LANES) - 1;
    let writer = |id, masks: Vec<u64>, overflow| LaneClaimWriter {
        id,
        masks,
        overflow,
        torn,
        next: 0,
        seen: None,
        won: 0,
        pc: 0,
    };
    let mut threads: Vec<LaneClaimWriter> = writers
        .iter()
        .take(MAX_MODEL_THREADS)
        .enumerate()
        .map(|(id, masks)| writer(id, masks.iter().map(|m| m & lane_mask).collect(), false))
        .collect();
    let normal = threads.len();
    threads.extend(
        (0..overflow_writers.min(MAX_MODEL_THREADS))
            .map(|i| writer(normal + i, vec![lane_mask], true)),
    );
    let covered: u64 = threads
        .iter()
        .filter(|t| !t.overflow)
        .flat_map(|t| &t.masks)
        .fold(0, |acc, m| acc | m);
    let shared = LaneClaimState {
        claimed: 0,
        writers_in_section: [0; MODEL_LANES],
        lane_value: [None; MODEL_LANES],
        writes: [0; MODEL_LANES],
        winners: [0; MODEL_LANES],
    };
    explore(&shared, &threads, &lane_claim_invariant, &|s| {
        for lane in 0..MODEL_LANES {
            if covered & (1 << lane) == 0 {
                if s.writes[lane] != 0 {
                    return Err(format!("uncovered lane {lane} was written"));
                }
                continue;
            }
            if s.winners[lane] != 1 {
                return Err(format!(
                    "lane {lane}: expected exactly one winner, saw {}",
                    s.winners[lane]
                ));
            }
            if s.writes[lane] != 1 {
                return Err(format!(
                    "lane {lane} written {} times, want exactly 1",
                    s.writes[lane]
                ));
            }
            match s.lane_value[lane] {
                Some(id) if id < normal => {}
                Some(id) => return Err(format!("overflow writer {id} wrote lane {lane}")),
                None => return Err(format!("lane {lane} claim won but never written")),
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------
// Reservation protocol (LevelWriter::publish into the packed times lane)
// ---------------------------------------------------------------------

/// Cells in the reservation model.
const MODEL_CELLS: usize = 4;

/// Elements of the modeled `times` lane — the reservation
/// (`entries × capacity` in the real arena).
const MODEL_TIMES: usize = 8;

/// Shared state of the reservation model: the bump cursor, the packed
/// lane with the publisher that filled each element, and the per-cell
/// claim and span lanes.
#[derive(Clone, Debug)]
struct ReservationState {
    /// The storage cursor (`AtomicUsize` in the real arena).
    cursor: usize,
    /// Which publisher filled each element of the packed lane.
    filled: [Option<usize>; MODEL_TIMES],
    /// Which publisher holds each cell's claim.
    claimed_by: [Option<usize>; MODEL_CELLS],
    /// The `(publisher, off, len)` stored for each cell.
    spans: [Option<(usize, usize, usize)>; MODEL_CELLS],
    /// Set by a step that broke the protocol.
    violation: Option<String>,
}

/// One publisher's block in the reservation model: its staged outputs as
/// `(cell, len)` pairs, in staging order.
pub type ModelBlock = [(usize, usize)];

/// One worker publishing a block of `(cell, len)` outputs. The modeled
/// cells share one claim word, so the block's claims are one
/// `fetch_or`.
#[derive(Clone)]
struct Publisher {
    id: usize,
    block: Vec<(usize, usize)>,
    /// An output that overflowed was never staged: nothing to publish.
    overflow: bool,
    /// When false, the reservation is a load and a store instead of one
    /// `fetch_add` — the broken variant used by tests to prove the
    /// checker catches overlapping spans.
    atomic_reserve: bool,
    /// Start of the reserved span (in the torn variant: the cursor value
    /// its load observed).
    start: usize,
    pc: usize,
}

impl Publisher {
    fn total(&self) -> usize {
        self.block.iter().map(|&(_, len)| len).sum()
    }
}

impl ThreadModel<ReservationState> for Publisher {
    fn step(&mut self, shared: &mut ReservationState) -> StepResult {
        if self.overflow {
            // Overflow path: bail before touching the cursor or a claim.
            return StepResult::Finished;
        }
        match self.pc {
            0 if self.atomic_reserve => {
                // fetch_add(total): one atomic step.
                self.start = shared.cursor;
                shared.cursor += self.total();
                self.pc = 2;
            }
            0 => {
                self.start = shared.cursor;
                self.pc = 1;
            }
            1 => {
                shared.cursor = self.start + self.total();
                self.pc = 2;
            }
            2 => {
                // The block copy: plain stores into the reserved span.
                for e in self.start..self.start + self.total() {
                    match shared.filled.get(e).copied() {
                        None => {
                            shared.violation =
                                Some(format!("publisher {} wrote past the reservation", self.id));
                        }
                        Some(Some(other)) => {
                            shared.violation = Some(format!(
                                "element {e} filled by publishers {other} and {}",
                                self.id
                            ));
                        }
                        Some(None) => shared.filled[e] = Some(self.id),
                    }
                }
                self.pc = 3;
            }
            3 => {
                // fetch_or of the block's bits of the claim word: one
                // atomic step sets them all, and a bit already set makes
                // the real writer panic before it stores a cell.
                let lost = self
                    .block
                    .iter()
                    .any(|&(cell, _)| shared.claimed_by[cell].is_some());
                for &(cell, _) in &self.block {
                    shared.claimed_by[cell].get_or_insert(self.id);
                }
                if lost || self.block.is_empty() {
                    return StepResult::Finished;
                }
                self.pc = 4;
            }
            pc => {
                // Per staged cell: store its span under the won claim.
                let k = pc - 4;
                let (cell, len) = self.block[k];
                if shared.claimed_by[cell] != Some(self.id) {
                    shared.violation = Some(format!(
                        "publisher {} stored cell {cell} without holding its claim",
                        self.id
                    ));
                }
                let off = self.start + self.block[..k].iter().map(|&(_, l)| l).sum::<usize>();
                shared.spans[cell] = Some((self.id, off, len));
                if k + 1 == self.block.len() {
                    return StepResult::Finished;
                }
                self.pc += 1;
            }
        }
        StepResult::Ran
    }
}

fn reservation_invariant(s: &ReservationState) -> Result<(), String> {
    match &s.violation {
        Some(v) => Err(v.clone()),
        None => Ok(()),
    }
}

fn check_reservation(
    blocks: &[&ModelBlock],
    overflow_publishers: usize,
    atomic_reserve: bool,
) -> Result<Explored, InterleaveError> {
    let mut threads: Vec<Publisher> = blocks
        .iter()
        .take(MAX_MODEL_THREADS)
        .enumerate()
        .map(|(id, block)| Publisher {
            id,
            block: block.to_vec(),
            overflow: false,
            atomic_reserve,
            start: 0,
            pc: 0,
        })
        .collect();
    let publishing = threads.len();
    let expect_used: usize = threads.iter().map(Publisher::total).sum();
    let expect_cells: usize = threads.iter().map(|t| t.block.len()).sum();
    assert!(
        expect_used <= MODEL_TIMES
            && threads
                .iter()
                .all(|t| t.block.iter().all(|&(c, _)| c < MODEL_CELLS)),
        "blocks fit the modeled arena"
    );
    threads.extend(
        (0..overflow_publishers.min(MAX_MODEL_THREADS)).map(|i| Publisher {
            id: publishing + i,
            block: vec![(0, 1)],
            overflow: true,
            atomic_reserve,
            start: 0,
            pc: 0,
        }),
    );
    let shared = ReservationState {
        cursor: 0,
        filled: [None; MODEL_TIMES],
        claimed_by: [None; MODEL_CELLS],
        spans: [None; MODEL_CELLS],
        violation: None,
    };
    explore(&shared, &threads, &reservation_invariant, &|s| {
        if s.cursor != expect_used {
            return Err(format!(
                "cursor ended at {}, want {expect_used} (zero waste, nothing for overflows)",
                s.cursor
            ));
        }
        let stored: Vec<(usize, usize, usize)> = s.spans.iter().flatten().copied().collect();
        if stored.len() != expect_cells {
            return Err(format!(
                "{} cells stored, want {expect_cells}",
                stored.len()
            ));
        }
        let mut covered = 0u32;
        for (id, off, len) in stored {
            if id >= publishing {
                return Err(format!("overflow publisher {id} stored a cell"));
            }
            for e in off..off + len {
                if s.filled.get(e).copied().flatten() != Some(id) {
                    return Err(format!(
                        "publisher {id}'s cell reads element {e}, which it did not fill"
                    ));
                }
                if covered >> e & 1 == 1 {
                    return Err(format!("element {e} belongs to two cells"));
                }
                covered |= 1 << e;
            }
        }
        Ok(())
    })
}

/// Checks the packed-storage reservation protocol: `blocks[i]` is
/// publisher `i`'s block of `(cell, len)` outputs (clamped to
/// [`MAX_MODEL_THREADS`] publishers over `MODEL_CELLS` = 4 cells and
/// `MODEL_TIMES` = 8 elements), with `overflow_publishers` additional
/// threads whose output overflowed and was never staged.
///
/// # Errors
///
/// Returns the failing schedule if any interleaving lets two publishers
/// fill one element, stores a cell's span before its claim is won,
/// leaves a gap or a stored cell reading foreign data, or lets the
/// overflow path move the cursor.
///
/// # Panics
///
/// Panics if the blocks do not fit the modeled arena.
fn check_reservation_protocol(
    blocks: &[&ModelBlock],
    overflow_publishers: usize,
) -> Result<Explored, InterleaveError> {
    check_reservation(blocks, overflow_publishers, true)
}

// ---------------------------------------------------------------------
// Epoch protocol (WorkerPool publish → release → drain barrier)
// ---------------------------------------------------------------------

/// Shared state of the epoch model.
#[derive(Clone, Debug)]
struct EpochState {
    /// The generation counter workers park on.
    epoch: u64,
    /// Whether the published job pointer is currently valid. The real
    /// pool erases the job's lifetime; reading it after the coordinator
    /// invalidates it is the use-after-free this model hunts.
    job_valid: bool,
    /// Which epoch the published job belongs to.
    job_epoch: u64,
    /// Workers still running the current epoch's job.
    remaining: u32,
    /// Jobs executed across all epochs and workers.
    completed: u64,
    /// Set by a worker that read the job while invalid or stale.
    bad_read: Option<String>,
}

/// The coordinator: publishes each epoch's job, releases workers, then
/// drains the barrier before invalidating the job.
#[derive(Clone)]
struct Coordinator {
    workers: u32,
    epochs: u64,
    current: u64,
    pc: u8,
    /// When false, skip the drain wait — the broken variant used by
    /// tests to prove the checker catches use-after-invalidate.
    barrier: bool,
}

impl ThreadModel<EpochState> for Coordinator {
    fn step(&mut self, shared: &mut EpochState) -> StepResult {
        match self.pc {
            0 => {
                // Publish the next epoch's job while workers are parked.
                self.current += 1;
                shared.job_valid = true;
                shared.job_epoch = self.current;
                shared.remaining = self.workers;
                self.pc = 1;
                StepResult::Ran
            }
            1 => {
                // Bump the epoch: the release that unparks workers.
                shared.epoch = self.current;
                self.pc = 2;
                StepResult::Ran
            }
            _ => {
                // Drain barrier: wait for the running count to hit zero.
                if self.barrier && shared.remaining > 0 {
                    return StepResult::Blocked;
                }
                shared.job_valid = false;
                if self.current == self.epochs {
                    StepResult::Finished
                } else {
                    self.pc = 0;
                    StepResult::Ran
                }
            }
        }
    }
}

/// A pool worker: park on the epoch, read the job, signal completion.
#[derive(Clone)]
struct Worker {
    seen: u64,
    epochs: u64,
    pc: u8,
}

impl ThreadModel<EpochState> for Worker {
    fn step(&mut self, shared: &mut EpochState) -> StepResult {
        match self.pc {
            0 => {
                // Park: condvar wait until the epoch moves past `seen`.
                if shared.epoch == self.seen {
                    return if self.seen == self.epochs {
                        StepResult::Finished
                    } else {
                        StepResult::Blocked
                    };
                }
                self.seen = shared.epoch;
                self.pc = 1;
                StepResult::Ran
            }
            1 => {
                // Execute the job: the read the barrier must protect.
                if !shared.job_valid {
                    shared.bad_read = Some(format!(
                        "worker read invalidated job in epoch {}",
                        self.seen
                    ));
                } else if shared.job_epoch != self.seen {
                    shared.bad_read = Some(format!(
                        "worker in epoch {} read job for epoch {}",
                        self.seen, shared.job_epoch
                    ));
                }
                shared.completed += 1;
                self.pc = 2;
                StepResult::Ran
            }
            _ => {
                // fetch_sub on the running count.
                shared.remaining -= 1;
                self.pc = 0;
                StepResult::Ran
            }
        }
    }
}

fn epoch_invariant(s: &EpochState) -> Result<(), String> {
    if let Some(bad) = &s.bad_read {
        return Err(bad.clone());
    }
    Ok(())
}

fn check_epoch(workers: usize, epochs: u64, barrier: bool) -> Result<Explored, InterleaveError> {
    let workers = workers.clamp(1, MAX_MODEL_THREADS - 1);
    let coordinator = Coordinator {
        workers: workers as u32,
        epochs,
        current: 0,
        pc: 0,
        barrier,
    };
    let worker = Worker {
        seen: 0,
        epochs,
        pc: 0,
    };
    let shared = EpochState {
        epoch: 0,
        job_valid: false,
        job_epoch: 0,
        remaining: 0,
        completed: 0,
        bad_read: None,
    };
    // Heterogeneous threads: box-free dispatch via a small enum.
    #[derive(Clone)]
    enum Role {
        Coordinator(Coordinator),
        Worker(Worker),
    }
    impl ThreadModel<EpochState> for Role {
        fn step(&mut self, shared: &mut EpochState) -> StepResult {
            match self {
                Role::Coordinator(c) => c.step(shared),
                Role::Worker(w) => w.step(shared),
            }
        }
    }
    let mut threads = vec![Role::Coordinator(coordinator)];
    threads.extend((0..workers).map(|_| Role::Worker(worker.clone())));
    let expect = workers as u64 * epochs;
    explore(&shared, &threads, &epoch_invariant, &|s| {
        if s.completed != expect {
            return Err(format!("{} jobs completed, want {expect}", s.completed));
        }
        if s.job_valid {
            return Err("job still valid after shutdown".into());
        }
        Ok(())
    })
}

/// Checks the epoch-barrier release protocol: `workers` pool threads and
/// one coordinator across `epochs` publish/release/drain rounds. Proves
/// no worker ever observes an invalidated or stale job and every job
/// runs exactly once per worker per epoch.
///
/// # Errors
///
/// Returns the failing schedule if any interleaving admits a stale or
/// use-after-invalidate job read, a lost job, or a deadlock.
pub fn check_epoch_protocol(workers: usize, epochs: u64) -> Result<Explored, InterleaveError> {
    check_epoch(workers, epochs, true)
}

// ---------------------------------------------------------------------
// Hand-off protocol (a lane group's level walk inside one batch)
// ---------------------------------------------------------------------

/// Levels of the hand-off model.
const HANDOFF_LEVELS: usize = 2;

/// Gates per level of the hand-off model (one task each: chunk 1).
const HANDOFF_GATES: usize = 2;

/// Shared state of the hand-off model: one lane group's walk state plus
/// instrumentation.
#[derive(Clone, Debug)]
struct HandOffState {
    /// The cursor: the open level and its next gate — one packed word
    /// (`AtomicU64`) in the engine, two separate words in the torn
    /// variant.
    level: usize,
    gate: usize,
    /// Tasks of the open level that finished.
    done: usize,
    /// Fault bits of the open level: every task faults on its own bit,
    /// so a close must see all of them.
    died: u64,
    /// Runs per `(level, gate)` task.
    ran: [[u32; HANDOFF_GATES]; HANDOFF_LEVELS],
    /// Levels the owner closed.
    closed: usize,
    /// Set by a step that broke the protocol.
    violation: Option<String>,
}

impl HandOffState {
    /// Runs task `(level, gate)`: records it, checks that every task of
    /// the level before finished first, and sets the task's fault bit.
    fn run(&mut self, (level, gate): (usize, usize)) {
        if level > 0 && self.ran[level - 1].contains(&0) {
            self.violation = Some(format!(
                "task ({level}, {gate}) started before level {} finished",
                level - 1
            ));
        }
        self.ran[level][gate] += 1;
        self.died |= 1 << gate;
    }
}

/// A worker of the hand-off model: the owner (opens and closes levels,
/// grabs tasks of its open level) or a helper (grabs tasks until the
/// owner closed the last level).
#[derive(Clone)]
struct HandOffWorker {
    owner: bool,
    /// The cursor is two words: a grab reads the level, then bumps the
    /// gate, as two steps — and an open stores them as two steps.
    torn: bool,
    /// The owner's level to open next.
    level: usize,
    /// The torn grab's level, between its two steps.
    seen: Option<usize>,
    /// The grabbed task, between its run and its `done` increment.
    task: Option<(usize, usize)>,
    pc: u8,
}

impl HandOffWorker {
    /// One step of a grab through the cursor: `Some(Some(task))` when it
    /// won one, `Some(None)` when the level had no gate left, `None`
    /// after the first step of a torn grab.
    fn grab(&mut self, shared: &mut HandOffState) -> Option<Option<(usize, usize)>> {
        let (level, gate) = if self.torn {
            let Some(level) = self.seen.take() else {
                self.seen = Some(shared.level);
                return None;
            };
            (level, shared.gate)
        } else {
            // fetch_add on the packed word: level and gate in one step.
            (shared.level, shared.gate)
        };
        shared.gate += 1;
        Some((gate < HANDOFF_GATES).then_some((level, gate)))
    }
}

impl ThreadModel<HandOffState> for HandOffWorker {
    fn step(&mut self, shared: &mut HandOffState) -> StepResult {
        match (self.owner, self.pc) {
            // Owner: open the level — reset the counters it owns until
            // the publish, then publish level and gate 0.
            (true, 0) => {
                shared.done = 0;
                shared.died = 0;
                self.pc = 1;
            }
            (true, 1) if self.torn => {
                shared.gate = 0;
                self.pc = 2;
            }
            (true, 1 | 2) => {
                (shared.level, shared.gate) = (self.level, 0);
                self.pc = 3;
            }
            // Either role: grab, run, bump `done`.
            (_, 3) => match self.grab(shared) {
                None => {}
                Some(Some(task)) => {
                    self.task = Some(task);
                    self.pc = 4;
                }
                Some(None) => self.pc = 6,
            },
            (_, 4) => {
                shared.run(self.task.expect("grabbed"));
                self.pc = 5;
            }
            (_, 5) => {
                shared.done += 1;
                self.task = None;
                self.pc = 3;
            }
            // Owner: wait for every task of the level, then close it.
            (true, _) => {
                if shared.done < HANDOFF_GATES {
                    return StepResult::Blocked;
                }
                let all = (1 << HANDOFF_GATES) - 1;
                if shared.died != all {
                    shared.violation = Some(format!(
                        "close of level {} saw fault bits {:#b}, want {all:#b}",
                        self.level, shared.died
                    ));
                }
                shared.closed += 1;
                self.level += 1;
                if self.level == HANDOFF_LEVELS {
                    return StepResult::Finished;
                }
                self.pc = 0;
            }
            // Helper with nothing to grab: done once the walk ended,
            // else wait for a gate to appear.
            (false, _) => {
                if shared.closed == HANDOFF_LEVELS {
                    return StepResult::Finished;
                }
                if shared.gate >= HANDOFF_GATES {
                    return StepResult::Blocked;
                }
                self.pc = 3;
            }
        }
        StepResult::Ran
    }
}

fn handoff_invariant(s: &HandOffState) -> Result<(), String> {
    if let Some(v) = &s.violation {
        return Err(v.clone());
    }
    for (level, gates) in s.ran.iter().enumerate() {
        for (gate, &n) in gates.iter().enumerate() {
            if n > 1 {
                return Err(format!("task ({level}, {gate}) ran {n} times"));
            }
        }
    }
    Ok(())
}

fn check_handoff(torn: bool) -> Result<Explored, InterleaveError> {
    let worker = |owner| HandOffWorker {
        owner,
        torn,
        level: 0,
        seen: None,
        task: None,
        // A helper starts by looking for a gate, the owner by opening.
        pc: if owner { 0 } else { 6 },
    };
    let shared = HandOffState {
        level: 0,
        // Nothing is open before the owner's first publish.
        gate: HANDOFF_GATES,
        done: 0,
        died: 0,
        ran: [[0; HANDOFF_GATES]; HANDOFF_LEVELS],
        closed: 0,
        violation: None,
    };
    explore(
        &shared,
        &[worker(true), worker(false)],
        &handoff_invariant,
        &|s| {
            if s.closed != HANDOFF_LEVELS {
                return Err(format!("{} of {HANDOFF_LEVELS} levels closed", s.closed));
            }
            for (level, gates) in s.ran.iter().enumerate() {
                if let Some(gate) = gates.iter().position(|&n| n != 1) {
                    return Err(format!("task ({level}, {gate}) ran {} times", gates[gate]));
                }
            }
            Ok(())
        },
    )
}

/// Checks the lane-group hand-off of a batch walk: an owner and one
/// helper over two levels of two gates, chunks of one gate, every task
/// faulting on its own bit. Proves every `(level, gate)` task runs
/// exactly once, no task of a level starts before every task of the
/// level before it finished, and each close sees the fault bits of every
/// task of its level, whoever ran it.
///
/// # Errors
///
/// Returns the failing schedule if any interleaving runs a task twice
/// or never, starts a level early, hides a fault from a close, or
/// deadlocks.
fn check_handoff_protocol() -> Result<Explored, InterleaveError> {
    check_handoff(false)
}

// ---------------------------------------------------------------------
// Audit entry point
// ---------------------------------------------------------------------

/// Outcome of one protocol exploration, for report embedding.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// Which protocol was modeled.
    pub protocol: &'static str,
    /// Threads in the model.
    pub threads: usize,
    /// Exploration statistics, or the witnessed violation.
    pub result: Result<Explored, InterleaveError>,
}

/// Runs the full tier-3 concurrency audit: the claim, lane-claim,
/// reservation and epoch protocols at 2 and 3 threads (the epoch model
/// over two epochs, so job invalidation and re-publish are both
/// exercised; the lane-claim model over overlapping, partially
/// overlapping, and overflow-path masks; the reservation model over
/// multi-cell blocks, an empty cell and an overflow-path publisher; and
/// a constant run against a two-cell publish on one claim word), and the
/// hand-off protocol with an owner and a helper. Returns the per-run
/// outcomes plus `AVC-C001` findings for any run that uncovered a
/// violation.
pub fn audit_concurrency() -> (Vec<ProtocolRun>, Vec<Finding>) {
    let runs = vec![
        ProtocolRun {
            protocol: "claim/2-writers",
            threads: 2,
            result: check_claim_protocol(2, 0),
        },
        ProtocolRun {
            protocol: "claim/3-writers",
            threads: 3,
            result: check_claim_protocol(3, 0),
        },
        ProtocolRun {
            protocol: "claim/2-writers+overflow",
            threads: 3,
            result: check_claim_protocol(2, 1),
        },
        ProtocolRun {
            protocol: "lane-claim/2-overlapping",
            threads: 2,
            result: check_lane_claim_protocol(&[&[0b11], &[0b11]], 0),
        },
        ProtocolRun {
            protocol: "lane-claim/partial-overlap",
            threads: 3,
            result: check_lane_claim_protocol(&[&[0b01], &[0b11], &[0b10]], 0),
        },
        ProtocolRun {
            protocol: "lane-claim/2-writers+overflow",
            threads: 3,
            result: check_lane_claim_protocol(&[&[0b11], &[0b01]], 1),
        },
        ProtocolRun {
            protocol: "lane-claim/run+publish",
            threads: 2,
            result: check_lane_claim_protocol(&[&[0b0101], &[0b1010]], 0),
        },
        ProtocolRun {
            protocol: "reservation/2-blocks",
            threads: 2,
            result: check_reservation_protocol(&[&[(0, 2), (2, 1)], &[(1, 3), (3, 0)]], 0),
        },
        ProtocolRun {
            protocol: "reservation/3-blocks",
            threads: 3,
            result: check_reservation_protocol(&[&[(0, 2)], &[(1, 3)], &[(2, 1)]], 0),
        },
        ProtocolRun {
            protocol: "reservation/2-blocks+overflow",
            threads: 3,
            result: check_reservation_protocol(&[&[(0, 1), (1, 2)], &[(2, 2)]], 1),
        },
        ProtocolRun {
            protocol: "epoch/1-worker-2-epochs",
            threads: 2,
            result: check_epoch_protocol(1, 2),
        },
        ProtocolRun {
            protocol: "epoch/2-workers-2-epochs",
            threads: 3,
            result: check_epoch_protocol(2, 2),
        },
        ProtocolRun {
            protocol: "handoff/owner+helper",
            threads: 2,
            result: check_handoff_protocol(),
        },
    ];
    let findings = runs
        .iter()
        .filter_map(|run| {
            run.result
                .as_ref()
                .err()
                .map(|err| Finding::new("AVC-C001", run.protocol, format!("{err}")))
        })
        .collect();
    (runs, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_protocol_single_winner_holds_exhaustively() {
        for writers in 1..=MAX_MODEL_THREADS {
            let explored = check_claim_protocol(writers, 0).unwrap();
            assert!(explored.schedules >= 1);
        }
        // 3 writers explore strictly more interleavings than 2.
        let two = check_claim_protocol(2, 0).unwrap();
        let three = check_claim_protocol(3, 0).unwrap();
        assert!(three.schedules > two.schedules);
    }

    #[test]
    fn overflow_writers_never_touch_the_cell() {
        let explored = check_claim_protocol(2, 1).unwrap();
        assert!(explored.schedules >= 1);
    }

    #[test]
    fn lane_claim_single_winner_holds_per_lane() {
        // Fully overlapping, partially overlapping, and disjoint masks
        // all uphold the per-lane single-winner invariant.
        for masks in [
            &[0b11u64, 0b11][..],
            &[0b01, 0b11, 0b10],
            &[0b01, 0b10],
            &[0b11, 0b01, 0b10],
        ] {
            let writers: Vec<&[u64]> = masks.iter().map(std::slice::from_ref).collect();
            let explored = check_lane_claim_protocol(&writers, 0).unwrap();
            assert!(explored.schedules >= 1, "masks {masks:?}");
        }
    }

    #[test]
    fn lane_claim_overflow_writers_never_touch_lanes() {
        let explored = check_lane_claim_protocol(&[&[0b11], &[0b01]], 1).unwrap();
        assert!(explored.schedules >= 1);
    }

    #[test]
    fn constant_runs_and_publishes_share_a_claim_word() {
        // A run against a two-cell publish, interleaved cells; two runs
        // against a publish; a run against two single-cell publishes.
        for writers in [
            &[&[0b0101u64][..], &[0b1010]][..],
            &[&[0b0101], &[0b1000], &[0b0010]],
            &[&[0b1001], &[0b0010], &[0b0100]],
        ] {
            let explored = check_lane_claim_protocol(writers, 0).unwrap();
            assert!(explored.schedules > 1, "writers {writers:?}");
        }
    }

    /// Lane claims performed as a load + store of the whole claim word
    /// instead of one `fetch_or`: the window between observing the bits
    /// clear and storing the mask admits two winners of one lane.
    #[test]
    fn torn_lane_claim_is_caught() {
        let err = check_lane_claims(&[&[0b11], &[0b11]], 0, true).unwrap_err();
        assert!(
            matches!(err, InterleaveError::InvariantViolated { ref message, .. }
                if message.contains("won the claim for lane")),
            "expected a per-lane single-winner violation, got {err}"
        );
    }

    #[test]
    fn torn_constant_run_claim_is_caught() {
        // A torn constant run beside a publish on disjoint lanes: the
        // publish's claim landing inside the run's window is overwritten.
        let err = check_lane_claims(&[&[0b0101], &[0b0010]], 0, true).unwrap_err();
        assert!(
            matches!(err, InterleaveError::InvariantViolated { ref message, .. }
                if message.contains("was lost from the word")),
            "expected a lost claim, got {err}"
        );
    }

    #[test]
    fn reservation_spans_are_disjoint_and_gap_free() {
        // Multi-cell blocks, an empty cell, three publishers, and an
        // overflow-path publisher that must reserve nothing.
        let cases: [(&[&ModelBlock], usize); 4] = [
            (&[&[(0, 2), (2, 1)], &[(1, 3), (3, 0)]], 0),
            (&[&[(0, 2)], &[(1, 3)], &[(2, 1)]], 0),
            (&[&[(0, 1), (1, 2)], &[(2, 2)]], 1),
            (&[&[(0, 4), (1, 4)]], 2),
        ];
        for (blocks, overflow) in cases {
            let explored = check_reservation_protocol(blocks, overflow).unwrap();
            assert!(explored.schedules >= 1, "blocks {blocks:?}");
        }
    }

    #[test]
    fn contested_cell_is_stored_by_its_claim_winner_only() {
        // Two publishers stage the same cell (a scheduling bug): the
        // loser bails at the claim, so the cell holds one publisher's
        // span — and the final check reports the cell that went missing.
        let err = check_reservation_protocol(&[&[(0, 1)], &[(0, 2)]], 0).unwrap_err();
        assert!(
            matches!(err, InterleaveError::FinalCheckFailed { ref message, .. }
                if message.contains("cells stored")),
            "expected the lost cell to be reported, got {err}"
        );
    }

    #[test]
    fn torn_reservation_is_caught() {
        // A cursor bumped with a load and a store instead of one
        // `fetch_add` hands two publishers the same span.
        let err = check_reservation(&[&[(0, 2)], &[(1, 2)]], 0, false).unwrap_err();
        assert!(
            matches!(err, InterleaveError::InvariantViolated { ref message, .. }
                if message.contains("filled by publishers")),
            "expected overlapping spans, got {err}"
        );
    }

    #[test]
    fn epoch_protocol_holds_across_republish() {
        let explored = check_epoch_protocol(2, 2).unwrap();
        // Two workers × coordinator over two epochs is a real state
        // space, not a degenerate one.
        assert!(explored.schedules > 10);
    }

    /// A claim bitmap updated with a load + store instead of `fetch_or`:
    /// the checker must find the two-winner interleaving.
    #[derive(Clone)]
    struct TornClaimWriter {
        id: usize,
        pc: u8,
        saw_clear: bool,
    }

    impl ThreadModel<ClaimState> for TornClaimWriter {
        fn step(&mut self, shared: &mut ClaimState) -> StepResult {
            match self.pc {
                0 => {
                    self.saw_clear = !shared.claimed;
                    self.pc = 1;
                    StepResult::Ran
                }
                1 => {
                    shared.claimed = true;
                    if !self.saw_clear {
                        return StepResult::Finished;
                    }
                    shared.winners += 1;
                    self.pc = 2;
                    StepResult::Ran
                }
                2 => {
                    shared.writers_in_section += 1;
                    self.pc = 3;
                    StepResult::Ran
                }
                3 => {
                    shared.cell_value = Some(self.id);
                    shared.writes += 1;
                    self.pc = 4;
                    StepResult::Ran
                }
                _ => {
                    shared.writers_in_section -= 1;
                    StepResult::Finished
                }
            }
        }
    }

    #[test]
    fn torn_claim_update_is_caught() {
        let threads = vec![
            TornClaimWriter {
                id: 0,
                pc: 0,
                saw_clear: false,
            },
            TornClaimWriter {
                id: 1,
                pc: 0,
                saw_clear: false,
            },
        ];
        let shared = ClaimState {
            claimed: false,
            writers_in_section: 0,
            cell_value: None,
            writes: 0,
            winners: 0,
        };
        let err = explore(&shared, &threads, &claim_invariant, &|_| Ok(())).unwrap_err();
        assert!(
            matches!(err, InterleaveError::InvariantViolated { ref message, .. }
                if message.contains("won the claim") || message.contains("write section")),
            "expected a single-winner violation, got {err}"
        );
    }

    #[test]
    fn barrier_free_coordinator_is_caught() {
        let err = check_epoch(2, 2, false).unwrap_err();
        assert!(
            matches!(err, InterleaveError::InvariantViolated { ref message, .. }
                if message.contains("invalidated job") || message.contains("read job for epoch")),
            "expected a use-after-invalidate witness, got {err}"
        );
    }

    #[test]
    fn handoff_protocol_holds_exhaustively() {
        let explored = check_handoff_protocol().unwrap();
        // Owner and helper race for every task of both levels.
        assert!(explored.schedules > 10, "{explored:?}");
    }

    /// A cursor torn into a level word and a gate word: a helper that
    /// read the old level takes a gate of the newly opened one under the
    /// old level's number, so a task runs twice and another never.
    #[test]
    fn torn_handoff_cursor_is_caught() {
        let err = check_handoff(true).unwrap_err();
        match err {
            InterleaveError::InvariantViolated { message, schedule } => {
                assert!(message.contains("ran 2 times"), "{message}");
                assert!(schedule.contains(&0) && schedule.contains(&1));
            }
            other => panic!("expected a double run, got {other}"),
        }
    }

    #[test]
    fn audit_is_clean() {
        let (runs, findings) = audit_concurrency();
        assert_eq!(runs.len(), 13);
        assert!(
            findings.is_empty(),
            "concurrency audit found violations: {findings:?}"
        );
        for run in &runs {
            assert!(run.result.is_ok(), "{} failed", run.protocol);
        }
    }
}

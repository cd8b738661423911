//! Gating by controlling values: what a gate's quiet inputs decide.
//!
//! A quiet input (zero transitions) holds one logic value over the whole
//! simulation window. Fixing the quiet pins of a truth table to their
//! values leaves its *cofactor* over the pins that switch. When that
//! cofactor is constant — every input quiet, or a quiet controlling
//! value such as a 0 on a NAND — the output is that constant at every
//! time and needs no merge: [`merge_transitions`](crate::merge_transitions)
//! would walk every input event only to schedule nothing. When it is
//! not, the merge over the switching pins alone under the cofactor
//! table is the full merge: a quiet pin's head is `∞`, so it never takes
//! part in the event order, and its bit never changes.
//!
//! [`constant_lanes`] decides this for 64 lanes at once from the quiet
//! and initial words of the inputs' lane runs; [`cofactor`] builds the
//! reduced table of one lane's merge.

/// Most pins a truth table of `u16` rows has.
const MAX_TABLE_PINS: usize = 4;

/// The lanes of a gate whose quiet inputs fix its output, and their
/// values: `(constant, values)`, bit-parallel over the `live` lanes.
///
/// `table` is the gate's truth table (bit `r` is the output on the input
/// row whose pin `p` carries bit `p` of `r`); `pins` yields, per pin in
/// order, the word of lanes whose cell is quiet and the word of lanes
/// whose cell starts high. A live lane is constant iff no two input rows
/// compatible with its quiet pins' values disagree on the output; bit
/// `k` of `values` is then lane `k`'s output. A lane whose pins are all
/// quiet has one compatible row, so it is always constant.
///
/// # Panics
///
/// Panics if `pins` yields more than four pins.
pub fn constant_lanes(
    table: u16,
    pins: impl IntoIterator<Item = (u64, u64)>,
    live: u64,
) -> (u64, u64) {
    // `compat[a]` is the live lanes whose quiet pins agree with row `a`,
    // built one pin at a time: row `a` and row `a | 1 << p` split the
    // lanes compatible with `a` on pin `p`.
    let mut compat = [0u64; 1 << MAX_TABLE_PINS];
    compat[0] = live;
    let mut rows = 1;
    for (p, (quiet, initial)) in pins.into_iter().enumerate() {
        assert!(
            p < MAX_TABLE_PINS,
            "a truth table has at most {MAX_TABLE_PINS} pins"
        );
        for a in 0..rows {
            let lanes = compat[a];
            compat[a] = lanes & !(quiet & initial);
            compat[a | rows] = lanes & !(quiet & !initial);
        }
        rows <<= 1;
    }
    let (mut ones, mut zeros) = (0u64, 0u64);
    for (a, &lanes) in compat[..rows].iter().enumerate() {
        if table >> a & 1 == 1 {
            ones |= lanes;
        } else {
            zeros |= lanes;
        }
    }
    (live & !(ones & zeros), ones)
}

/// The truth table of a `pins`-pin gate restricted to its switching
/// pins: the pins set in `quiet` are fixed to their bits in `fixed`, and
/// row `a` of the result is the row of `table` whose switching pins, in
/// ascending order, carry the bits of `a`.
#[inline]
pub fn cofactor(table: u16, pins: usize, quiet: u32, fixed: u32) -> u16 {
    let free = !quiet & ((1 << pins) - 1);
    // Enumerates the subsets of `free` in ascending order: the `k`-th one
    // carries the bits of `k` on the switching pins.
    let (mut row, mut k, mut reduced) = (0u32, 0, 0u16);
    loop {
        reduced |= (table >> (row | fixed) & 1) << k;
        k += 1;
        row = ((row | !free).wrapping_add(1)) & free;
        if row == 0 {
            return reduced;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        merge_transitions, CapacityOverflow, GateScratch, PinDelays, Waveform, WaveformRead,
    };
    use avfs_netlist::CellLibrary;

    /// Every distinct `(pins, truth table)` of the library's cells.
    fn library_tables() -> Vec<(usize, u16)> {
        let mut tables: Vec<(usize, u16)> = CellLibrary::nangate15_like()
            .iter()
            .map(|(_, cell)| (cell.num_inputs(), cell.kind().truth_table()))
            .collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// A deterministic pseudo-random stream (an LCG's high bits).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 16
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A waveform with 1..=6 transitions on a coarse time grid, so two
    /// pins often switch at the same time.
    fn switching(rng: &mut Lcg) -> Waveform {
        let mut times: Vec<f64> = (0..1 + rng.below(6))
            .map(|_| 10.0 * rng.below(8) as f64)
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        Waveform::with_transitions(rng.below(2) == 1, times).unwrap()
    }

    fn merge(
        inputs: &[&Waveform],
        delays: &[PinDelays],
        table: u16,
        cap: usize,
    ) -> Result<(bool, Vec<f64>), CapacityOverflow> {
        let mut scratch = GateScratch::new();
        let initial = merge_transitions(
            inputs,
            |_, pin| delays[pin],
            |bits| table >> bits & 1 == 1,
            &mut scratch,
            cap,
        )?;
        Ok((initial, scratch.scheduled().to_vec()))
    }

    /// Every library truth table (1–4 pins), every quiet mask and every
    /// assignment of the quiet pins' values, random waveforms on the
    /// switching pins: where the scan calls a lane constant the full
    /// merge schedules nothing and starts at the scan's value, and
    /// elsewhere the merge over the switching pins under the cofactor
    /// table equals the full merge bit for bit — equal-time events on two
    /// pins and the overflow at `cap` included.
    #[test]
    fn masked_lanes_need_no_merge_and_the_rest_merge_only_switching_pins() {
        let mut rng = Lcg(0x5EED_CAFE);
        let (mut constant_cases, mut reduced_cases, mut ties, mut overflows) = (0, 0, 0, 0);
        for (pins, table) in library_tables() {
            for quiet in 0..1u32 << pins {
                for fixed in (0..1u32 << pins).filter(|f| f & !quiet == 0) {
                    for _ in 0..24 {
                        let inputs: Vec<Waveform> = (0..pins)
                            .map(|p| match quiet >> p & 1 {
                                1 => Waveform::constant(fixed >> p & 1 == 1),
                                _ => switching(&mut rng),
                            })
                            .collect();
                        let delays: Vec<PinDelays> = (0..pins)
                            .map(|_| PinDelays {
                                rise: 1.0 + rng.below(15) as f64,
                                fall: 1.0 + rng.below(15) as f64,
                            })
                            .collect();
                        let cap = [0, 1, 2, 3, usize::MAX][rng.below(5) as usize];
                        // The lane under test sits in a random lane of a
                        // word whose other lanes are noise.
                        let lane = rng.below(64);
                        let words: Vec<(u64, u64)> = inputs
                            .iter()
                            .map(|w| {
                                let bit = 1u64 << lane;
                                let noise = (rng.next() << 16 ^ rng.next()) & !bit;
                                let q = noise | u64::from(w.num_transitions() == 0) << lane;
                                let i = (rng.next() << 16 ^ rng.next()) & !bit;
                                (q, i | u64::from(w.initial_value()) << lane)
                            })
                            .collect();
                        let (constant, values) = constant_lanes(table, words, 1 << lane | 1);
                        let refs: Vec<&Waveform> = inputs.iter().collect();
                        let full = merge(&refs, &delays, table, cap);
                        let reduced_table = cofactor(table, pins, quiet, fixed);
                        let rows = 1u32 << (pins - quiet.count_ones() as usize);
                        let is_constant =
                            reduced_table == 0 || u32::from(reduced_table) == (1 << rows) - 1;
                        assert_eq!(
                            constant >> lane & 1 == 1,
                            is_constant,
                            "table {table:#x}/{pins} quiet {quiet:#b} fixed {fixed:#b}"
                        );
                        if is_constant {
                            constant_cases += 1;
                            let (initial, scheduled) = full.expect("a constant never overflows");
                            assert!(scheduled.is_empty(), "table {table:#x} quiet {quiet:#b}");
                            assert_eq!(initial, values >> lane & 1 == 1);
                            assert_eq!(initial, reduced_table & 1 == 1);
                            continue;
                        }
                        reduced_cases += 1;
                        let switching: Vec<usize> =
                            (0..pins).filter(|p| quiet >> p & 1 == 0).collect();
                        let sw_refs: Vec<&Waveform> = switching.iter().map(|&p| refs[p]).collect();
                        let sw_delays: Vec<PinDelays> =
                            switching.iter().map(|&p| delays[p]).collect();
                        let reduced = merge(&sw_refs, &sw_delays, reduced_table, cap);
                        let mut times: Vec<f64> = sw_refs
                            .iter()
                            .flat_map(|w| w.transitions().iter().copied())
                            .collect();
                        let events = times.len();
                        times.sort_by(f64::total_cmp);
                        times.dedup();
                        ties += usize::from(times.len() < events);
                        overflows += usize::from(full.is_err());
                        assert_eq!(
                            reduced, full,
                            "table {table:#x}/{pins} quiet {quiet:#b} fixed {fixed:#b} cap {cap}"
                        );
                    }
                }
            }
        }
        assert!(constant_cases > 1000 && reduced_cases > 1000);
        assert!(ties > 100, "equal-time events on two pins: {ties}");
        assert!(overflows > 100, "overflows at cap: {overflows}");
    }

    #[test]
    fn all_quiet_lanes_are_constant_at_the_table_value() {
        // Two pins, four lanes: every assignment of two quiet NAND inputs.
        let nand2 = 0b0111;
        let (a, b) = (0b1010u64, 0b1100u64);
        let (constant, values) = constant_lanes(nand2, [(!0, a), (!0, b)], 0b1111);
        assert_eq!(constant, 0b1111);
        assert_eq!(values & constant, !(a & b) & 0b1111);
        // Nothing quiet and a non-constant table: no lane is constant.
        assert_eq!(constant_lanes(nand2, [(0, a), (0, b)], 0b1111).0, 0);
        // Dead lanes are never constant.
        assert_eq!(constant_lanes(nand2, [(!0, a), (!0, b)], 0b0101).0, 0b0101);
    }
}

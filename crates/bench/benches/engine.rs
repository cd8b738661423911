//! Criterion bench: parallel-engine throughput (node evaluations/s).
//!
//! One mid-size synthetic circuit simulated with (a) static delays — the
//! \[25\] baseline column of Table I — and (b) polynomial kernels of order
//! N = 3 — the proposed method. The relative gap between the two is the
//! paper's "negligible runtime overhead" claim for the online delay
//! calculation.

use avfs_atpg::PatternSet;
use avfs_circuits::{random_netlist, GeneratorConfig};
use avfs_core::{slots, CompiledNetlist, SimOptions};
use avfs_delay::characterize::{characterize_library, CharacterizationConfig};
use avfs_delay::StaticModel;
use avfs_netlist::{CellLibrary, NetlistStats, NodeKind};
use avfs_spice::Technology;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn bench_engine(c: &mut Criterion) {
    let library = CellLibrary::nangate15_like();
    let config = GeneratorConfig {
        nodes: 4000,
        inputs: 64,
        outputs: 64,
        depth: 24,
        two_input_fraction: 0.72,
    };
    let netlist = Arc::new(random_netlist("bench4k", &config, &library, 99).expect("generates"));
    let stats = NetlistStats::of(&netlist);

    // Characterize exactly the used cells, coarse but real.
    let used: Vec<_> = {
        let mut set = std::collections::BTreeSet::new();
        for (_, node) in netlist.iter() {
            if let NodeKind::Gate(cell) = node.kind() {
                set.insert(cell);
            }
        }
        set.into_iter().collect()
    };
    let chars = characterize_library(
        &library,
        &Technology::nm15(),
        &CharacterizationConfig::fast(),
        Some(&used),
    )
    .expect("characterization succeeds");
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 3);
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let opts = SimOptions {
        threads: 1,
        ..SimOptions::default()
    };
    let evals = (stats.nodes * slot_list.len()) as u64;

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(evals));

    let static_engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(&annotation),
        Arc::new(StaticModel::new(*chars.space())),
    )
    .expect("engine builds");
    group.bench_function("static_delays", |b| {
        b.iter(|| {
            static_engine
                .launch(&patterns, &slot_list, &opts)
                .expect("runs")
        })
    });

    let poly_engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(&annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    group.bench_function("polynomial_n3", |b| {
        b.iter(|| {
            poly_engine
                .launch(&patterns, &slot_list, &opts)
                .expect("runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);

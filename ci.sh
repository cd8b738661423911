#!/usr/bin/env sh
# Hermetic CI gate: formatting, lints, build and tests, all offline.
# The workspace vendors its own dev-dependency shims (crates/proptest,
# crates/criterion, crates/prng), so no registry access is ever needed.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test (workspace)"
cargo test --workspace --offline -q

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> perf_report --smoke (schema gate)"
cargo run --release --offline -p avfs-bench --bin perf_report -- --smoke

echo "==> thread_scaling --smoke (pool determinism gate: threads 1 vs 2 over pooled and inline epochs)"
cargo run --release --offline -p avfs-bench --bin thread_scaling -- --smoke

echo "==> activity_sweep --smoke (gating determinism gate)"
cargo run --release --offline -p avfs-bench --bin activity_sweep -- --smoke

echo "==> lane_scaling --smoke (lane-major identity gate)"
cargo run --release --offline -p avfs-bench --bin lane_scaling -- --smoke

echo "==> batch_throughput --smoke (compile-once identity-and-amortization gate: one compile, one arena allocation)"
cargo run --release --offline -p avfs-bench --bin batch_throughput -- --smoke

echo "==> scenario_sweep --smoke (schedule identity and Monte Carlo replay gate)"
cargo run --release --offline -p avfs-bench --bin scenario_sweep -- --smoke

echo "==> checker --smoke (static-analysis gate: avfs-check/1 schema, zero deny findings)"
cargo run --release --offline -p avfs-bench --bin checker -- --smoke

echo "==> chaos --smoke (fault-injection gate: avfs-chaos/1 schema, 100% site coverage)"
cargo run --release --offline -p avfs-bench --bin chaos -- --smoke

echo "==> sta_crosscheck --smoke (STA oracle gate: sim within STA bound, critical-path agreement)"
cargo run --release --offline -p avfs-bench --bin sta_crosscheck -- --smoke

echo "==> perfbench build (the repo benchmark compiles against the layer crates' public APIs)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> benchmark run --smoke (repo-benchmark gate: every oracle passes on the smoke workloads)"
cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- run --smoke

echo "CI OK"

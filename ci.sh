#!/usr/bin/env sh
# Hermetic CI gate: formatting, lints, build and tests, all offline.
# The workspace vendors its own dev-dependency shims (crates/proptest,
# crates/prng), so no registry access is ever needed.
set -eu

# Runs a step under a wall-clock limit (seconds), so a scheduler hang
# fails the named step instead of stalling CI.
bounded() {
    limit=$1
    shift
    status=0
    timeout "$limit" "$@" || status=$?
    if [ "$status" -eq 124 ]; then
        echo "timed out after ${limit} s: $*"
    fi
    [ "$status" -eq 0 ] || exit "$status"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings; every unsafe block and impl carries a SAFETY: comment)"
cargo clippy --workspace --offline --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test (workspace, at most 30 min)"
bounded 1800 cargo test --workspace --offline -q

echo "==> transient oracle (every distinct stage of the library within 0.01 % of the fixed-step oracle, release, at most 10 min)"
bounded 600 cargo test --release --offline -p avfs-spice -- --ignored

echo "==> fig4 --smoke (Fig. 4 verdicts: error falls with order, N = 3 within the paper's bounds, at most 5 min)"
bounded 300 cargo run --release --offline -p avfs-bench --bin fig4 -- --smoke

echo "==> examples (every example end to end, at most 5 min)"
bounded 300 sh -c 'for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "--> $name"
    cargo run --quiet --release --offline --example "$name" >/dev/null || exit 1
done'

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> doc references (every --bin, crates/*.rs path, \`Type::item\` and \`layer.metric\` the docs name exists in the sources or BENCHMARK.json)"
docs="README.md EXPERIMENTS.md DESIGN.md"
for bin in $(grep -oh -e '--bin [a-z0-9_]*' $docs | cut -d' ' -f2 | sort -u); do
    [ "$bin" = benchmark ] || [ -f "crates/bench/src/bin/$bin.rs" ] || { echo "docs name a missing bin: $bin"; exit 1; }
done
for path in $(grep -oh 'crates/[a-z0-9_/]*\.rs' $docs | sort -u); do
    [ -f "$path" ] || { echo "docs name a missing file: $path"; exit 1; }
done
# A `Type::item` resolves only inside a definition or an `impl` block of
# `Type` (rustfmt puts their headers and closing braces in column 0), so a
# method that was renamed or deleted cannot pass through a same-named
# item elsewhere in the crate.
word='[^A-Za-z0-9_]'
vis='(pub([(][a-z]*[)])? )?'
for ref in $(grep -ohE '`[A-Z][A-Za-z0-9]*::[A-Za-z_][A-Za-z0-9_]*' $docs | tr -d '`' | sort -u); do
    ty=${ref%%::*} item=${ref##*::}
    header="^$vis(unsafe )?(struct|enum|trait|impl)[ <](.*$word)?$ty($word|\$)"
    files=$(grep -rlE "$header" crates/*/src || true)
    [ -n "$files" ] && awk -v header="$header" '$0 ~ header && !/;$/ { inside = 1 } inside { print } /^}/ { inside = 0 }' $files |
        grep -qE "(fn|const) $item$word|^ *$vis$item(:|,|[(]| [{]|\$)" ||
        { echo "docs name $ref: no such fn, const, field or variant in ${files:-any definition or impl (no struct/enum/trait/impl $ty)}"; exit 1; }
done
# A backticked `layer.name` whose layer is one of BENCHMARK.json's must be
# a metric BENCHMARK.json declares (read, never written) or an instrument
# name the sources record — a string literal such as the constants of
# crates/core/src/phases.rs. `*` in a token globs (`engine.pool_*`);
# `layer.rs` is a file name, checked above, and `layer.name(` is a method
# call on a value that happens to be named like a layer (`session.launch(`),
# not a metric. Limitation: several layers are everyday words (`batch`,
# `session`, `host`, `netlist`), so a backticked field access on such a
# value (no parenthesis) still reads as a metric — write it `Type::field`.
layers=$(grep -oE '"name": "[a-z_]+\.' BENCHMARK.json | cut -d'"' -f4 | tr -d . | sort -u | paste -sd'|' -)
known=$({
    grep -oE '"name": "[a-z_]+\.[a-z0-9_]+"' BENCHMARK.json | cut -d'"' -f4
    grep -rhoE "\"($layers)\.[a-z0-9_]+\"" crates/*/src | tr -d '"'
} | sort -u)
for metric in $(grep -ohE "\`($layers)\.[A-Za-z0-9_*]+[(]?" $docs | tr -d '`' | sort -u); do
    case $metric in *.rs | *'(') continue ;; esac
    glob=$(printf '%s' "$metric" | sed 's/\./\\./g; s/\*/.*/g')
    printf '%s\n' "$known" | grep -qE "^$glob\$" ||
        { echo "docs name $metric: neither a BENCHMARK.json metric nor an instrument name in crates/*/src"; exit 1; }
done
# A backticked phase path (`engine/…`, `ed/…`; a file such as
# `engine/batch.rs` has a dot and is not one) must be the value of a
# constant in crates/core/src/phases.rs, so a deleted or renamed span
# cannot linger in the docs.
phases=$(grep -oE '^pub const [A-Z_]+: &str = "[a-z_/]+";' crates/core/src/phases.rs | cut -d'"' -f2)
for path in $(grep -ohE '`(engine|ed)/[a-z_/]*`' $docs | tr -d '`' | sort -u); do
    printf '%s\n' "$phases" | grep -qxF "$path" ||
        { echo "docs name phase $path: not the value of a constant in crates/core/src/phases.rs"; exit 1; }
done
# The leaf crates name their spans with string literals, so a backticked
# `spice/…`, `regression/…` or `delay/…` path must be one under
# crates/*/src.
spans=$(grep -rhoE '"(spice|regression|delay)/[a-z_/]+"' crates/*/src | tr -d '"' | sort -u)
for path in $(grep -ohE '`(spice|regression|delay)/[a-z_/]*`' $docs | tr -d '`' | sort -u); do
    printf '%s\n' "$spans" | grep -qxF "$path" ||
        { echo "docs name span $path: not a string literal in crates/*/src"; exit 1; }
done

echo "==> fault-site table (every InjectionSite::name has a row in DESIGN.md §7's site table, every row names a registered site)"
sites=$(awk '/pub fn name\(self\)/,/^    }$/' crates/inject/src/lib.rs | grep -oE '=> "[a-z-]+"' | cut -d'"' -f2 | sort)
rows=$(awk '/^\| Site \| Keyed by/,/^$/' DESIGN.md | grep -oE '^\| `[^`]*` \|' | cut -d'`' -f2 | sort)
if [ -z "$sites" ] || [ "$sites" != "$rows" ]; then
    echo "DESIGN.md §7 site table disagrees with InjectionSite::name:"
    echo "  registered sites: $(echo $sites)"
    echo "  table rows:       $(echo $rows)"
    exit 1
fi

echo "==> layering (avfs-delay's normal dependency tree has no avfs-inject: characterization has no injection site)"
tree=$(cargo tree -p avfs-delay -e normal --offline)
if printf '%s\n' "$tree" | grep -q 'avfs-inject'; then
    echo "avfs-delay depends on avfs-inject:"
    printf '%s\n' "$tree" | grep 'avfs-inject'
    exit 1
fi

echo "==> checker --smoke (static-analysis gate: avfs-check/1 schema, zero deny findings)"
cargo run --release --offline -p avfs-bench --bin checker -- --smoke

echo "==> checker --check (CHECK_report.json's non-sta-crosscheck subjects equal a fresh full run, at most 2 min)"
bounded 120 cargo run --release --offline -p avfs-bench --bin checker -- --check CHECK_report.json

echo "==> chaos --smoke (fault-injection gate: avfs-chaos/1 schema, 100% site coverage, at most 10 min)"
bounded 600 cargo run --release --offline -p avfs-bench --bin chaos -- --smoke

echo "==> sta_crosscheck --smoke (STA oracle gate: sim within STA bound, critical-path agreement)"
cargo run --release --offline -p avfs-bench --bin sta_crosscheck -- --smoke

echo "==> sta_crosscheck --check (CHECK_report.json's sta section equals a fresh full run, at most 2 min)"
bounded 120 cargo run --release --offline -p avfs-bench --bin sta_crosscheck -- --check CHECK_report.json

echo "==> activity_sweep --check (EXPERIMENTS.md's E6 skipped-task counts equal a fresh sweep, at most 2 min)"
bounded 120 cargo run --release --offline -p avfs-bench --bin activity_sweep -- --check EXPERIMENTS.md

echo "==> perfbench build (the repo benchmark compiles against the layer crates' public APIs)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench tests (two in-process runs repeat every simulated value bit for bit, at most 10 min)"
bounded 600 cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> benchmark run --smoke (repo-benchmark gate: every oracle passes on the smoke workloads)"
cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- run --smoke

echo "CI OK"

#!/usr/bin/env bash
# The repo benchmark's one command. Run it from the root of a checkout:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh                     every workload, untraced then traced
#   benchmark/run.sh --smoke             the same at toy sizes, names checked
#   benchmark/run.sh --compare A.json B.json
#
# It builds the benchmark package (offline, release) and hands every
# argument to it; see benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The [profile.release] table of a manifest as sorted "key=value" words.
release_profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]") } on && /=/ { gsub(/[ \t]/, ""); print }' "$1" | sort | tr '\n' ' '
}

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "run.sh: $root is not a checkout of the repository (no Cargo.toml, no crates/); nothing to measure" >&2
    exit 2
fi

# A different profile is a different program: the benchmark must be built
# exactly as the root workspace builds the code it measures.
ours="$(release_profile benchmark/Cargo.toml)"
theirs="$(release_profile Cargo.toml)"
if [ "$ours" != "$theirs" ]; then
    echo "run.sh: benchmark/Cargo.toml [profile.release] ($ours) differs from Cargo.toml ($theirs); refusing to run" >&2
    exit 2
fi

# Cargo's release defaults for what the table leaves unset.
profile="$ours"
case "$profile" in *opt-level=*) ;; *) profile="opt-level=3 $profile" ;; esac
case "$profile" in *codegen-units=*) ;; *) profile="${profile}codegen-units=16 " ;; esac

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

HDVB_BENCH_PROFILE="${profile% }"
HDVB_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
HDVB_BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$HDVB_BENCH_GIT_SHA" = unknown ]; then
    HDVB_BENCH_GIT_DIRTY=unknown
elif [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    HDVB_BENCH_GIT_DIRTY=true
else
    HDVB_BENCH_GIT_DIRTY=false
fi
export HDVB_BENCH_PROFILE HDVB_BENCH_RUSTC HDVB_BENCH_GIT_SHA HDVB_BENCH_GIT_DIRTY

if [ "$#" -eq 0 ]; then
    set -- --suite
fi
exec "$CARGO_TARGET_DIR/release/hdvb-benchmark" "$@"

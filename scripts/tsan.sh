#!/usr/bin/env bash
# ThreadSanitizer lane: runs the concurrency-heavy suites — the dpf
# live-update service, the lambda cache, the code stack and the (frozen)
# compile service — with `-Zsanitizer=thread`. Complements the mcheck model checker:
# mcheck proves schedules exhaustively on small bounded programs, TSan
# watches the real full-size tests for data races the models abstract
# away.
#
# Needs the nightly toolchain with the rust-src component (the std that
# the tests link must itself be instrumented via -Zbuild-std, or TSan
# reports false positives inside std's own synchronization). Exits 0
# with a notice when the prerequisites are missing; CI images with the
# components installed get the real run, and a red run fails this
# script — and scripts/ci.sh, which calls it — through `set -e`. The
# last line of output is machine-readable, `lane tsan: ran` or
# `lane tsan: skipped (<reason>)`; scripts/ci.sh repeats it above
# `CI green.`.
set -euo pipefail
cd "$(dirname "$0")/.."

host="x86_64-unknown-linux-gnu"
if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "lane tsan: skipped (nightly toolchain not installed)"
    exit 0
fi
src="$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library"
if [ ! -d "$src" ]; then
    echo "tsan: install with: rustup component add --toolchain nightly rust-src"
    echo "lane tsan: skipped (rust-src not installed for nightly, needed for -Zbuild-std)"
    exit 0
fi

export RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}"
# TSan slows execution ~5-15x; give the suites a dedicated target dir
# so instrumented artifacts never mix with normal builds.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/tsan}"

echo "== tsan: dpf live-service suite =="
cargo +nightly test --offline -Zbuild-std --target "$host" -p dpf

echo "== tsan: cache + compile-service suites =="
cargo +nightly test --offline -Zbuild-std --target "$host" -p vcode --lib -- cache:: stack:: service::
cargo +nightly test --offline -Zbuild-std --target "$host" -p vcode-repro --test engine_cache
echo "lane tsan: ran"

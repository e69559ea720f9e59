#!/usr/bin/env bash
# Miri lane (advisory): runs the pure-IR paths — interpreter, tier-2
# passes, the streaming verifier and the lambda-cache logic — under
# Miri's aliasing/UB checker on the nightly toolchain.
#
# Scope is deliberately `-p vcode --lib`: the core crate contains no
# mmap/signal code (executable memory and guard handling live in
# vcode-x64, which is not linked into the core lib tests), so the lane
# runs clean without cfg surgery. The model-checker scheduler tests are
# excluded by filter: they spawn coordinator handshakes per schedule
# point and would dominate the Miri run for no aliasing coverage.
#
# Exits 0 with a notice when the toolchain lacks the miri component
# (e.g. offline dev boxes); CI images with the component installed get
# the real run, and a red run fails this script — and scripts/ci.sh,
# which calls it — through `set -e`. The last line of output is
# machine-readable, `lane miri: ran` or `lane miri: skipped (<reason>)`;
# scripts/ci.sh repeats it above `CI green.`.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "miri: install with: rustup component add --toolchain nightly miri"
    echo "lane miri: skipped (cargo-miri not installed for the nightly toolchain)"
    exit 0
fi

# Deterministic, isolated, and strict on leaks in the covered paths.
export MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}"

echo "== miri: pure-IR suites (interpret / tier2 / verify / cache / rcu passthrough) =="
cargo +nightly miri test --offline -p vcode --lib -- \
    op:: tier2:: verify:: cache:: rcu:: regalloc:: ty::
echo "lane miri: ran"

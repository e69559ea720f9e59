#!/usr/bin/env bash
# The tier-1 gate. Everything here must pass offline — the workspace has
# no external dependencies (see DESIGN.md "Dependencies"), so a network
# failure can never turn into a build failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
cargo test -q --workspace --offline

echo "== benchmark smoke (frozen stable surface) =="
# benchmark/ is a package of its own (not a workspace member) that calls
# the product through its public surface — persist::redecode,
# CacheKey::from_encoded, engine::fnv1a, ExecMem::{new,adopt_bytes,
# finalize}, LambdaCache::{get,peek,get_or_insert_with}, ... — and a PR
# that claims a gain may not edit it. Its smoke test runs every workload
# for 50 ms, traced and untraced, and checks every declared metric, so a
# product change that breaks that surface fails here, not in the
# pipeline that measures the PR.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== unsafe audit (SAFETY-comment gate) =="
# Every `unsafe` block/fn/impl in the workspace must carry a written
# justification; see scripts/unsafe_audit.sh.
./scripts/unsafe_audit.sh

echo "== one stack (no hand-wired cache + disk tier; only the engine persists or caches) =="
# `vcode::stack::CodeStack` owns the L1 cache and the persistent tier,
# and `L2::or_build` is the one function that probes and stores through
# (DESIGN.md "Code stack"). Product source that constructs a tier (or
# the frozen compile service, see "one build path" below) itself, or
# calls the tier seam directly, is a second stack in the making: fail
# on it. The stack has one client, `Engine`: product code outside
# crates/core/src that names a codec or attaches a tier is a second
# persisting client, and ("one cache client") product code there that
# names `LambdaCache` is a second caching client: fail on both. DPF sets
# and ASH kernels are compiled when installed and owned by what
# installed them; a process-wide cache of them mapped superseded code
# no metric read (EXPERIMENTS.md "Code is owned, not cached"). Looked
# at: code lines (not comments) of crates/*/src, src and examples
# before each file's first `#[cfg(test)]`. Exempt: the stack module and
# the two modules that define the names; crates/bench, tests and
# benchmark/ (they measure and test the parts on their own), and, for
# `LambdaCache` only, crates/mcheck (its model programs run the cache's
# own protocol).
second_stack=$(git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'examples/*.rs' |
    grep -v -e '^crates/bench/' \
        -e '^crates/core/src/stack\.rs$' \
        -e '^crates/core/src/persist\.rs$' \
        -e '^crates/core/src/service\.rs$' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        case $f in
        crates/core/src/*) core=1 ;;
        *) core=0 ;;
        esac
        case $f in
        crates/mcheck/*) model=1 ;;
        *) model=0 ;;
        esac
        awk -v FILE="$f" -v CORE="$core" -v MODEL="$model" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            /DiskTier::new|CompileService::new|CacheTier::load|CacheTier::store/ ||
            (!CORE && /ArtifactCodec|enable_persist|persist_tier/) ||
            (!CORE && !MODEL && /LambdaCache/) {
                printf "%s:%d: %s\n", FILE, NR, $0
            }' "$f"
    done)
if [ -n "$second_stack" ]; then
    echo "one-stack gate: product source wires its own tier or service, or persists or caches beside the engine:" >&2
    echo "$second_stack" >&2
    exit 1
fi
echo "one stack ok"

echo "== one digest (no byte-serial hash in the persistent tier) =="
# `persist::digest64` names artifact files and fills their key hashes
# and checksums a word at a time; `engine::fnv1a` walks a byte at a
# time and cost a third of an L2 load when the tier used it (DESIGN.md
# "Persistent code cache"). Product code of the tier must not call it
# again. Looked at: code lines (not comments) of persist.rs before its
# first `#[cfg(test)]`; tests may use whatever they like.
byte_serial=$(awk '
    /^[ \t]*#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    /fnv1a/ { printf "crates/core/src/persist.rs:%d: %s\n", NR, $0 }
    ' crates/core/src/persist.rs)
if [ -n "$byte_serial" ]; then
    echo "one-digest gate: the persistent tier hashes a byte at a time:" >&2
    echo "$byte_serial" >&2
    exit 1
fi
echo "one digest ok"

echo "== one counter per event (no process-global mirror of a count) =="
# A count lives on the instance that produces it — `LambdaCache::stats`,
# `DiskTier::stats`, `DpfService::stats` — and `vcode::obs` holds what
# really is per execution or per process: `ExecStats`, trace records and
# the codegen hook (DESIGN.md "Observability"). A process-wide copy cannot
# tell two engines apart and makes every test that reads it depend on
# every test that moves it: fail on an `obs::note_*` call in product
# source, and on any static in obs.rs (before its first `#[cfg(test)]`)
# other than the hook's two.
mirrors=$(grep -rn 'obs::note_' crates/*/src || true
    awk '
        /^[ \t]*#\[cfg\(test\)\]/ { exit }
        /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?static[ \t]/ && !/static (HOOK_ENABLED|HOOK):/ {
            printf "crates/core/src/obs.rs:%d: %s\n", NR, $0
        }' crates/core/src/obs.rs)
if [ -n "$mirrors" ]; then
    echo "one-counter gate: a count is kept away from the instance that produces it:" >&2
    echo "$mirrors" >&2
    exit 1
fi
echo "one counter per event ok"

echo "== one install path (every client emits into the scratch; only vcode-x64 maps) =="
# Generated code is written once, into the thread's lowering scratch
# (`engine::lower_in_scratch`, which grows it until the code fits), and
# kept as a right-sized copy: a simulated target's image is
# a `Vec` of the finished bytes, and native code — the engine's, DPF's
# classifiers, ASH's kernels, tcc's units — goes through
# `vcode_x64::emit_native` into a pooled mapping sized by what was
# written (DESIGN.md "Pooled, dual-mapped executable memory"). A client
# that maps executable memory itself sizes it by a guess, carries its
# own retry and brings the class mix back; so does a capacity-sized
# mapping or image, vcode-x64's own install path included. Fail on
# (1) a mapping made at a capacity bound, or an image trimmed from
# capacity size, anywhere in crates/*/src (crates/x64/src too); and
# (2) product source outside crates/x64/src that names `ExecMem` —
# looked at: code lines (not comments) before each file's first
# `#[cfg(test)]`; exempt: crates/bench, and examples/ (not looked at),
# which show the paper's Figure 1 style of a client writing into
# storage it obtained itself.
capacity_sized=$(grep -rnE 'ExecMem::new\(.*capacity|truncate\(fin\.len\)' crates/*/src || true
    git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' |
    grep -v -e '^crates/bench/' -e '^crates/x64/src/' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            /ExecMem/ { printf "%s:%d: %s\n", FILE, NR, $0 }' "$f"
    done)
if [ -n "$capacity_sized" ]; then
    echo "one-install-path gate: a client maps executable memory itself, or a mapping or image is capacity-sized:" >&2
    echo "$capacity_sized" >&2
    exit 1
fi
echo "one install path ok"

echo "== one sizing (code sizes itself; nothing guesses a capacity) =="
# `engine::lower_in_scratch` hands `emit` the whole per-thread scratch
# and doubles it on every overflow until the code fits (DESIGN.md
# "Scratch lowering"): the overflow latch is the measurement. A client
# that estimates a size before it emits, or a knob that overrides one,
# is a second sizing policy whose only new behaviours are failures (an
# estimate too small, a capacity no buffer holds). Fail on (1) product
# source outside crates/core/src/engine.rs that names `code_capacity`
# (`Program::code_capacity` stays for the frozen benchmark and for tests
# that bring their own buffers), and (2) a `lower_in_scratch` or
# `emit_native` signature that takes a capacity. Looked at: code lines
# (not comments) of crates/*/src, src and examples before each file's
# first `#[cfg(test)]`; exempt: crates/bench.
second_sizing=$(git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'examples/*.rs' |
    grep -v -e '^crates/bench/' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            FILE != "crates/core/src/engine.rs" && /code_capacity/ {
                printf "%s:%d: %s\n", FILE, NR, $0
            }
            /fn[ \t]+(lower_in_scratch|emit_native)[ \t]*[(<]/ { sig = 1 }
            sig && /capacity|:[ \t]*usize/ { printf "%s:%d: %s\n", FILE, NR, $0 }
            sig && /\{[ \t]*$/ { sig = 0 }' "$f"
    done)
if [ -n "$second_sizing" ]; then
    echo "one-sizing gate: code is sized by a guess or a capacity parameter:" >&2
    echo "$second_sizing" >&2
    exit 1
fi
echo "one sizing ok"

echo "== code carries its data (generated code names no host address) =="
# Generated code carries its data in its literal pool, after the code
# (DESIGN.md "One image"): a DPF classifier's tables, read from a
# data-base argument, with a table entry that selects code holding that
# code's distance back from the base (DESIGN.md "Classification by
# data"), and a tcc call's callee distance, read through `image_base`.
# Nothing is patched after install, the same source compiles to the
# same bytes, and the image runs wherever it is copied. A host address
# baked into generated code ties it to this process's heap and to one
# mapping. Fail on code that loads one (`setp(`), jumps or calls to one
# (`jmp_abs(`, `jal_abs(`), or takes one from a Rust buffer
# (`.as_ptr() as u64`). Looked at: code lines (not comments) of
# crates/dpf/src, crates/ash/src, crates/tcc/src and
# crates/core/src/engine.rs before each file's first `#[cfg(test)]`.
host_addresses=$(git ls-files --cached --others --exclude-standard \
        'crates/dpf/src/*.rs' 'crates/dpf/src/**/*.rs' 'crates/ash/src/*.rs' \
        'crates/ash/src/**/*.rs' 'crates/tcc/src/*.rs' 'crates/tcc/src/**/*.rs' \
        'crates/core/src/engine.rs' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            /setp\(|jmp_abs\(|jal_abs\(|\.as_ptr\(\) as u64/ {
                printf "%s:%d: %s\n", FILE, NR, $0
            }' "$f"
    done)
if [ -n "$host_addresses" ]; then
    echo "code-carries-its-data gate: generated code names a host address:" >&2
    echo "$host_addresses" >&2
    exit 1
fi
echo "code carries its data ok"

echo "== one dispatch per instruction (lowering matches on the tag only) =="
# `engine::replay` dispatches once per recorded instruction, on its tag,
# and hands the operation inside it to the assembler as a value
# (`Assembler::{binop, binop_imm, unop, branch}`); the x86-64 emitters
# select among instructions that differ in a constant from tables. A
# `match` from operation to per-op method (`a.addi(..)`, `a.bltii(..)`)
# is a second unpredictable branch per instruction, and a `Program` that
# holds its ops beside its bytes pays the `encode` dispatch again
# (DESIGN.md "Engine layer"; EXPERIMENTS.md "Cold miss"). Fail on
# either. tcc holds its operators as data too: it maps each C operator
# to a `BinOp`, `Cond` or `UnOp` once and emits through the same entry
# points, so a per-type branch, negate, complement or not method
# (`self.a.beqd(..)`, `negl`, `comi`, `notl`) there is a per-type table
# back (DESIGN.md "One dispatch per instruction"). Looked at: code lines
# (not comments) of engine.rs and tcc's codegen.rs before their first
# `#[cfg(test)]`.
code_lines='
    /^[ \t]*#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }'
second_dispatch=$(awk "$code_lines"'
    /a\.((add|sub|mul|div|mod|and|or|xor|lsh|rsh|com|not|mov|neg)|b(lt|le|gt|ge|eq|ne))(i|u|l|ul|p|f|d)i?\(/ {
        printf "crates/core/src/engine.rs:%d: %s\n", NR, $0
    }
    /^pub struct Program \{/ { in_program = 1 }
    in_program && /Vec<POp>/ { printf "crates/core/src/engine.rs:%d: %s\n", NR, $0 }
    in_program && /^\}/ { in_program = 0 }
    ' crates/core/src/engine.rs
    awk "$code_lines"'
    /\.(b(eq|ne|lt|le|gt|ge)|neg|com|not)(i|u|l|ul|p|f|d)i?\(/ {
        printf "crates/tcc/src/codegen.rs:%d: %s\n", NR, $0
    }
    ' crates/tcc/src/codegen.rs)
if [ -n "$second_dispatch" ]; then
    echo "one-dispatch gate: the engine or tcc dispatches per operation, or the engine keeps its ops twice:" >&2
    echo "$second_dispatch" >&2
    exit 1
fi
echo "one dispatch per instruction ok"

echo "== one measurement system (no gate compares with a committed number) =="
# A perf gate here is exact (simulated cycles and instructions, emitted
# bytes, golden digests, allocation / pool / syscall counts, mcheck
# interleavings) or a ratio whose two sides alternate in short windows
# inside one process and is judged per pair (DESIGN.md "What CI gates").
# Wall-clock numbers are reported and kept in BENCH_history.jsonl by
# scripts/bench_history.sh; parent-against-change comparisons are the
# pipeline's, over `benchmark/`. The second harness's snapshot file, its
# baseline variable and its 20% fences tripped on unchanged code more
# often than not (EXPERIMENTS.md "PR 21"): fail on any of their names
# under scripts/ or crates/, on a `sed`/`awk` over a committed metrics
# file there, and on any mention of such a file in this script — no
# stage reads a number it did not just measure. The two assignments
# below that spell the names are the only exemption.
measurement_names='VCODE_BASELINE|snapshot::check|BENCH_codegen|bench_snapshot'
measurement_files='BENCH_'
measurement_reads="(^|[^[:alnum:]_])(sed|awk)[[:space:]][^#]*$measurement_files|^scripts/ci\\.sh:[0-9]+:[^#]*$measurement_files"
second_harness=$(git ls-files --cached --others --exclude-standard scripts crates |
    while IFS= read -r f; do [ -f "$f" ] && echo "$f"; done |
    xargs grep -nHE "$measurement_names|$measurement_files" |
    grep -E "$measurement_names|$measurement_reads" |
    grep -vE '^scripts/ci\.sh:[0-9]+:measurement_(names|files)=' || true)
if [ -n "$second_harness" ]; then
    echo "one-measurement gate: a gate reads a committed number, or the second harness is back:" >&2
    echo "$second_harness" >&2
    exit 1
fi
echo "one measurement system ok"

echo "== one build path (a miss is built by the thread that asked) =="
# `Engine::compile_cached` and `DpfService::{insert, insert_all, remove}`
# build on the calling thread (`CodeStack::get_or_build`, and for DPF
# `dpf::compile::compile` itself, with nothing cached);
# nothing serves a fallback while a worker compiles, because waking the
# worker costs more than the build (DESIGN.md "Compile service"). The
# serve-while-compiling names must not come back, and the compile
# service — kept, uncalled, only while the frozen `benchmark/` times its
# queue-and-wake (ROADMAP "Frozen surface") — must stay uncalled: fail
# on either. Looked at: code lines (not comments) of crates/*/src before
# each file's first `#[cfg(test)]`; the service may be named by
# service.rs, by cache.rs (which defines `begin_build`) and by lib.rs's
# re-export, nowhere else.
second_path=$(git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' |
    grep -v '^crates/bench/' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        case $f in
        crates/core/src/service.rs | crates/core/src/cache.rs | crates/core/src/lib.rs) frozen=1 ;;
        *) frozen=0 ;;
        esac
        awk -v FILE="$f" -v FROZEN="$frozen" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            /compile_async|DegradedLambda|AsyncCompile|ServeMode|submit_build|poll_locked/ ||
            (!FROZEN && /CompileService|begin_build/) {
                printf "%s:%d: %s\n", FILE, NR, $0
            }' "$f"
    done)
if [ -n "$second_path" ]; then
    echo "one-build-path gate: product source serves while compiling, or calls the frozen service:" >&2
    echo "$second_path" >&2
    exit 1
fi
echo "one build path ok"

echo "== one DPF front door (DpfService serves every filter set) =="
# A filter set is served by `DpfService`: an install builds the new set
# and publishes it before it returns (`insert_all` a whole batch with
# one build), and a set whose build failed is interpreted from the trie
# its native code would be compiled from, so it answers alike (DESIGN.md
# "Live classifier updates"). The mutate-then-compile `Dpf` that stood
# beside it could serve a stale set, which is all `try_classify` and
# `ClassifyError` existed to report: fail on any of the three names.
# Looked at: code lines (not comments) of crates/*/src before each
# file's first `#[cfg(test)]`, and of examples/.
second_door=$(git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'examples/*.rs' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            /(^|[^[:alnum:]_])Dpf([^[:alnum:]_]|$)|ClassifyError|try_classify/ {
                printf "%s:%d: %s\n", FILE, NR, $0
            }' "$f"
    done)
if [ -n "$second_door" ]; then
    echo "one-front-door gate: product code serves DPF beside DpfService:" >&2
    echo "$second_door" >&2
    exit 1
fi
echo "one DPF front door ok"

echo "== one simulator shell (each ISA keeps its registers, step and ABI) =="
# MIPS, SPARC and Alpha run inside one `Machine<I: Isa>`: the memory
# image and its host API, the counters, cache and trace, and the run
# loop are written once in crates/sim/src/lib.rs, and every trap is a
# `vcode::Trap` (DESIGN.md "One simulator shell"). A second definition
# of a shell entry point, or a per-ISA trap enum, is a second shell:
# fail on either. Looked at: code lines (not comments) of
# crates/sim/src before each file's first `#[cfg(test)]`.
shell=$(git ls-files --cached --others --exclude-standard 'crates/sim/src/*.rs' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            { printf "%s:%d: %s\n", FILE, NR, $0 }' "$f"
    done)
second_shell=$(
    for name in load_code alloc write read reset_stats set_trace disasm_all; do
        defs=$(grep -E "fn $name[^[:alnum:]_]" <<<"$shell" || true)
        [ "$(grep -c . <<<"$defs")" = 1 ] || echo "fn $name defined other than once:${defs:+$'\n'}$defs"
    done
    grep -E "enum Trap([^[:alnum:]_]|$)" <<<"$shell" || true
)
if [ -n "$second_shell" ]; then
    echo "one-simulator-shell gate: the shell is written more than once:" >&2
    echo "$second_shell" >&2
    exit 1
fi
echo "one simulator shell ok"

echo "== code is owned, not registered (no process-wide executor or decoder) =="
# A simulated target's engine backend (`vcode_sim::engine::SimBackend`)
# owns its emitter, its `Machine<I>` and its decoder, so registering it
# with an `Engine` is the whole setup; and executable code lives exactly
# as long as the `Arc`s of its owners (DESIGN.md "Engine layer"). The
# process-wide slots a process had to fill before a simulated lambda
# could run or load (`vcode_sim::engine::install`, the executor and
# decoder registries, the `code_backend!` adapters) and the second
# refcount on sealed code (`CodePin`) must not come back: fail on any of
# their names. Looked at: code lines (not comments) of crates/*/src
# before each file's first `#[cfg(test)]`, of examples/, and README.md.
registry_names='SimExecutor|set_executor|set_decoder|CodePin|code_backend!|engine::install'
registered=$(
    git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'examples/*.rs' |
        while IFS= read -r f; do
            [ -f "$f" ] || continue
            awk -v FILE="$f" -v NAMES="$registry_names" '
                /^[ \t]*#\[cfg\(test\)\]/ { exit }
                /^[ \t]*\/\// { next }
                $0 ~ NAMES { printf "%s:%d: %s\n", FILE, NR, $0 }' "$f"
        done
    grep -nHE "$registry_names" README.md || true
)
if [ -n "$registered" ]; then
    echo "owned-code gate: code is reached through a process-wide registry, or pinned beside its owner:" >&2
    echo "$registered" >&2
    exit 1
fi
echo "code is owned, not registered ok"

echo "== one ASH loop generator (Pipeline runs the generic loop) =="
# `ash::generic::compile_fused<T: Target>` writes the ASH loop for every
# target: `Pipeline` compiles it for x86-64 and table4_sim runs it on
# MIPS, SPARC and Alpha, so simulated cycles and native nanoseconds
# measure the same code (DESIGN.md "One ASH loop"). An x86-64-only
# assembler beside it, or a second definition of the generator, is a
# second loop: fail on either. Looked at: code lines (not comments) of
# crates/ash/src before each file's first `#[cfg(test)]`.
ash_code=$(git ls-files --cached --others --exclude-standard 'crates/ash/src/*.rs' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            { printf "%s:%d: %s\n", FILE, NR, $0 }' "$f"
    done)
second_loop=$(
    grep -E "Assembler(::)?<('[a-z_]+, *)?X64>" <<<"$ash_code" || true
    defs=$(grep -E "fn compile_fused[^[:alnum:]_]" <<<"$ash_code" || true)
    [ "$(grep -c . <<<"$defs")" = 1 ] || echo "fn compile_fused defined other than once:${defs:+$'\n'}$defs"
)
if [ -n "$second_loop" ]; then
    echo "one-ASH-loop gate: the ASH loop is written more than once:" >&2
    echo "$second_loop" >&2
    exit 1
fi
echo "one ASH loop generator ok"

echo "== one lowering (liveness kept while a Program is recorded) =="
# `engine::replay` is the one lowering from a recorded `Program`: a
# vreg takes a register at its first mention and gives it back after
# the op at its end, which the program recorded (DESIGN.md "One
# lowering loop"). A second vreg policy, a separate interval pass, or a
# backend hook to choose between lowerings is a second lowering in the
# making: fail on product source that names the removed ones or defines
# `fn compile_with(` (ASH's `compile_with_options` and
# `compile_with_unroll` are other names). Looked at: code lines (not
# comments) of crates/*/src, src and examples before each file's first
# `#[cfg(test)]`.
second_lowering=$(git ls-files --cached --others --exclude-standard \
        'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'examples/*.rs' |
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        awk -v FILE="$f" '
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            /(^|[^[:alnum:]_])(VregMap|FirstTouch|LinearScan|LiveIntervals)([^[:alnum:]_]|$)/ ||
            /fn[ \t]+compile_with[ \t]*[(<]/ {
                printf "%s:%d: %s\n", FILE, NR, $0
            }' "$f"
    done)
if [ -n "$second_lowering" ]; then
    echo "one-lowering gate: product source keeps a second vreg policy or lowering hook:" >&2
    echo "$second_lowering" >&2
    exit 1
fi
echo "one lowering ok"

echo "== DPF dispatch is data (a set of leaves is a table lookup) =="
# A dispatch node whose arms all just accept a filter emits no arm and
# no indirect jump: the hash (or the dense index) selects a table entry,
# one compare checks its key, the id is loaded and returned (DESIGN.md
# "Classification by data"). Exact, in release as the benchmark runs it:
# the 33-port set is 26 VCODE instructions in at most 150 bytes, with one
# length check, no frame, and no transfer without an encoded target but
# its two `ret`s; over generated sets on both sides of the choice (hash
# and dense with holes, 16-bit, masked and 32-bit fields, behind a
# `Shift`, one non-leaf arm behind a hash and in a dense range) the
# compiled classifier, the `Filter::matches` scan, MPF and PATHFINDER
# agree on every key, on misses, on the values an empty slot holds and
# on truncated packets; a 64-key node with one non-leaf arm hashes (its
# table holds code distances) and agrees with them and the trie; and
# they agree on every truncation of sets whose one length check covers
# a subtree, with one check per field when elision is off.
cargo test -q --release -p dpf --offline --test engines -- \
    a_set_of_leaves_is_dispatched_by_data \
    data_dispatch_agrees_with_every_engine_on_generated_sets \
    a_sparse_node_with_one_code_arm_hashes \
    every_truncation_classifies_alike_with_one_check_per_subtree

echo "== exec pool steady state (a cold compile makes no syscalls) =="
# 4096 first-sight programs through `compile_cached` on a full 256-entry
# L1, in release as the benchmark runs them: the executable-memory pool
# must serve every allocation and take every release (hits = parked =
# 4096, misses = evicted = 0; 3820/276/3820/276 before PR 18). Then the
# other native clients: two DPF classifiers (one image of one page, one
# of more), an ASH kernel and a tcc unit each park in the smallest class
# holding what they installed, and 1 000
# insert/remove cycles on a warmed DPF service make no pool miss. The
# test asserts it; the lines it measured are echoed for the log.
cargo test -q --release -p harden --offline --test pool_steady_state -- --nocapture |
    grep '^pool deltas'

echo "== allocation count (a warm thread allocates what a compile hands out) =="
# `replay::<X64>` and a first-sight `compile_cached` + `call` over a
# seeded pool, counted by a `#[global_allocator]` in a process of its
# own, in release as the benchmark runs them: 1 and 6 allocations per
# call (14.3 and 21.3 before PR 20). The test asserts the numbers
# reached; the line it measured is echoed for the log.
cargo test -q --release --offline --test alloc_free_compile -- --nocapture |
    grep '^allocations per call'

echo "== model checker: exhaustive concurrency sweeps =="
# The bounded RCU / cache / stack / quarantine model programs, explored
# to completion under the vsync deterministic scheduler (the seeded
# random smoke already ran inside the workspace tests above; this is
# the full DFS sweep; the one three-thread program, concurrent reclaim,
# is swept to a bound, not exhausted). Any violation prints a replayable
# schedule, and every program's interleaving count is pinned: a lost or
# added scheduling point fails here even when no invariant breaks.
cargo test -q -p mcheck --offline --test models -- --ignored

# The two sanitizer lanes self-skip when their toolchain is absent, and
# fail CI like any other stage (`set -e`) when it is present and the
# run is red. Each ends with one line, `lane <name>: ran` or
# `lane <name>: skipped (<reason>)`, kept here and repeated above
# `CI green.` so a skip shows in the last screen of output.
lanes=""
lane() {
    local out
    # `cat >&2`, not `tee /dev/stderr`: reopening a redirected stderr
    # by name would truncate the log.
    out=$("./scripts/$1.sh" 2>&1 | tee >(cat >&2) | tail -n 1)
    lanes="$lanes$out"$'\n'
}

echo "== miri lane (advisory) =="
# Pure-IR paths under Miri (see scripts/miri.sh).
lane miri

echo "== tsan lane (advisory) =="
# dpf/cache/service suites under ThreadSanitizer (see scripts/tsan.sh).
lane tsan

echo "== fault-injection smoke (hardened execution gate) =="
cargo test -q -p harden --offline --test faults

echo "== verifier gate (streaming checks + differential decoder) =="
# The verifier integration suite: regress-style corpus must come back
# clean on all four backends, every bad-client case must be caught with
# its exact rule, and the machine-code cross-check must pass against
# the simulator decoders.
cargo test -q -p vcode --offline --test verify

# The perf stages. Each bench exits non-zero on what it asserts, which
# is exact or a paired ratio (see the "one measurement system" gate
# above); the ns they print are for the log. A bench that asserts
# nothing (verify_overhead, par_codegen, ablation, the paper tables) is
# a reporter and has no stage: scripts/bench_history.sh runs those.

echo "== codegen-cost smoke (emitted bytes and instructions, exact) =="
# One 256-instruction emission through the allocator-register, the
# hard-register and the DCG paths must write exactly the pinned bytes
# for exactly the pinned VCODE instructions, with no spills.
VCODE_SMOKE=1 cargo bench -q --offline -p vcode-bench --bench codegen_cost

echo "== exact Figure 2 count (host instructions per generated instruction) =="
# The fig2 binary single-steps emission in a forked child and counts host
# instructions exactly (EXPERIMENTS.md "Figure 2, counted"). Per target
# it counts the addi-only body, codegen_cost's mix, the mix with
# hard-coded registers (§5.3) and through DCG, plus single loads, stores
# and immediates; `--check` fails on any count off its pin in fig2.rs's
# `rows()`. It runs twice and fails on any difference between the runs.
# Stack traffic back in the emission path (a `vrfy!` closure capturing
# by reference, a length field beside the cursor) moves the pins. The
# DCG pins include glibc's malloc and memcpy, so a new host or toolchain
# may need a re-pin; say why beside it.
cargo build -q --release --offline -p vcode-bench --bin fig2
fig2_first=$(./target/release/fig2 --check)
fig2_second=$(./target/release/fig2 --check)
if [ "$fig2_first" != "$fig2_second" ]; then
    echo "Figure 2 counts differ between two runs:" >&2
    diff <(echo "$fig2_first") <(echo "$fig2_second") >&2 || true
    exit 1
fi
echo "$fig2_first"

echo "== cache-amortize smoke (lambda-cache gate) =="
# Warm cache hits must stay >=5x cheaper than a cold compile, judged on
# the median of alternating cold/warm window pairs (a hit that re-runs
# emission reads ~1x), and every warm request must count as a hit.
VCODE_SMOKE=1 cargo bench -q --offline -p vcode-bench --bench cache_amortize

echo "== compile-service smoke (flood gate on the bare service) =="
# The compile service, bare (no product code queues a build): the bench
# hard-fails when a flood past the queue depth does not shed, or when
# an accepted build is left unresolved (both counts).
VCODE_SMOKE=1 cargo bench -q --offline -p vcode-bench --bench compile_service

echo "== tier-2 exact gates (differential + simulated-cycle floor) =="
# The tier-2 bench hard-fails when any DPF/ASH hot-loop kernel
# disagrees across interpreter / tier-1 / tier-2, or when the aggregate
# simulated-cycle reduction drops below the 10% floor (cycle counts are
# deterministic, so the floor is exact). Its wall-clock rows (compile
# ns/insn of both tiers, native speedup) are printed, not gated:
# nothing serves from the tier-2 path.
VCODE_SMOKE=1 cargo bench -q --offline -p vcode-bench --bench tier2

echo "== dpf-service smoke (live-update-under-traffic gate) =="
# The live classifier service: the bench hard-fails when classification
# throughput under ~1k filter updates/s falls below 80% of the same
# readers' while the writer churns a bystander service instead, judged
# on the median ratio of 21 alternating window pairs, when the updates
# did not publish exactly one generation each, or when any window of
# either side served a packet from the interpreter.
VCODE_SMOKE=1 cargo bench -q --offline -p vcode-bench --bench dpf_service

echo "== exec-stats smoke (observability gate, pinned simulator counts) =="
# Every backend — three simulators plus native x86-64 — must expose
# nonzero, schema-stable ExecStats counters, and each simulator must
# retire exactly the pinned instructions and cycles; the bench exits
# non-zero when a backend's counters go dark or a count moves.
cargo bench -q --offline -p vcode-bench --bench exec_stats

printf '%s' "$lanes"
echo "CI green."

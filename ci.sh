#!/usr/bin/env bash
# CI gate: formatting, lints, docs, release build, examples, the full test
# suite plus perfbench's own tests, spec validation (scenario + ensemble,
# including the sparse-regime and sharded specs), the sparse-vs-dense and
# sharded equivalence proptests, the ensemble and sharded thread-count
# determinism diffs, the theory-conformance suite (budgeted, at two thread
# counts), experiment smoke, and rbb-bench's four ratio gates
# (batched-vs-scalar, sparse-vs-dense, sharded-vs-dense, weighted-unit),
# each pair timed interleaved.
# Run from the repository root. Mirrors the tier-1 verify
# (`cargo build --release && cargo test -q`) plus conformance checks.
# Fully offline: all external dependencies are vendored under `vendor/`.
#
# Stages (each wall-clock timed; summary table at the end):
#   fmt          cargo fmt --check
#   lint         clippy, rbb-lint (self-check + gate + JSON artifact), rustdoc
#   build        release build, examples
#   test         cargo test -q, perfbench's tests, engine-equivalence
#                proptests, rbb-exp smoke
#   specs        committed specs run; a misspelt or repeated key is
#                refused; ensemble, sweep and sharded determinism diffs
#   weighted     weighted regime: specs/weighted-*.json byte-diffed against
#                their goldens; the weighted sparse ensemble byte-diffed
#                against its dense twin; unit-degeneration/obliviousness
#                proptests
#   serve        rbb-serve daemon end to end: socket session, snapshot →
#                restore → resume byte-diffed against an uninterrupted run,
#                unit and weighted sessions on each load engine, and a
#                d-choice session on dense storage; a 4 MiB request line and
#                a field its op does not read get their errors
#   conformance  theory-conformance suite at 1 and 4 threads (300s budget)
#   bench        rbb-bench ratio gates
#
# `./ci.sh --stage <name>` runs one stage in isolation — e.g.
# `./ci.sh --stage bench` re-runs just the perf gates locally.
set -euo pipefail
cd "$(dirname "$0")"

usage() {
    echo "usage: ./ci.sh [--stage fmt|lint|build|test|specs|weighted|serve|conformance|bench]" >&2
    exit 2
}

STAGE=all
while [ $# -gt 0 ]; do
    case "$1" in
        --stage)
            shift
            [ $# -gt 0 ] || usage
            STAGE=$1
            ;;
        -h|--help) usage ;;
        *) usage ;;
    esac
    shift
done
case "${STAGE}" in
    all|fmt|lint|build|test|specs|weighted|serve|conformance|bench) ;;
    *) echo "unknown stage '${STAGE}'" >&2; usage ;;
esac

STAGE_NAMES=()
STAGE_TIMES=()

run_stage() {
    local name=$1
    if [ "${STAGE}" != all ] && [ "${STAGE}" != "${name}" ]; then
        return 0
    fi
    echo "=== stage: ${name} ==="
    local started=${SECONDS}
    "stage_${name}"
    local elapsed=$((SECONDS - started))
    STAGE_NAMES+=("${name}")
    STAGE_TIMES+=("${elapsed}")
}

stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --check
}

stage_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> rbb-lint (token + semantic + repo-invariant rules, JSON artifact for CI)"
    cargo run -q --release -p rbb-lint -- --self-check
    mkdir -p target
    # One invocation serves both the text gate (exit 1 on findings) and the
    # JSON artifact: --json-out writes the report before the gate exits, so
    # the workflow can upload it from a failed run too. The default run
    # includes the repo-invariant family (spec-golden, experiment-doc,
    # engine-proptest, bench-schema) — no --no-repo here: skew between
    # committed artifacts must fail the gate.
    cargo run -q --release -p rbb-lint -- --json-out target/rbb-lint.json

    echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
}

stage_build() {
    echo "==> cargo build --release"
    cargo build --release

    echo "==> examples"
    for example in quickstart process_zoo topology_tour adversarial_recovery token_scheduler exact_analysis; do
        echo "--> cargo run --release --example ${example}"
        cargo run -q --release --example "${example}" >/dev/null
    done
}

stage_test() {
    echo "==> cargo test -q"
    cargo test -q

    echo "==> perfbench's own tests (unit tests + a reduced-size smoke run of every workload)"
    # perfbench is a package of its own, outside the workspace; this catches
    # a change to a public API it calls here rather than in the benchmark
    # run. --locked keeps perfbench/Cargo.lock from being rewritten.
    cargo test --offline --locked --manifest-path perfbench/Cargo.toml

    echo "==> engine equivalence proptests (sparse-vs-dense, sharded)"
    cargo test -q -p rbb --test proptest_sparse --test proptest_sharded

    echo "==> snapshot/restore round-trip proptests (dense, sparse, sharded)"
    cargo test -q -p rbb --test proptest_snapshot

    echo "==> RNG guard regression under the release profile"
    # debug_assert! would vanish here — these tests pin that the bound and
    # rate validations are hard asserts that survive optimized builds.
    cargo test -q --release -p rbb-core --lib rng::

    echo "==> rbb-exp --quick smoke (the sweep-spec experiments through their alias, + e24 e26)"
    cargo run -q --release --bin rbb-exp -- --quick --no-write e01 e05 e09 e12 e13 e14 e16 e24 e25 e26 >/dev/null

    echo "==> rbb-exp rejects unknown experiment ids"
    if cargo run -q --release --bin rbb-exp -- --quick --no-write e01 e99 >/dev/null 2>&1; then
        echo "ERROR: rbb-exp accepted unknown id e99" >&2
        exit 1
    fi
}

stage_specs() {
    echo "==> committed specs validate and run (rbb sim / rbb ensemble, --quick)"
    for spec in specs/*.json; do
        case "$(basename "${spec}")" in
            ensemble-*) subcommand=ensemble ;;
            *)          subcommand=sim ;;
        esac
        echo "--> rbb ${subcommand} --spec ${spec} --quick"
        cargo run -q --release --bin rbb -- "${subcommand}" --spec "${spec}" --quick >/dev/null
    done

    # A misspelt key is refused, not skipped: with `weights` spelt
    # `wieghts`, the weighted spec must not run as the unit-weight process.
    echo "==> a spec holding a key that no field names is refused"
    sed 's/"weights"/"wieghts"/' specs/weighted-zipf.json > target/wieghts.json
    if ! grep -q '"wieghts"' target/wieghts.json; then
        echo "ERROR: could not write a misspelt copy of specs/weighted-zipf.json" >&2
        exit 1
    fi
    if cargo run -q --release --bin rbb -- sim --spec target/wieghts.json --quick \
        > /dev/null 2> target/wieghts.err; then
        echo "ERROR: rbb sim ran a spec holding the unknown key 'wieghts'" >&2
        exit 1
    fi
    if ! grep -q "'wieghts'" target/wieghts.err; then
        echo "ERROR: the refusal of the key 'wieghts' does not name it" >&2
        cat target/wieghts.err >&2
        exit 1
    fi

    # A key given twice is refused too, not read as its first: with `n`
    # repeated, the default spec must not run at the first value.
    echo "==> a spec holding a key twice is refused"
    sed 's/"n": 1024,/"n": 3, "n": 1024,/' specs/paper-default.json > target/n-twice.json
    if ! grep -q '"n": 3, "n": 1024,' target/n-twice.json; then
        echo "ERROR: could not write a copy of specs/paper-default.json holding n twice" >&2
        exit 1
    fi
    if cargo run -q --release --bin rbb -- sim --spec target/n-twice.json --quick \
        > /dev/null 2> target/n-twice.err; then
        echo "ERROR: rbb sim ran a spec holding the key 'n' twice" >&2
        exit 1
    fi
    if ! grep -q "'n' twice" target/n-twice.err; then
        echo "ERROR: the refusal of the repeated key 'n' does not name it" >&2
        cat target/n-twice.err >&2
        exit 1
    fi

    # The ensemble and every sweep spec (an experiment as data, at its
    # quick cells) print the same bytes at any thread count.
    echo "==> ensemble determinism gate: byte-identical reports at 1 vs 4 threads"
    local spec stem quick
    for spec in specs/ensemble-stability.json specs/ensemble-e*.json; do
        stem=$(basename "${spec}" .json)
        quick=()
        [ "${stem}" = ensemble-stability ] || quick=(--quick)
        echo "--> ${spec} ${quick[*]}"
        RAYON_NUM_THREADS=1 cargo run -q --release --bin rbb -- ensemble \
            --spec "${spec}" ${quick[@]+"${quick[@]}"} > "target/${stem}-t1.out"
        RAYON_NUM_THREADS=4 cargo run -q --release --bin rbb -- ensemble \
            --spec "${spec}" ${quick[@]+"${quick[@]}"} > "target/${stem}-t4.out"
        if ! diff -q "target/${stem}-t1.out" "target/${stem}-t4.out" >/dev/null; then
            echo "ERROR: ${spec} output differs between RAYON_NUM_THREADS=1 and =4" >&2
            diff "target/${stem}-t1.out" "target/${stem}-t4.out" >&2 || true
            exit 1
        fi
    done

    echo "==> sharded determinism gate: byte-identical reports at 1 vs 4 threads (fixed shards: 4)"
    RAYON_NUM_THREADS=1 cargo run -q --release --bin rbb -- sim \
        --spec specs/sharded-large.json --quick > target/sharded-t1.out
    RAYON_NUM_THREADS=4 cargo run -q --release --bin rbb -- sim \
        --spec specs/sharded-large.json --quick > target/sharded-t4.out
    if ! diff -q target/sharded-t1.out target/sharded-t4.out >/dev/null; then
        echo "ERROR: sharded trial differs between RAYON_NUM_THREADS=1 and =4" >&2
        diff target/sharded-t1.out target/sharded-t4.out >&2 || true
        exit 1
    fi
}

stage_weighted() {
    # The weighted-regime gate: the committed weighted specs replay
    # byte-identically against their golden fixtures (same harness
    # convention as crates/cli/tests/golden_specs.rs — RAYON_NUM_THREADS
    # pinned), and the weighted equivalence laws (unit degeneration,
    # weight obliviousness, snapshot round-trip) hold across
    # dense/sparse/sharded.
    echo "==> weighted specs byte-diff against golden fixtures"
    local found=0
    for spec in specs/weighted-*.json specs/ensemble-weighted*.json; do
        [ -e "${spec}" ] || continue
        found=1
        local stem subcommand
        stem=$(basename "${spec}" .json)
        case "${stem}" in
            ensemble-*) subcommand=ensemble ;;
            *)          subcommand=sim ;;
        esac
        echo "--> rbb ${subcommand} --spec ${spec} --quick vs golden"
        RAYON_NUM_THREADS=2 cargo run -q --release --bin rbb -- \
            "${subcommand}" --spec "${spec}" --quick > "target/${stem}.out"
        if ! diff -q "target/${stem}.out" "crates/cli/tests/golden/${stem}.stdout" >/dev/null; then
            echo "ERROR: ${spec} output drifted from its golden fixture" >&2
            diff "target/${stem}.out" "crates/cli/tests/golden/${stem}.stdout" >&2 || true
            exit 1
        fi
    done
    if [ "${found}" -eq 0 ]; then
        echo "ERROR: no weighted specs found under specs/" >&2
        exit 1
    fi

    # Sparse = dense end to end: the weighted sparse ensemble and its twin
    # on dense storage print the same report byte for byte.
    echo "==> weighted sparse ensemble byte-diffed against its dense twin"
    local sparse_spec=specs/ensemble-weighted-sparse.json
    local dense_spec=target/ensemble-weighted-sparse-as-dense.json
    sed 's/"engine": *"sparse"/"engine": "dense"/' "${sparse_spec}" > "${dense_spec}"
    if cmp -s "${sparse_spec}" "${dense_spec}" || ! grep -q '"engine": "dense"' "${dense_spec}"; then
        echo "ERROR: could not write a dense twin of ${sparse_spec}" >&2
        exit 1
    fi
    RAYON_NUM_THREADS=2 cargo run -q --release --bin rbb -- \
        ensemble --spec "${sparse_spec}" --quick > target/ensemble-weighted-twin-sparse.json
    RAYON_NUM_THREADS=2 cargo run -q --release --bin rbb -- \
        ensemble --spec "${dense_spec}" --quick > target/ensemble-weighted-twin-dense.json
    if ! cmp -s target/ensemble-weighted-twin-sparse.json target/ensemble-weighted-twin-dense.json; then
        echo "ERROR: the weighted sparse ensemble and its dense twin report differently" >&2
        diff target/ensemble-weighted-twin-sparse.json target/ensemble-weighted-twin-dense.json >&2 || true
        exit 1
    fi

    echo "==> weighted equivalence proptests (unit degeneration, obliviousness, snapshots)"
    cargo test -q -p rbb --test proptest_weighted
}

stage_serve() {
    # End-to-end daemon gate, per session kind (unit on
    # specs/serve-session.json, weighted on specs/weighted-zipf.json, both on
    # each load engine; d-choice on specs/dchoice-two.json, dense only, with
    # the unit requests): (1) an uninterrupted stdio session answers
    # prefix+suffix requests; (2) session A on a Unix socket answers the
    # prefix and writes a snapshot (layout version 1 unit, 2 weighted, 3
    # d-choice); (3) a fresh daemon B restores the snapshot and answers the
    # suffix. The suffix draws plenty
    # of RNG (placements + whole rounds), so any drift in the restored stream
    # state or weight queues breaks the byte-diffs below.
    echo "==> rbb-serve end to end: snapshot -> restore -> resume byte-diff"
    cargo build -q --release -p rbb-serve
    local bin=target/release/rbb-serve
    local dir=target/serve-stage
    rm -rf "${dir}"
    mkdir -p "${dir}"

    cat > "${dir}/unit-prefix.req" <<'EOF'
{"op":"place"}
{"op":"step","rounds":40}
{"op":"place","count":5}
{"op":"query"}
{"op":"depart","bin":0}
EOF
    cat > "${dir}/unit-suffix.req" <<'EOF'
{"op":"place"}
{"op":"step","rounds":25}
{"op":"place","count":7}
{"op":"query"}
{"op":"place"}
EOF
    # The one-per-bin start holds a ball in every bin: the depart takes bin
    # 0's, the heaviest Zipf ball.
    cat > "${dir}/weighted-prefix.req" <<'EOF'
{"op":"depart","bin":0}
{"op":"place","weight":7}
{"op":"step","rounds":40}
{"op":"place","count":3,"weight":5}
{"op":"query"}
EOF
    cat > "${dir}/weighted-suffix.req" <<'EOF'
{"op":"place","weight":9}
{"op":"step","rounds":25}
{"op":"place","count":3,"weight":5}
{"op":"query"}
{"op":"place"}
EOF

    local kind spec version engines reqs engine run sock daemon
    for kind in unit weighted dchoice; do
        case "${kind}" in
            unit)
                spec=specs/serve-session.json version=1 engines="dense sparse sharded" reqs=unit ;;
            weighted)
                spec=specs/weighted-zipf.json version=2 engines="dense sparse sharded" reqs=weighted ;;
            dchoice)
                spec=specs/dchoice-two.json version=3 engines=dense reqs=unit ;;
        esac
        for engine in ${engines}; do
            local shard_args=()
            if [ "${engine}" = sharded ]; then
                shard_args=(--shards 4)
            fi
            run="${dir}/${kind}-${engine}"

            echo "--> ${kind} ${engine}: uninterrupted reference session (stdio)"
            cat "${dir}/${reqs}-prefix.req" "${dir}/${reqs}-suffix.req" \
                | "${bin}" --stdio --spec "${spec}" --engine "${engine}" \
                      ${shard_args[@]+"${shard_args[@]}"} \
                > "${run}-full.out"

            echo "--> ${kind} ${engine}: session A on a Unix socket, checkpoint, clean shutdown"
            sock="${run}.sock"
            "${bin}" --socket "${sock}" --spec "${spec}" --engine "${engine}" \
                ${shard_args[@]+"${shard_args[@]}"} &
            daemon=$!
            for _ in $(seq 100); do
                [ -S "${sock}" ] && break
                sleep 0.1
            done
            [ -S "${sock}" ] || { echo "ERROR: ${kind} ${engine} daemon socket never appeared" >&2; exit 1; }
            { cat "${dir}/${reqs}-prefix.req"
              echo "{\"op\":\"snapshot\",\"path\":\"${run}.snap\"}"
              echo '{"op":"shutdown"}'
            } | "${bin}" --connect "${sock}" > "${run}-a.out"
            wait "${daemon}" || { echo "ERROR: ${kind} ${engine} daemon exited non-zero" >&2; exit 1; }
            if ! grep -q "\"version\": *${version}," "${run}.snap"; then
                echo "ERROR: ${kind} ${engine} snapshot is not layout version ${version}" >&2
                exit 1
            fi

            echo "--> ${kind} ${engine}: session B restores the checkpoint and resumes"
            # Deliberately started on a tiny default engine: restore must
            # replace it wholesale with the checkpointed ${engine} state.
            { echo "{\"op\":\"restore\",\"path\":\"${run}.snap\"}"
              cat "${dir}/${reqs}-suffix.req"
              echo '{"op":"shutdown"}'
            } | "${bin}" --stdio --n 8 --seed 999 > "${run}-b.out"

            # Prefix responses: uninterrupted run vs session A, byte-identical.
            if ! diff <(head -n 5 "${run}-full.out") <(head -n 5 "${run}-a.out") >/dev/null; then
                echo "ERROR: ${kind} ${engine} prefix responses diverged (full vs session A)" >&2
                diff <(head -n 5 "${run}-full.out") <(head -n 5 "${run}-a.out") >&2 || true
                exit 1
            fi
            # Suffix responses: uninterrupted run vs restored session B (B's
            # line 1 is the restore ack, line 7 the shutdown ack).
            if ! diff <(tail -n 5 "${run}-full.out") <(sed -n '2,6p' "${run}-b.out") >/dev/null; then
                echo "ERROR: ${kind} ${engine} resumed responses diverged (full vs session B)" >&2
                diff <(tail -n 5 "${run}-full.out") <(sed -n '2,6p' "${run}-b.out") >&2 || true
                exit 1
            fi
            echo "    ${kind} ${engine}: snapshot (v${version}) -> restore -> resume is byte-identical"
        done
    done

    # A request line holding a 4 MiB string must parse in one pass: a
    # parser that rescans the rest of the line per character holds the
    # daemon for hours on it. The string sits in a field `query` does not
    # read, so the whole line is read, then refused with an error naming
    # the field, and the next request is answered.
    echo "--> a 4 MiB request line is answered within 20 s, and so is the next"
    { printf '{"op":"query","pad":"'
      head -c $((4 << 20)) /dev/zero | tr '\0' x
      printf '"}\n{"op":"query"}\n'
    } | timeout 20 "${bin}" --stdio --n 64 > "${dir}/long-line.out" \
        || { echo "ERROR: the 4 MiB request line was not served within 20 s" >&2; exit 1; }
    if [ "$(wc -l < "${dir}/long-line.out")" -ne 2 ] \
        || ! sed -n 1p "${dir}/long-line.out" | grep -q "^{\"ok\":false.*'pad'" \
        || ! sed -n 2p "${dir}/long-line.out" | grep -q '^{"ok":true'; then
        echo "ERROR: the 4 MiB request line was not refused for its field 'pad', or the next got no answer" >&2
        cat "${dir}/long-line.out" >&2
        exit 1
    fi

    # A state key the snapshot layout does not name is refused, not
    # skipped, and the session keeps the engine it had.
    echo "--> a restore whose state holds a key its layout does not name is refused"
    printf '%s\n' '{"op":"query"}' \
        '{"op":"restore","state":{"version":1,"engine":"dense","n":8,"shards":1,"round":0,"balls":2,"entries":[[0,1],[5,1]],"rng_states":[[1,2,3,4]],"bogus":7}}' \
        '{"op":"query"}' \
        | "${bin}" --stdio --n 64 > "${dir}/stray-state.out"
    if ! sed -n 2p "${dir}/stray-state.out" | grep -q "^{\"ok\":false.*'bogus'" \
        || [ "$(sed -n 1p "${dir}/stray-state.out")" != "$(sed -n 3p "${dir}/stray-state.out")" ]; then
        echo "ERROR: a restore whose state holds \"bogus\":7 was not refused, or it changed the session" >&2
        cat "${dir}/stray-state.out" >&2
        exit 1
    fi

    # A misspelt field is refused, not ignored: this place must not happen.
    echo "--> a field its op does not read is refused, and nothing is placed"
    printf '{"op":"place","cuont":3}\n{"op":"query"}\n' \
        | "${bin}" --stdio --n 64 > "${dir}/unknown-field.out"
    if ! sed -n 1p "${dir}/unknown-field.out" | grep -q "^{\"ok\":false.*'cuont'" \
        || ! sed -n 2p "${dir}/unknown-field.out" | grep -q '"balls":64,'; then
        echo "ERROR: {\"op\":\"place\",\"cuont\":3} was not refused, or it placed a ball" >&2
        cat "${dir}/unknown-field.out" >&2
        exit 1
    fi
}

stage_conformance() {
    echo "==> theory-conformance suite (named group, wall-clock budget 300s)"
    local started=${SECONDS}
    RAYON_NUM_THREADS=1 cargo test -q -p rbb --test conformance_theory --test thread_invariance
    RAYON_NUM_THREADS=4 cargo test -q -p rbb --test conformance_theory --test thread_invariance
    local elapsed=$((SECONDS - started))
    echo "    conformance suite took ${elapsed}s"
    if [ "${elapsed}" -gt 300 ]; then
        echo "ERROR: conformance suite exceeded its 300s wall-clock budget" >&2
        exit 1
    fi
}

stage_bench() {
    # The gate writes its quick-profile report to an untracked path so it never
    # clobbers the committed full-profile BENCH.json snapshot (refresh that one
    # deliberately with `cargo run --release --bin rbb-bench -- --json BENCH.json`).
    # Every gate reads the paired ratio of two kernels timed interleaved, so
    # drift on a shared machine hits both sides of a pair alike.
    # Sparse gate: measured ~21x at m/n = 1/1024 (quick profile); 3x leaves a wide
    # margin for noisy machines while still failing on any real regression.
    # Sharded gate: a parallel-scaling assertion (4 shards, n = 10^7); rbb-bench
    # enforces the 2x threshold when the machine has >= 4 cores and otherwise
    # prints the measured ratio and skips loudly (it still lands in BENCH.json),
    # because fewer cores than shards cannot physically express the speedup.
    echo "==> rbb-bench perf gates (batched >= 1.5x scalar, sparse >= 3x dense, sharded >= 2x dense)"
    cargo run -q --release --bin rbb-bench -- --quick --json target/BENCH.json \
        --min-engine-speedup 1.5 --min-sparse-speedup 3.0 --min-sharded-speedup 2.0
    # Weighted-unit gate: the unit fast path through the weighted constructor
    # must stay within 5% of the batched kernel (same workload) — the weighted
    # layer is free when unused, and this keeps it that way. A 5% budget needs
    # the interleaved full-profile pair at a healthy rep count; the quick
    # profile's sub-ms iterations are scheduler noise at that resolution.
    echo "==> rbb-bench weighted-unit neutrality gate (>= 0.95x batched, interleaved pair)"
    cargo run -q --release --bin rbb-bench -- --only engine/weighted-unit --reps 25 \
        --min-weighted-unit-ratio 0.95
}

run_stage fmt
run_stage lint
run_stage build
run_stage test
run_stage specs
run_stage weighted
run_stage serve
run_stage conformance
run_stage bench

echo ""
echo "==> stage timings"
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %-12s %4ss\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}"
done

echo "CI OK"

#!/usr/bin/env bash
# Local CI gate: build, test, lint, format.
#
# Usage: ./ci.sh
# Fails fast on the first broken step. rustfmt and clippy are optional
# (offline toolchains may lack them); every other step is mandatory.
#
# Opt-in sanitizer smoke (FEDRA_SANITIZE=1 ./ci.sh): the dynamic
# counterpart to fedra-lint's determinism-discipline and lock-discipline
# passes — runs the parallel-equivalence suite under ThreadSanitizer
# and the federation wire tests under Miri. Skipped by default because
# both need a nightly toolchain with the `rust-src` (for -Zbuild-std)
# and `miri` components; the stage probes for them and fails with a
# pointed message instead of attempting any install.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

# The pool-size equivalence suite again under forced pool sizes. The
# FEDRA_SILO_THREADS override steers every auto-sized pool (the
# reproducibility suite builds with the default), and the equivalence
# suite's explicit 1-vs-4 comparison must hold in both environments.
for threads in 1 4; do
    echo "==> parallel equivalence (FEDRA_SILO_THREADS=$threads)"
    FEDRA_SILO_THREADS=$threads cargo test -q -p fedra \
        --test parallel_equivalence --test reproducibility \
        --test concurrent_equivalence
done

# Observability smoke: the quickstart ends with an instrumented batch
# and a Prometheus dump; an empty or counter-less dump means the
# exporter or the engine instrumentation broke.
echo "==> observability smoke (quickstart metrics dump)"
obs_dump=$(cargo run -q --release --example quickstart | sed -n '/^fedra_/p')
test -n "$obs_dump" || { echo "obs smoke: exporter output empty"; exit 1; }
echo "$obs_dump" | grep -q '^fedra_queries_total 32$' \
    || { echo "obs smoke: fedra_queries_total missing or wrong"; exit 1; }
echo "$obs_dump" | grep -q '^fedra_comm_bytes_up_total ' \
    || { echo "obs smoke: comm mirror missing"; exit 1; }
echo "    ok ($(echo "$obs_dump" | wc -l) exporter lines)"

# Chaos smoke: the resilience example runs its timing-fault ladder under
# a fixed FaultPlan seed. The hedge machinery must actually fire, no
# query may fail, and every circuit breaker must be closed again by the
# end of the run ("breaker leaks: 0").
echo "==> chaos smoke (resilience example, seeded FaultPlan)"
chaos_out=$(cargo run -q --release --example resilience)
echo "$chaos_out" | grep -q ' 0 failed, ' \
    || { echo "chaos smoke: queries failed under the fault plan"; exit 1; }
echo "$chaos_out" | grep -Eq 'hedges fired/won: [1-9][0-9]*/' \
    || { echo "chaos smoke: slow silo never triggered a hedge"; exit 1; }
echo "$chaos_out" | grep -q '^breaker leaks: 0$' \
    || { echo "chaos smoke: breaker leaked out of the run"; exit 1; }
echo "    ok (hedges fired, no breaker leaks)"

# Chaos soak loop: the soak's flap witness once depended on who won a
# hedge race (red on 2-core hosts). 10 runs per backend, 20/20 must pass,
# so a scheduling-dependent assertion cannot silently come back.
echo "==> chaos soak loop (10x memory, 10x socket)"
for backend in memory socket; do
    for i in $(seq 1 10); do
        FEDRA_TRANSPORT=$backend cargo test -q --release --test chaos >/dev/null 2>&1 \
            || { echo "chaos soak loop: run $i failed on the $backend backend"; exit 1; }
    done
done
echo "    ok (20/20)"

# Socket read-path loop: a waiting caller reads its own reply, one reader
# per connection at a time, handing the reads on when it stops. Races in
# that hand-off depend on timing, so the suite runs 10 times; 10/10 must
# pass. The second race is a crash against a reconnect: an injected crash
# must close the silo's listener before its connection drops, or a
# reconnect that lands in between turns the crash into a retryable
# transient where the in-memory backend says disconnected (the seeded
# fault-plan test in socket_transport); the partition suite's
# crash-and-rejoin test runs along under the default reconnect budget.
echo "==> socket transport loop (10x)"
for i in $(seq 1 10); do
    cargo test -q --release --test socket_transport >/dev/null 2>&1 \
        || { echo "socket transport loop: run $i failed"; exit 1; }
    cargo test -q --release --test partition crashed_silo_rejoins_from_its_grid_snapshot \
        >/dev/null 2>&1 \
        || { echo "socket transport loop: partition rejoin run $i failed"; exit 1; }
done
echo "    ok (10/10)"

# Socket smoke: the same federation served two ways. Three fedra-silo
# processes host the exported partitions over Unix-domain sockets, and
# the remote run's ANSWER lines — aggregate values AND comm-byte
# counts — must be byte-identical to the in-process run. The socket
# payloads are the exact in-memory Wire encoding, so any divergence
# here is a framing or accounting bug, not noise.
echo "==> socket smoke (fedra-silo serve over unix sockets)"
sock_dir=target/ci/socket-smoke
rm -rf "$sock_dir" && mkdir -p "$sock_dir"
cargo run -q --release --example remote_federation -- export "$sock_dir" >/dev/null
silo_pids=""
for k in 0 1 2; do
    ./target/release/fedra-silo serve \
        --addr "unix:$sock_dir/s$k.sock" --data "$sock_dir/silo$k.csv" \
        --silo-id "$k" >"$sock_dir/silo$k.log" 2>&1 &
    silo_pids="$silo_pids $!"
done
trap 'kill $silo_pids 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -S "$sock_dir/s0.sock" ] && [ -S "$sock_dir/s1.sock" ] && [ -S "$sock_dir/s2.sock" ] && break
    sleep 0.1
done
cargo run -q --release --example remote_federation -- local \
    | grep '^ANSWER' >"$sock_dir/local.txt"
cargo run -q --release --example remote_federation -- remote "$sock_dir/bounds.txt" \
    "unix:$sock_dir/s0.sock" "unix:$sock_dir/s1.sock" "unix:$sock_dir/s2.sock" \
    | grep '^ANSWER' >"$sock_dir/remote.txt"
kill $silo_pids 2>/dev/null || true
trap - EXIT
wait $silo_pids 2>/dev/null || true
test -s "$sock_dir/local.txt" \
    || { echo "socket smoke: no ANSWER lines produced"; exit 1; }
diff "$sock_dir/local.txt" "$sock_dir/remote.txt" \
    || { echo "socket smoke: remote answers diverge from the in-process run"; exit 1; }
echo "    ok ($(wc -l <"$sock_dir/local.txt") answers byte-identical across processes)"

# The chaos, failure-injection, and equivalence suites again with every
# in-process silo behind a loopback socket transport: shed / retry /
# hedge semantics and answers must not depend on the backend. The
# fedra-core lib tests ride along: sampling, framework and scheduler are
# the lone-query and round callers, and no root-package test reaches
# them. (A mistyped backend name fails every federation build with
# SetupError::UnknownTransport instead of passing on the memory backend.)
echo "==> socket backend suites (FEDRA_TRANSPORT=socket)"
FEDRA_TRANSPORT=socket cargo test -q -p fedra \
    --test chaos --test failure_injection --test concurrent_equivalence
FEDRA_TRANSPORT=socket cargo test -q -p fedra-core
chaos_sock=$(FEDRA_TRANSPORT=socket cargo run -q --release --example resilience)
echo "$chaos_sock" | grep -q ' 0 failed, ' \
    || { echo "socket chaos: queries failed under the fault plan"; exit 1; }
echo "$chaos_sock" | grep -Eq 'hedges fired/won: [1-9][0-9]*/' \
    || { echo "socket chaos: slow silo never triggered a hedge"; exit 1; }
echo "$chaos_sock" | grep -q '^breaker leaks: 0$' \
    || { echo "socket chaos: breaker leaked out of the run"; exit 1; }
echo "    ok (chaos + failure injection + equivalence green over sockets)"

# Partition smoke: the §5i drill against real fedra-silo processes. The
# driver streams queries while silo 2 is SIGKILL'd mid-stream: a
# degraded answer with an honest coverage record must appear, the silo
# must respawn warm from its checksummed grid snapshot (its stdout says
# so), a stale reply crossing a dropped connection must be fenced by
# epoch, and both the healthy and the post-recovery answers must be
# byte-identical to the in-process reference.
echo "==> partition smoke (SIGKILL + snapshot respawn + epoch fencing)"
part_dir=target/ci/partition-smoke
rm -rf "$part_dir" && mkdir -p "$part_dir/snap"
cargo build -q --release --example partition_drill
cargo run -q --release --example remote_federation -- export "$part_dir" >/dev/null
cargo run -q --release --example partition_drill -- local \
    | grep '^ANSWER' >"$part_dir/local.txt"
part_pids=()
for k in 0 1 2; do
    ./target/release/fedra-silo serve \
        --addr "unix:$part_dir/s$k.sock" --data "$part_dir/silo$k.csv" \
        --silo-id "$k" --snapshot-dir "$part_dir/snap" \
        >"$part_dir/silo$k.log" 2>&1 &
    part_pids+=($!)
done
drill_pid=""
trap 'kill -9 ${part_pids[*]} $drill_pid 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -S "$part_dir/s0.sock" ] && [ -S "$part_dir/s1.sock" ] && [ -S "$part_dir/s2.sock" ] && break
    sleep 0.1
done
./target/release/examples/partition_drill drive "$part_dir" "$part_dir/bounds.txt" \
    "unix:$part_dir/s0.sock" "unix:$part_dir/s1.sock" "unix:$part_dir/s2.sock" \
    >"$part_dir/drive.log" 2>&1 &
drill_pid=$!
await_marker() { # <regex> — poll drive.log until it appears or the drill dies
    for _ in $(seq 1 600); do
        grep -Eq "$1" "$part_dir/drive.log" 2>/dev/null && return 0
        kill -0 "$drill_pid" 2>/dev/null || return 1
        sleep 0.1
    done
    return 1
}
await_marker '^PHASE-A-DONE$' \
    || { cat "$part_dir/drive.log"; echo "partition smoke: healthy phase never finished"; exit 1; }
kill -9 "${part_pids[2]}" 2>/dev/null || true
wait "${part_pids[2]}" 2>/dev/null || true
touch "$part_dir/killed"
await_marker '^PHASE-B-DONE$' \
    || { cat "$part_dir/drive.log"; echo "partition smoke: no degraded phase"; exit 1; }
rm -f "$part_dir/s2.sock"    # the SIGKILL'd process left its socket file behind
./target/release/fedra-silo serve \
    --addr "unix:$part_dir/s2.sock" --data "$part_dir/silo2.csv" \
    --silo-id 2 --snapshot-dir "$part_dir/snap" \
    >"$part_dir/silo2-respawn.log" 2>&1 &
part_pids[2]=$!
wait "$drill_pid" \
    || { cat "$part_dir/drive.log"; echo "partition smoke: drill failed"; exit 1; }
drill_pid=""
kill "${part_pids[@]}" 2>/dev/null || true
trap - EXIT
wait "${part_pids[@]}" 2>/dev/null || true
grep -q 'loaded grid snapshot' "$part_dir/silo2-respawn.log" \
    || { echo "partition smoke: respawned silo did not warm-start from its snapshot"; exit 1; }
grep -Eq '^DEGRADED count=[1-9]' "$part_dir/drive.log" \
    || { echo "partition smoke: no honest degraded answer surfaced"; exit 1; }
grep -Eq '^FENCED [1-9]' "$part_dir/drive.log" \
    || { echo "partition smoke: no stale reply was fenced"; exit 1; }
grep -q '^breaker leaks: 0$' "$part_dir/drive.log" \
    || { echo "partition smoke: a breaker leaked out of the drill"; exit 1; }
grep '^ANSWER' "$part_dir/drive.log" >"$part_dir/healthy.txt"
diff "$part_dir/local.txt" "$part_dir/healthy.txt" \
    || { echo "partition smoke: healthy remote answers diverge from the in-process run"; exit 1; }
sed -n 's/^FINAL /ANSWER /p' "$part_dir/drive.log" >"$part_dir/final.txt"
diff "$part_dir/local.txt" "$part_dir/final.txt" \
    || { echo "partition smoke: post-recovery answers diverge from the in-process run"; exit 1; }
echo "    ok (degraded honestly, respawned from snapshot, $(grep -c '^ANSWER' "$part_dir/local.txt") answers bit-identical after recovery)"

# Benchmark correctness gate: five short fedra-e2e runs, exit code only.
# Each run checks EXACT = brute force, the MRE ceilings and bit-identity
# to serial execution before it reports a number, so the one T₀ every
# silo answers from is guarded on both backends, the silo's one-walk
# per-cell kernel is guarded lone (tcp) and batched (mem),
# batch_exact_mem guards batched = lone for EXACT's pool of every silo
# (250 queries' legs on 6 coalesced frames vs `try_execute`, bit for bit),
# sched_iid_mem guards scheduled = serial under the scheduler's
# drain-until-dry admission loop, and sched_iid_tcp runs the one
# end-to-end lockstep comparison of the bytes sockets and memory count
# for the same queries. Timings from a 2 s window are not read; bytes
# are: a batch workload's check pass sends a deterministic function of
# the seed, so neither batch_noniid_mem's nor batch_exact_mem's may grow
# past the bytes recorded when whole cell vectors began to travel as
# varint columns behind varint lengths. single_noniid_tcp keeps one query in flight, so
# its check pass is the one LSR path whose bytes are a function of the
# seed: they may not grow past the figure recorded at the same change.
# sched_* coalesce by timing and stay ungated. Index memory is
# one too: no workload's index_mem_mb may grow past the figure recorded
# when the silo forests were laid out in cell runs (the packed node
# array over cell-ordered objects, the part-filled leaves and parents of
# cells that own theirs, and each tree's 8-byte-per-cell run directory),
# so neither per-node child vectors nor a second copy of the objects or
# of the provider's prefixes can creep back in.
echo "==> benchmark correctness gate (fedra-e2e, 2 s windows)"
noniid_bytes_cap=77.460
exact_bytes_cap=245.332
lone_lsr_bytes_cap=1077.895
index_mem_cap=46.960
for workload in single_noniid_tcp batch_exact_mem batch_noniid_mem sched_iid_mem sched_iid_tcp; do
    gate_out=$(bash bench/run.sh --workload "$workload" --seconds 2 --trace 0) \
        || { echo "benchmark gate: $workload failed its correctness gate"; exit 1; }
    mem=$(echo "$gate_out" | sed -n 's|^  index_mem_mb  *\([0-9.]*\) MiB.*|\1|p')
    awk -v m="$mem" -v cap="$index_mem_cap" 'BEGIN { exit !(m != "" && m + 0 <= cap + 0) }' \
        || { echo "benchmark gate: $workload index_mem_mb ${mem:-?} MiB, above the recorded $index_mem_cap"; exit 1; }
    check_bytes=$(echo "$gate_out" | sed -n 's|^  check pass: comm \([0-9.]*\) B/query.*|\1|p')
    case "$workload" in
        batch_noniid_mem) cap=$noniid_bytes_cap; bytes=$check_bytes ;;
        batch_exact_mem) cap=$exact_bytes_cap; exact_bytes=$check_bytes ;;
        single_noniid_tcp) cap=$lone_lsr_bytes_cap; lone_bytes=$check_bytes ;;
        *) continue ;;
    esac
    awk -v b="$check_bytes" -v cap="$cap" 'BEGIN { exit !(b != "" && b + 0 <= cap + 0) }' \
        || { echo "benchmark gate: $workload check pass sends ${check_bytes:-?} B/query, above the recorded $cap"; exit 1; }
done
echo "    ok (single_noniid_tcp + batch_exact_mem + batch_noniid_mem + sched_iid_mem + sched_iid_tcp correct; batch_noniid_mem $bytes <= $noniid_bytes_cap B/query; batch_exact_mem $exact_bytes <= $exact_bytes_cap B/query; single_noniid_tcp $lone_bytes <= $lone_lsr_bytes_cap B/query; index_mem_mb <= $index_mem_cap MiB)"

# The harness's own unit tests, the correctness gate's logic (check.rs)
# among them: the gate above is only as sound as they are, and the
# harness compiles against the algorithm trait.
echo "==> benchmark harness unit tests (bench/run.sh test)"
bash bench/run.sh test

# Cache smoke: the operations example's rush-hour burst (600 asks over 5
# hot stations) runs through the exact-key answer cache. The batch is
# answered in input order, so the hit count is exact, and every cached
# answer must equal the uncached engine's bit for bit. The example first
# saves a provider snapshot to disk, reloads it and warm-starts from it:
# every silo's grid must come back from that file.
echo "==> cache smoke (operations, warm start + exact-key answer cache)"
cache_out=$(cargo run -q --release --example operations)
echo "$cache_out" | grep -q '(6 rounds, 6 of 6 silos from cache)' \
    || { echo "cache smoke: the warm start did not take every silo from the snapshot"; exit 1; }
echo "$cache_out" | grep -q '(595 hits / 5 misses' \
    || { echo "cache smoke: expected 595 hits / 5 misses"; exit 1; }
echo "$cache_out" | grep -q '^cached answers identical: 600/600$' \
    || { echo "cache smoke: a cached answer differs from the uncached engine's"; exit 1; }
echo "    ok (6 of 6 silos warm-started, 595 hits / 5 misses, 600/600 answers bit-identical)"

# Overhead gates, each asserting its own <= 3 % budget (any violation
# fails the step): the pure-miss cache path (zero TTL, every probe a
# miss) against the uncached algorithm, and the disabled observability
# handles against a measured per-query batch time.
echo "==> overhead gates (micro_cache, micro_obs)"
cargo bench -q -p fedra-bench --bench micro_cache | tail -n 4
cargo bench -q -p fedra-bench --bench micro_obs | tail -n 5

# `cargo test` never compiles a [[bench]] target: build every figure and
# micro bench so a deleted API cannot leave one broken unnoticed.
echo "==> bench targets compile (fedra-bench --no-run)"
cargo bench -q -p fedra-bench --no-run

# Sanitizer smoke (opt-in; see header). TSan re-runs the pool-size
# equivalence suite looking for data races the deterministic harness
# can't surface as wrong answers; Miri runs the federation crate's
# wire tests for UB in the encode/decode paths.
if [ "${FEDRA_SANITIZE:-0}" = "1" ]; then
    echo "==> sanitizer smoke (TSan + Miri, FEDRA_SANITIZE=1)"
    command -v rustup >/dev/null 2>&1 \
        || { echo "sanitize: rustup not found; cannot select a nightly toolchain"; exit 1; }
    rustup toolchain list 2>/dev/null | grep -q '^nightly' \
        || { echo "sanitize: no nightly toolchain (need: rustup toolchain install nightly)"; exit 1; }
    components=$(rustup component list --toolchain nightly 2>/dev/null || true)
    echo "$components" | grep -q '^rust-src.*(installed)' \
        || { echo "sanitize: nightly lacks rust-src (need: rustup component add rust-src --toolchain nightly)"; exit 1; }
    echo "$components" | grep -Eq '^miri.*\(installed\)' \
        || { echo "sanitize: nightly lacks miri (need: rustup component add miri --toolchain nightly)"; exit 1; }
    host=$(rustc -vV | sed -n 's/^host: //p')
    echo "    TSan: parallel equivalence suite ($host)"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q -p fedra \
        --test parallel_equivalence -Zbuild-std --target "$host"
    echo "    Miri: federation wire tests"
    cargo +nightly miri test -q -p fedra-federation wire
    echo "    ok (TSan + Miri smoke passed)"
else
    echo "==> sanitizer smoke: SKIPPED (opt in with FEDRA_SANITIZE=1)"
fi

if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> cargo fmt --check: SKIPPED (rustfmt not installed)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy -q --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy: SKIPPED (clippy not installed)"
fi

echo "CI gate passed."

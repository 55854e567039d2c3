#!/usr/bin/env bash
# Tier-1 verification in both Release and sanitizer configurations,
# plus the repo consistency checks (docs links/layer map, bench record
# schema).
#
# Usage: scripts/check.sh [jobs]
#
# Builds the tree three times — the default Release config, an
# address+undefined sanitizer config (CMake option
# -DFOVE_SANITIZE=address,undefined), and a ThreadSanitizer config
# (-DFOVE_SANITIZE=thread; tsan cannot combine with asan, so it gets
# its own tree) — running the full ctest suite in the first two and
# the concurrency-heavy suites (ctest label "tsan", listed in
# CMakeLists.txt) in the third. Exits non-zero on the
# first failure. Build directories:
#   build/        Release (shared with normal development)
#   build-san/    address,undefined sanitizers
#   build-tsan/   ThreadSanitizer
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-2}"

echo "== Docs consistency (layer map + markdown links) =="
scripts/check_docs.sh

echo "== Release build =="
cmake -B build -S . > /dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== Sanitizer build (address,undefined) =="
cmake -B build-san -S . -DFOVE_SANITIZE=address,undefined > /dev/null
cmake --build build-san -j"$JOBS"
# Every suite runs here exactly once, with halt-on-error so a
# sanitizer report fails its suite (and the run) instead of printing
# past a green result. That covers the decode-hardening corpus, the
# gaze, net, fault and obs suites, and the bench record schema alike —
# none needs a hand-kept re-run. The multi-seed soak sweep (ctest
# label "soak") is excluded here and run bounded below — 16 seeds x 5
# loss schedules is Release-cheap but sanitizer-expensive.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-san --output-on-failure -j"$JOBS" -LE soak

echo "== Adaptive-rate soak sweep under asan/ubsan (bounded) =="
# The delivery soak harness is the property suite for the adaptive
# rate controller: per-frame invariants, bit-exact replay, and the
# adaptive-beats-constant-baseline comparison across seeded loss
# schedules. The Release ctest pass above already ran it at the full
# default width (16 seeds); under the sanitizers it is bounded to 4
# seeds by default. Opt into the full-width sanitized sweep with
# PCE_SOAK_SEEDS=16 scripts/check.sh.
PCE_SOAK_SEEDS="${PCE_SOAK_SEEDS:-4}" \
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-san --output-on-failure -L soak

echo "== Concurrency suites under ThreadSanitizer =="
# The sharded dispatch refactor (dispatcher-per-shard, cross-shard
# work stealing, lane-exclusive per-stream state hand-off) lives or
# dies on happens-before edges that asan/ubsan cannot see, and the
# parallel BD encode has workers writing disjoint bytes of one buffer.
# Build a dedicated tsan tree (tsan is incompatible with asan) with
# just the suites labeled "tsan" and run them, so a data race fails
# the run loudly.
cmake -B build-tsan -S . -DFOVE_SANITIZE=thread > /dev/null
cmake --build build-tsan -j"$JOBS" --target tsan_suites
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -L tsan

echo "== Bounded fault-campaign smoke (Release) =="
# A tiny end-to-end fault_runner invocation (seconds, not minutes)
# proving the campaign harness and record writer work as shipped; the
# record lands in a scratch file, not the checked-in trajectory.
rm -f build/fault_smoke.json
PCE_BENCH_FAULT_WIDTH=48 PCE_BENCH_FAULT_HEIGHT=48 \
PCE_BENCH_FAULT_TRIALS=6 PCE_BENCH_REPEATS=1 \
PCE_BENCH_THREADS=2 \
    ./build/fault_runner build/fault_smoke.json
test -s build/fault_smoke.json

echo "== All checks passed =="

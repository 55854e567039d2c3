#!/usr/bin/env bash
# Tier-1 verification in both Release and sanitizer configurations,
# plus the repo consistency checks (docs links, layer map and code
# references; bench record schema).
#
# Usage: scripts/check.sh [jobs]
#
# Builds the tree three times — the default Release config, an
# address+undefined sanitizer config (CMake option
# -DFOVE_SANITIZE=address,undefined), and a ThreadSanitizer config
# (-DFOVE_SANITIZE=thread; tsan cannot combine with asan, so it gets
# its own tree) — running every ctest suite in each (the soak sweep
# bounded under asan/ubsan and skipped under tsan). It also builds the
# repository benchmark (perfbench/) against the library and runs its
# self-test.
# Exits non-zero on the first failure. Build directories:
#   build/            Release (shared with normal development)
#   build-san/        address,undefined sanitizers
#   build-tsan/       ThreadSanitizer
#   build-perfbench/  the benchmark, Release
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-2}"

echo "== Docs consistency (layer map, markdown links, code references) =="
scripts/check_docs.sh

echo "== Release build =="
cmake -B build -S . > /dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== Stage-harness smoke (Release) =="
# A bounded run of every micro_encoder harness (the frame pass, tile
# flow and stages, hash64, CRC-32, the BD passes, the eccentricity map:
# all those docs/PERF.md cites), so none can rot and a new one needs no
# list kept by hand. All of them take a few seconds per pass at this
# min time. They run at the best detected SIMD level, capped at AVX2
# (so the 4-lane kernel instantiation stays exercised on AVX-512
# hosts), and with FOVE_SIMD=off (the scalar kernels, the portable BD
# bit path and the table CRC-32).
# micro_encoder is built only when google-benchmark is installed.
if [ -x build/micro_encoder ]; then
    for simd in auto avx2 off; do
        FOVE_SIMD=$simd ./build/micro_encoder --benchmark_min_time=0.01
    done
fi

echo "== Sanitizer build (address,undefined) =="
cmake -B build-san -S . -DFOVE_SANITIZE=address,undefined > /dev/null
cmake --build build-san -j"$JOBS"

echo "== Vector kernel objects define no weak functions (build-san, no LTO) =="
# Each vector TU is compiled with its own -m flags. A weak (COMDAT)
# function it emits out of line — an inline helper the compiler chose
# not to inline — may be the copy the linker keeps for baseline callers
# too, and would then fault on a CPU without that ISA. No test on an
# AVX-512 host can see that, so check the objects' symbol tables.
for obj in build-san/CMakeFiles/pce.dir/src/simd/tile_kernels_avx2.cc.o \
           build-san/CMakeFiles/pce.dir/src/simd/tile_kernels_avx512.cc.o; do
    [ -f "$obj" ] || continue
    weak=$(nm -C --defined-only "$obj" | awk '$2 == "W"')
    if [ -n "$weak" ]; then
        echo "weak functions defined in $obj:" >&2
        echo "$weak" >&2
        exit 1
    fi
done

echo "== Test suites under asan/ubsan =="
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

echo "== Test suites under ThreadSanitizer =="
# Concurrent dispatch (N dispatchers popping one lane-exclusive queue,
# per-stream state handed between them) lives or dies on
# happens-before edges that asan/ubsan cannot see, and the parallel BD
# passes have pool workers writing disjoint bytes of one buffer. Any
# suite may run a pool, so every suite runs here (the soak sweep
# excepted, as above), with no hand-kept list to fall behind; a data
# race fails the run loudly.
cmake -B build-tsan -S . -DFOVE_SANITIZE=thread > /dev/null
cmake --build build-tsan -j"$JOBS"
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j"$JOBS" -LE soak

echo "== Bounded fault-campaign smoke (Release) =="
# A tiny end-to-end fault_runner invocation (seconds, not minutes)
# proving the campaign harness and record writer work as shipped; the
# record lands in a scratch file, not the checked-in trajectory. The
# runner writes only a record that passes the schema table
# (bench/bench_record.hh), so `test -s` also proves it conformed.
rm -f build/fault_smoke.json
PCE_BENCH_FAULT_WIDTH=48 PCE_BENCH_FAULT_HEIGHT=48 \
PCE_BENCH_FAULT_TRIALS=6 PCE_BENCH_REPEATS=1 \
PCE_BENCH_THREADS=2 \
    ./build/fault_runner build/fault_smoke.json
test -s build/fault_smoke.json

echo "== Benchmark build and self-test (Release) =="
# perfbench compiles against the library's public frame API
# (adjustFrameInto, toSrgb8Into, BdCodec::encodeInto, the EncodedFrame
# fields) but no tier-1 target builds it, so a removed or renamed name
# would otherwise surface only when the benchmark runs.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-perfbench -j"$JOBS"
./build-perfbench/perfbench --self-test

echo "== All checks passed =="

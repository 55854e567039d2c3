/**
 * @file
 * Full-frame encoder throughput runner: measures adjustFrame and
 * encodeFrame in megapixels/s (single-thread and multi-thread) and
 * *appends* a dated record to BENCH_encoder.json, so the file carries
 * the perf trajectory across PRs instead of one overwritten snapshot.
 *
 * The measured loop is the steady-state frame stream: outputs are
 * reused via adjustFrameInto / encodeFrameInto, so an animation loop
 * allocates nothing after the first frame (the zero-allocation claim
 * of docs/PERF.md is what this bench exercises).
 *
 * Resolution and thread count come from PCE_BENCH_WIDTH /
 * PCE_BENCH_HEIGHT / PCE_BENCH_THREADS. Output path: argv[1] or
 * PCE_BENCH_OUT, default BENCH_encoder.json; fields and provenance in
 * bench/bench_record.hh.
 */

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.hh"
#include "bench_record.hh"
#include "common/env.hh"
#include "core/pipeline.hh"
#include "obs/trace.hh"

namespace {

using namespace pce;
using Clock = std::chrono::steady_clock;

/**
 * Single-thread full-frame throughput of the pre-change (seed)
 * implementation at 512x512, measured with this same runner (best of
 * interleaved baseline/new runs, identical build flags) before the
 * zero-allocation rebuild landed. Recorded so the JSON carries the
 * speedup-vs-baseline trajectory; re-baseline on different hardware by
 * rebuilding the seed revision with the current CMakeLists and rerunning
 * (methodology in docs/PERF.md).
 */
constexpr double kBaselineAdjustMps = 2.92;
constexpr double kBaselineEncodeMps = 2.24;
/**
 * Serial decode of the PR 2 tree (the seed-era bit-at-a-time reader
 * and per-pixel width branch) on the same adjusted 512x512 office
 * stream this runner measures, interleaved with the hardened
 * decodeInto immediately before it landed (best-of per round, 3
 * rounds: 84.4-87.2 MP/s). On a raw unadjusted-noise stream old and
 * new are at parity — the win concentrates where streams have flat
 * tiles, which adjusted production streams do.
 */
constexpr double kBaselineDecodeMps = 86.0;

struct Measurement
{
    double adjustMps = 0.0;
    double encodeMps = 0.0;
    double decodeMps = 0.0;
};

Measurement
measure(const ImageF &frame, const EccentricityMap &ecc, int threads,
        int repeats)
{
    PipelineParams params;
    params.threads = threads;
    const PerceptualEncoder encoder(bench::benchModel(), params);
    const double mpix =
        static_cast<double>(frame.pixelCount()) / 1e6;

    // Steady-state frame stream: outputs reused across iterations.
    ImageF adjusted;
    EncodedFrame enc;

    // Warm-up (populates lazy tables, faults pages, spins up workers,
    // grows the reused buffers to their steady-state size).
    encoder.adjustFrameInto(frame, ecc, adjusted);
    encoder.encodeFrameInto(frame, ecc, enc);

    // Decode side of the same stream: the hardened parallel decodeInto
    // in its steady state (caller-owned image + scratch, own pool so
    // the measurement matches a standalone decode service).
    ImageU8 decoded;
    BdDecodeScratch decode_scratch;
    std::unique_ptr<ThreadPool> decode_pool;
    if (threads > 1)
        decode_pool = std::make_unique<ThreadPool>(threads - 1);
    BdCodec::decodeInto(enc.bdStream, decoded, &decode_scratch,
                        decode_pool.get(), threads);

    Measurement m;
    double best_adjust = 1e300;
    double best_encode = 1e300;
    double best_decode = 1e300;
    for (int r = 0; r < repeats; ++r) {
        auto t0 = Clock::now();
        encoder.adjustFrameInto(frame, ecc, adjusted);
        auto t1 = Clock::now();
        encoder.encodeFrameInto(frame, ecc, enc);
        auto t2 = Clock::now();
        BdCodec::decodeInto(enc.bdStream, decoded, &decode_scratch,
                            decode_pool.get(), threads);
        auto t3 = Clock::now();
        if (adjusted.pixelCount() == 0 || enc.bdStream.empty() ||
            decoded != enc.adjustedSrgb)
            std::abort();  // keep the work observable (and lossless)
        best_adjust = std::min(
            best_adjust,
            std::chrono::duration<double>(t1 - t0).count());
        best_encode = std::min(
            best_encode,
            std::chrono::duration<double>(t2 - t1).count());
        best_decode = std::min(
            best_decode,
            std::chrono::duration<double>(t3 - t2).count());
    }
    m.adjustMps = mpix / best_adjust;
    m.encodeMps = mpix / best_encode;
    m.decodeMps = mpix / best_decode;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const int w = pce::bench::benchWidth();
    const int h = pce::bench::benchHeight();
    const int threads = pce::bench::benchThreads();
    const int repeats =
        static_cast<int>(pce::envInt("PCE_BENCH_REPEATS", 5));
    const std::string out_path = pce::bench::benchOutPath(argc, argv);

    const ImageF frame =
        renderScene(SceneId::Office, {w, h, 0, 0.0, 0});
    const EccentricityMap ecc(pce::bench::benchDisplay(w, h));

    const Measurement single = measure(frame, ecc, 1, repeats);
    const Measurement multi =
        threads > 1 ? measure(frame, ecc, threads, repeats) : single;
    const int mt_threads = threads > 1 ? threads : 1;

    // Trace overhead: the same single-thread loop with tracing off vs
    // on, measured back to back so the pair shares thermal and cache
    // conditions. The off run is the shipping default (every span is
    // one relaxed load); the on run pays clock reads + ring stores.
    pce::obs::setTraceEnabled(false);
    const Measurement trace_off = measure(frame, ecc, 1, repeats);
    pce::obs::Tracer::instance().reset();
    pce::obs::setTraceEnabled(true);
    const Measurement trace_on = measure(frame, ecc, 1, repeats);
    pce::obs::setTraceEnabled(false);
    const std::uint64_t trace_events =
        pce::obs::Tracer::instance().recordedEvents();
    pce::obs::Tracer::instance().reset();

    pce::bench::Record rec("full_frame_encoder", mt_threads);
    rec.str("scene", "office")
        .num("width", w)
        .num("height", h)
        .num("repeats", repeats)
        .num("adjust_mps_1t", single.adjustMps)
        .num("encode_mps_1t", single.encodeMps)
        .num("decode_mps_1t", single.decodeMps)
        .num("adjust_mps_mt", multi.adjustMps)
        .num("encode_mps_mt", multi.encodeMps)
        .num("decode_mps_mt", multi.decodeMps)
        .num("baseline_adjust_mps_1t", kBaselineAdjustMps)
        .num("baseline_encode_mps_1t", kBaselineEncodeMps)
        .num("baseline_decode_mps_1t", kBaselineDecodeMps)
        .num("adjust_speedup_vs_baseline",
             single.adjustMps / kBaselineAdjustMps)
        .num("encode_speedup_vs_baseline",
             single.encodeMps / kBaselineEncodeMps)
        .num("decode_speedup_vs_baseline",
             single.decodeMps / kBaselineDecodeMps)
        .num("trace_off_encode_mps_1t", trace_off.encodeMps)
        .num("trace_on_encode_mps_1t", trace_on.encodeMps)
        .num("trace_on_vs_off", trace_on.encodeMps / trace_off.encodeMps)
        .num("trace_events", trace_events);
    return rec.appendTo(out_path) ? 0 : 1;
}

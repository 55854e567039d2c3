/**
 * @file
 * Multi-stream service throughput runner: replays N concurrent frame
 * streams through one EncodeService and *appends* a dated
 * `"bench": "encode_service"` record to BENCH_encoder.json (schema in
 * docs/PERF.md), next to encoder_runner's single-frame records.
 *
 * Each stream is a producer thread pipelining submit/collect over its
 * scene's animation frames, so the measurement includes everything a
 * deployment pays: the input copy, queue transit, per-stream slot
 * recycling, and the dispatcher fanning every frame across the shared
 * pool. A single-shot pass over the identical frames (one
 * encodeFrameInto loop, same thread count) runs first; the ratio of
 * the two throughputs is the service overhead, recorded as
 * `service_efficiency`.
 *
 * The run sweeps dispatcher shard counts (PCE_BENCH_SHARDS, a comma
 * list, default "1,2,4") and appends one record per shard count with
 * the dispatcher fields (shard_count, stolen_frames, queue_peak_depth,
 * shard_occupancy_mean), so the trajectory shows whether the
 * many-small-streams workload stops serializing behind one
 * dispatcher. stolen_frames counts lane migrations: frames encoded on
 * a different dispatcher than their stream's previous frame
 * (ServiceReport::stolenFrames). input_copies / input_copy_bytes are
 * the input buffers the service's pool allocated in the best round:
 * at most the streams' summed streamDepth, and in practice the peak
 * number of frames in flight at once. On a single-hardware-thread host the sweep measures
 * protocol overhead, not core scaling — hw_threads is recorded so a
 * reader can tell which one a record shows.
 *
 * Knobs (environment): PCE_BENCH_WIDTH / PCE_BENCH_HEIGHT /
 * PCE_BENCH_THREADS (shared with encoder_runner), PCE_BENCH_STREAMS
 * (concurrent streams, default 4), PCE_BENCH_FRAMES (frames per
 * stream, default 12), PCE_BENCH_REPEATS (replay rounds, best-of,
 * default 3), PCE_BENCH_SHARDS (shard-count sweep list). Output
 * path: argv[1] or PCE_BENCH_OUT, default BENCH_encoder.json.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "bench_record.hh"
#include "obs/trace.hh"
#include "service/encode_service.hh"

namespace {

using namespace pce;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct ReplayResult
{
    double wallSeconds = 0.0;
    double megapixels = 0.0;
    /** Mean per-stream p50 / worst-stream p99 and max, ms. */
    double queueP50Ms = 0.0;
    double queueP99Ms = 0.0;
    double queueMaxMs = 0.0;
    /** Dispatcher telemetry (ServiceReport): lane migrations, exact
     *  queue backlog peak, mean dispatcher occupancy. */
    std::uint64_t stolenFrames = 0;
    std::size_t queuePeakDepth = 0;
    double occupancyMean = 0.0;
    /** Input copies the service's pool allocated, and their bytes
     *  (ServiceReport::inputCopies / inputCopyBytes). */
    std::uint64_t inputCopies = 0;
    std::uint64_t inputCopyBytes = 0;
};

/**
 * One replay round: a fresh service, one producer thread per stream,
 * each pipelining its frame list (at most one un-collected frame
 * beyond the in-flight submit, the depth-2 double-buffer pattern).
 */
ReplayResult
replay(const std::vector<std::vector<const ImageF *>> &stream_frames,
       const EccentricityMap &ecc, int threads, std::size_t shards)
{
    ServiceParams sp;
    sp.threads = threads;
    sp.shards = shards;
    EncodeService svc(bench::benchModel(), sp);
    const std::size_t n_streams = stream_frames.size();
    std::vector<StreamHandle> handles;
    handles.reserve(n_streams);
    for (std::size_t s = 0; s < n_streams; ++s)
        handles.push_back(
            svc.openStream("stream-" + std::to_string(s), ecc));

    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> producers;
    producers.reserve(n_streams);
    for (std::size_t s = 0; s < n_streams; ++s) {
        producers.emplace_back([&, s] {
            const auto &frames = stream_frames[s];
            std::size_t collected = 0;
            for (std::size_t i = 0; i < frames.size(); ++i) {
                svc.submit(handles[s], *frames[i]);
                if (i - collected >= 1) {
                    const FrameLease lease = svc.collect(handles[s]);
                    if (lease->bdStream.empty())
                        std::abort();  // keep the work observable
                    ++collected;
                }
            }
            while (collected < frames.size()) {
                const FrameLease lease = svc.collect(handles[s]);
                if (lease->bdStream.empty())
                    std::abort();
                ++collected;
            }
        });
    }
    for (auto &t : producers)
        t.join();
    const Clock::time_point t1 = Clock::now();

    const ServiceReport rep = svc.report();
    ReplayResult r;
    r.wallSeconds = seconds(t0, t1);
    r.megapixels = rep.megapixels;
    for (const StreamStats &st : rep.streams) {
        r.queueP50Ms += st.queueLatencyP50Ms /
                        static_cast<double>(rep.streams.size());
        r.queueP99Ms = std::max(r.queueP99Ms, st.queueLatencyP99Ms);
        r.queueMaxMs = std::max(r.queueMaxMs, st.queueLatencyMaxMs);
    }
    r.stolenFrames = rep.stolenFrames;
    r.queuePeakDepth = rep.queuePeakDepth;
    r.inputCopies = rep.inputCopies;
    r.inputCopyBytes = rep.inputCopyBytes;
    for (const ShardStats &sh : rep.shards)
        r.occupancyMean +=
            sh.occupancy / static_cast<double>(rep.shards.size());
    return r;
}

/** Parse a comma-separated shard-count sweep list (e.g. "1,2,4"). */
std::vector<std::size_t>
parseShardSweep(const char *env)
{
    std::vector<std::size_t> out;
    std::stringstream ss(env != nullptr ? env : "1,2,4");
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (const long v = std::strtol(tok.c_str(), nullptr, 10);
            v >= 1)
            out.push_back(static_cast<std::size_t>(v));
    if (out.empty())
        out.push_back(1);
    return out;
}

/** The same frames through plain encodeFrameInto, one reused output. */
double
singleShotMps(
    const std::vector<std::vector<const ImageF *>> &stream_frames,
    const EccentricityMap &ecc, int threads)
{
    PipelineParams p;
    p.threads = threads;
    const PerceptualEncoder encoder(bench::benchModel(), p);
    EncodedFrame out;
    double megapixels = 0.0;
    // Warm-up on the first frame (pool spin-up, buffer growth).
    encoder.encodeFrameInto(*stream_frames[0][0], ecc, out);
    const Clock::time_point t0 = Clock::now();
    for (const auto &frames : stream_frames) {
        for (const ImageF *f : frames) {
            encoder.encodeFrameInto(*f, ecc, out);
            if (out.bdStream.empty())
                std::abort();
            megapixels +=
                static_cast<double>(f->pixelCount()) / 1e6;
        }
    }
    return megapixels / seconds(t0, Clock::now());
}

} // namespace

int
main(int argc, char **argv)
{
    // PCE_BENCH_WORKLOAD=small32 is the many-small-streams shorthand:
    // 32 concurrent 128x128 streams, the workload that exposed the
    // single-dispatcher serialization (explicit PCE_BENCH_* knobs
    // still override it).
    const char *workload = std::getenv("PCE_BENCH_WORKLOAD");
    const bool small32 =
        workload != nullptr && std::string(workload) == "small32";
    const int w = small32 ? static_cast<int>(envInt("PCE_BENCH_WIDTH",
                                                    128))
                          : bench::benchWidth();
    const int h = small32
                      ? static_cast<int>(envInt("PCE_BENCH_HEIGHT",
                                                128))
                      : bench::benchHeight();
    const int threads = bench::benchThreads();
    const int n_streams = static_cast<int>(
        envInt("PCE_BENCH_STREAMS", small32 ? 32 : 4));
    const int frames_per_stream = static_cast<int>(
        envInt("PCE_BENCH_FRAMES", small32 ? 4 : 12));
    const int repeats =
        static_cast<int>(envInt("PCE_BENCH_REPEATS", 3));
    if (n_streams < 1 || frames_per_stream < 1 || repeats < 1) {
        std::cerr << "service_runner: PCE_BENCH_STREAMS, "
                     "PCE_BENCH_FRAMES, and PCE_BENCH_REPEATS must "
                     "all be >= 1\n";
        return 1;
    }
    const std::string out_path = bench::benchOutPath(argc, argv);

    const EccentricityMap ecc(bench::benchDisplay(w, h));

    // Two distinct animation phases per stream, cycled: enough content
    // variety to defeat trivial caching while keeping prerender memory
    // at 2 frames x streams, independent of frames_per_stream.
    const std::vector<SceneId> &scenes = allScenes();
    std::vector<std::vector<ImageF>> distinct(
        static_cast<std::size_t>(n_streams));
    for (int s = 0; s < n_streams; ++s) {
        const SceneId id = scenes[static_cast<std::size_t>(s) %
                                  scenes.size()];
        distinct[s].push_back(
            renderScene(id, {w, h, s % 2, 0.37 * s, 0}));
        distinct[s].push_back(
            renderScene(id, {w, h, s % 2, 0.37 * s + 0.5, 0}));
    }
    std::vector<std::vector<const ImageF *>> stream_frames(
        static_cast<std::size_t>(n_streams));
    for (int s = 0; s < n_streams; ++s)
        for (int i = 0; i < frames_per_stream; ++i)
            stream_frames[s].push_back(
                &distinct[s][static_cast<std::size_t>(i) % 2]);

    const double singleshot_mps =
        singleShotMps(stream_frames, ecc, threads);

    const std::vector<std::size_t> sweep =
        parseShardSweep(std::getenv("PCE_BENCH_SHARDS"));

    // Trace overhead: one replay round with tracing off and one with
    // it on, back to back at the sweep's first shard count. The off
    // number is what the shipping default pays (a relaxed load per
    // span site); the on number adds clock reads and ring stores on
    // the dispatcher and every pool worker.
    obs::setTraceEnabled(false);
    const ReplayResult trace_off =
        replay(stream_frames, ecc, threads, sweep.front());
    obs::Tracer::instance().reset();
    obs::setTraceEnabled(true);
    const ReplayResult trace_on =
        replay(stream_frames, ecc, threads, sweep.front());
    obs::setTraceEnabled(false);
    const std::uint64_t trace_events =
        obs::Tracer::instance().recordedEvents();
    obs::Tracer::instance().reset();
    const double trace_off_mps =
        trace_off.megapixels / trace_off.wallSeconds;
    const double trace_on_mps = trace_on.megapixels / trace_on.wallSeconds;

    for (const std::size_t shards : sweep) {
        ReplayResult best;
        for (int r = 0; r < repeats; ++r) {
            const ReplayResult round =
                replay(stream_frames, ecc, threads, shards);
            if (best.wallSeconds == 0.0 ||
                round.wallSeconds < best.wallSeconds)
                best = round;
        }
        const double aggregate_mps =
            best.megapixels / best.wallSeconds;

        bench::Record rec("encode_service", threads);
        rec.num("width", w)
            .num("height", h)
            .num("streams", n_streams)
            .num("frames_per_stream", frames_per_stream)
            .num("repeats", repeats)
            .num("shard_count", shards)
            .num("stolen_frames", best.stolenFrames)
            .num("queue_peak_depth", best.queuePeakDepth)
            .num("shard_occupancy_mean", best.occupancyMean)
            .num("input_copies", best.inputCopies)
            .num("input_copy_bytes", best.inputCopyBytes)
            .num("aggregate_mps", aggregate_mps)
            .num("singleshot_mps", singleshot_mps)
            .num("service_efficiency", aggregate_mps / singleshot_mps)
            .num("queue_p50_ms", best.queueP50Ms)
            .num("queue_p99_ms", best.queueP99Ms)
            .num("queue_max_ms", best.queueMaxMs)
            .num("trace_off_aggregate_mps", trace_off_mps)
            .num("trace_on_aggregate_mps", trace_on_mps)
            .num("trace_on_vs_off", trace_on_mps / trace_off_mps)
            .num("trace_events", trace_events);
        if (!rec.appendTo(out_path))
            return 1;
    }
    return 0;
}

/**
 * @file
 * Gaze-dynamics benchmark: what does per-frame re-fixation cost, and
 * what does the incremental updater buy over rebuilding the
 * eccentricity map from scratch every frame? Appends a dated
 * `"bench": "gaze_encode"` record to BENCH_encoder.json (schema in
 * docs/PERF.md).
 *
 * Two measurements, both best-of PCE_BENCH_REPEATS:
 *
 *  1. **Re-fixation microbench** — a smooth-pursuit scanpath drives
 *     one EccentricityMap through N re-fixations twice: through
 *     IncrementalEccentricity::refixate (shift + exact bands, with
 *     its documented fallback) and through EccentricityMap::rebuild
 *     (the exact full-rebuild baseline, same reused storage). Reports
 *     ms per re-fixation for each and the speedup.
 *
 *  2. **Moving-fixation encode** — the same pursuit scanpath under a
 *     full encode loop: PerceptualEncoder::encodeFrameGazeInto
 *     (incremental re-fixation per frame) versus rebuild-then-
 *     encodeFrameInto (what a gaze-naive deployment would do each
 *     frame). Reports MP/s for both. The pursuit path stays below the
 *     I-VT saccade threshold so both loops do identical adjustment
 *     work — the delta is purely the map update.
 *
 * Knobs (environment): PCE_BENCH_WIDTH / PCE_BENCH_HEIGHT /
 * PCE_BENCH_THREADS (shared with the other runners),
 * PCE_BENCH_GAZE_FRAMES (re-fixations / encoded frames per round,
 * default 96), PCE_BENCH_REPEATS (best-of rounds, default 3). Output
 * path: argv[1] or PCE_BENCH_OUT, default BENCH_encoder.json.
 */

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_record.hh"
#include "gaze/incremental_ecc.hh"

namespace {

using namespace pce;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * A pursuit scanpath scaled to the display: slow enough to classify
 * as fixation at HMD rate on this geometry (both encode loops then do
 * identical adjustment work), fast enough that every frame moves the
 * fixation by multiple pixels.
 */
GazeTrace
pursuitPath(const DisplayGeometry &geom, int frames)
{
    const double radius = std::min(geom.width, geom.height) * 0.12;
    // One lap per 4 s at 72 Hz: peak speed 2*pi*r/4 px/s.
    GazeTrace t = smoothPursuitTrace(
        (frames - 1) / 72.0, 72.0, geom.width / 2.0,
        geom.height / 2.0, radius, 4.0);
    t.samples.resize(static_cast<std::size_t>(frames),
                     t.samples.empty() ? GazeSample{}
                                       : t.samples.back());
    return t;
}

struct RefixResult
{
    double incrementalMs = 0.0;  ///< per re-fixation
    double rebuildMs = 0.0;      ///< per re-fixation
    std::uint64_t fallbacks = 0; ///< full rebuilds the updater took
};

RefixResult
refixMicrobench(const DisplayGeometry &geom, const GazeTrace &path,
                int repeats)
{
    RefixResult best;
    for (int r = 0; r < repeats; ++r) {
        double inc_s = 0.0, reb_s = 0.0;
        std::uint64_t fallbacks = 0;
        {
            IncrementalEccentricity upd(geom);
            EccentricityMap map(geom);
            RefixStats st;
            const Clock::time_point t0 = Clock::now();
            for (const GazeSample &s : path.samples) {
                upd.refixate(map, s.x, s.y, &st);
                fallbacks += st.fullRebuild ? 1 : 0;
            }
            inc_s = seconds(t0, Clock::now());
            if (map.at(0, 0) < 0.0)
                std::abort();  // keep the work observable
        }
        {
            DisplayGeometry g = geom;
            EccentricityMap map(g);
            const Clock::time_point t0 = Clock::now();
            for (const GazeSample &s : path.samples) {
                g.fixationX = s.x;
                g.fixationY = s.y;
                map.rebuild(g);
            }
            reb_s = seconds(t0, Clock::now());
            if (map.at(0, 0) < 0.0)
                std::abort();
        }
        const double n = static_cast<double>(path.samples.size());
        const double inc_ms = inc_s / n * 1e3;
        const double reb_ms = reb_s / n * 1e3;
        if (r == 0 || inc_ms < best.incrementalMs)
            best.incrementalMs = inc_ms;
        if (r == 0 || reb_ms < best.rebuildMs)
            best.rebuildMs = reb_ms;
        best.fallbacks = fallbacks;  // deterministic per round
    }
    return best;
}

struct EncodeResult
{
    double gazeMps = 0.0;     ///< encodeFrameGazeInto loop
    double rebuildMps = 0.0;  ///< rebuild + encodeFrameInto loop
    std::uint64_t saccadeFrames = 0;
};

EncodeResult
movingEncodeBench(const DisplayGeometry &geom, const GazeTrace &path,
                  const ImageF &frame, int threads, int repeats)
{
    PipelineParams pp;
    pp.threads = threads;
    const PerceptualEncoder enc(bench::benchModel(), pp);
    const double mp =
        static_cast<double>(frame.pixelCount()) / 1e6 *
        static_cast<double>(path.samples.size());

    EncodeResult best;
    for (int r = 0; r < repeats; ++r) {
        double gaze_s = 0.0, rebuild_s = 0.0;
        std::uint64_t saccades = 0;
        {
            GazeTrackedEccentricity gaze(geom);
            EncodedFrame out;
            enc.encodeFrameGazeInto(frame, gaze,
                                    path.samples.front(), out);
            const Clock::time_point t0 = Clock::now();
            for (const GazeSample &s : path.samples) {
                if (enc.encodeFrameGazeInto(frame, gaze, s, out) ==
                    GazePhase::Saccade)
                    ++saccades;
                if (out.bdStream.empty())
                    std::abort();
            }
            gaze_s = seconds(t0, Clock::now());
        }
        {
            DisplayGeometry g = geom;
            EccentricityMap map(g);
            EncodedFrame out;
            enc.encodeFrameInto(frame, map, out);
            const Clock::time_point t0 = Clock::now();
            for (const GazeSample &s : path.samples) {
                g.fixationX = s.x;
                g.fixationY = s.y;
                map.rebuild(g);
                enc.encodeFrameInto(frame, map, out);
                if (out.bdStream.empty())
                    std::abort();
            }
            rebuild_s = seconds(t0, Clock::now());
        }
        best.gazeMps = std::max(best.gazeMps, mp / gaze_s);
        best.rebuildMps = std::max(best.rebuildMps, mp / rebuild_s);
        best.saccadeFrames = saccades;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const int w = bench::benchWidth();
    const int h = bench::benchHeight();
    const int threads = bench::benchThreads();
    const int frames =
        static_cast<int>(envInt("PCE_BENCH_GAZE_FRAMES", 96));
    const int repeats =
        static_cast<int>(envInt("PCE_BENCH_REPEATS", 3));
    if (frames < 2 || repeats < 1) {
        std::cerr << "gaze_runner: PCE_BENCH_GAZE_FRAMES must be >= 2 "
                     "and PCE_BENCH_REPEATS >= 1\n";
        return 1;
    }
    const std::string out_path = bench::benchOutPath(argc, argv);

    const DisplayGeometry geom = bench::benchDisplay(w, h);
    const GazeTrace path = pursuitPath(geom, frames);
    const ImageF frame =
        renderScene(SceneId::Office, {w, h, 0, 0.0, 0});

    const RefixResult refix = refixMicrobench(geom, path, repeats);
    const EncodeResult enc =
        movingEncodeBench(geom, path, frame, threads, repeats);

    bench::Record rec("gaze_encode", threads);
    rec.num("width", w)
        .num("height", h)
        .num("frames", frames)
        .num("repeats", repeats)
        .num("refix_incremental_ms", refix.incrementalMs)
        .num("refix_rebuild_ms", refix.rebuildMs)
        .num("refix_speedup", refix.rebuildMs / refix.incrementalMs)
        .num("refix_fallback_rebuilds", refix.fallbacks)
        .num("gaze_encode_mps", enc.gazeMps)
        .num("rebuild_encode_mps", enc.rebuildMps)
        .num("moving_fixation_speedup", enc.gazeMps / enc.rebuildMps)
        .num("saccade_frames", enc.saccadeFrames);
    return rec.appendTo(out_path) ? 0 : 1;
}

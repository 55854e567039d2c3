/**
 * @file
 * google-benchmark microbenches of the encoder stages, mirroring the
 * CAU pipeline decomposition (Fig. 8): ellipsoid evaluation (the GPU's
 * job), extrema computation (Compute Extrema Block), per-tile
 * adjustment (full PE), frame-level encoding, the BD codec, and CRC-32.
 * docs/PERF.md's stage harnesses are the BM_FrameEncode 256x256
 * one-thread rows (the frame pass on one worker), BM_TileAdjustScratch/16
 * (one tile through the kernel table), BM_TileStages/256 (the frame
 * pass's tile flow split stage by stage), BM_Hash64_Frame,
 * BM_IntakeCopy_Frame (copy then hash, against copyHash64), BM_Crc32_77KB,
 * BM_BdEmit and BM_BdDecode at 128 and 256 (1 and 4 participants), the
 * BD decode split into BM_BdDecodeWalk/256 and BM_BdDecodeTiles/256,
 * and the gaze update's map stages: BM_EccentricityRebuild (a full
 * rebuild) and BM_EccentricityRefixate (shift + exact bands) at 256x256
 * and 1832x1920.
 *
 * These quantify the paper's motivation: the algorithm in software runs
 * far below display rate (2 FPS on a mobile GPU), which is why the CAU
 * exists.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bd/bd_codec.hh"
#include "bench_common.hh"
#include "common/integrity.hh"
#include "common/rng.hh"
#include "color/srgb.hh"
#include "common/thread_pool.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "gaze/incremental_ecc.hh"
#include "perception/rbf.hh"

namespace {

using namespace pce;

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

std::vector<Vec3>
randomTile(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec3> tile;
    for (std::size_t i = 0; i < n; ++i)
        tile.emplace_back(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                          rng.uniform(0.1, 0.9));
    return tile;
}

void
BM_EllipsoidModelAnalytic(benchmark::State &state)
{
    const Vec3 rgb(0.4, 0.5, 0.6);
    double ecc = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model().semiAxes(rgb, ecc));
        ecc = ecc < 40.0 ? ecc + 0.1 : 5.0;
    }
}
BENCHMARK(BM_EllipsoidModelAnalytic);

void
BM_EllipsoidModelRbf(benchmark::State &state)
{
    static const RbfDiscriminationModel rbf(model());
    const Vec3 rgb(0.4, 0.5, 0.6);
    double ecc = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rbf.semiAxes(rgb, ecc));
        ecc = ecc < 40.0 ? ecc + 0.1 : 5.0;
    }
}
BENCHMARK(BM_EllipsoidModelRbf);

void
BM_QuadricTransform(benchmark::State &state)
{
    const Ellipsoid e = model().ellipsoidFor(Vec3(0.4, 0.5, 0.6), 20.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(Quadric::fromDklEllipsoid(e));
}
BENCHMARK(BM_QuadricTransform);

void
BM_ExtremaPaperDatapath(benchmark::State &state)
{
    const Ellipsoid e = model().ellipsoidFor(Vec3(0.4, 0.5, 0.6), 20.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(extremaAlongAxis(e, 2));
}
BENCHMARK(BM_ExtremaPaperDatapath);

void
BM_ExtremaLagrange(benchmark::State &state)
{
    const Ellipsoid e = model().ellipsoidFor(Vec3(0.4, 0.5, 0.6), 20.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(extremaAlongAxisLagrange(e, 2));
}
BENCHMARK(BM_ExtremaLagrange);

void
BM_TileAdjust(benchmark::State &state)
{
    const TileAdjuster adjuster(model());
    const auto tile = randomTile(state.range(0) * state.range(0), 1);
    const std::vector<double> ecc(tile.size(), 20.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(adjuster.adjustTile(tile, ecc));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(tile.size()));
}
BENCHMARK(BM_TileAdjust)->Arg(4)->Arg(8)->Arg(16);

void
BM_TileAdjustScratch(benchmark::State &state)
{
    // The zero-allocation production path: one planar arena reused
    // across tiles, gathered per tile like the frame pipeline does.
    const TileAdjuster adjuster(model());
    const auto tile = randomTile(state.range(0) * state.range(0), 1);
    const std::vector<double> ecc(tile.size(), 20.0);
    simd::TileSoA soa;
    for (auto _ : state) {
        soa.resize(tile.size());
        for (std::size_t i = 0; i < tile.size(); ++i) {
            soa.lane(simd::kPx)[i] = tile[i].x;
            soa.lane(simd::kPy)[i] = tile[i].y;
            soa.lane(simd::kPz)[i] = tile[i].z;
            soa.lane(simd::kEcc)[i] = ecc[i];
        }
        benchmark::DoNotOptimize(adjuster.adjustTile(soa));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(tile.size()));
}
BENCHMARK(BM_TileAdjustScratch)->Arg(4)->Arg(8)->Arg(16);

/** Median of @p v (which it reorders). */
double
median(std::vector<double> &v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

void
BM_TileStages(benchmark::State &state)
{
    // The frame pass's tile flow split into its stages, on one thread
    // at the active SIMD level, over every adjusted tile of a rendered
    // Skyline frame. Each iteration times the cumulative prefixes of
    // the flow back to back — gather; + ellipsoids; + extrema; + both
    // moves (HL/LH and move); + both costs; + the chosen candidate's
    // quantize — and a stage's time is the difference of two
    // consecutive prefixes of the same iteration. The counters are the
    // medians of those differences over the iterations, in ms per
    // frame; tile_loop_ms is the whole flow.
    const int n = static_cast<int>(state.range(0));
    const ImageF frame = renderScene(SceneId::Skyline, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc(pce::bench::benchDisplay(n, n));
    const PipelineParams params;
    const TileGrid grid{n, n, params.tileSize};
    std::vector<TileRect> tiles;
    for (std::size_t t = 0; t < grid.count(); ++t)
        if (ecc.minInRect(grid.rect(t)) >= params.fovealCutoffDeg)
            tiles.push_back(grid.rect(t));
    const simd::TileKernels &k = simd::activeTileKernels();
    const Srgb8Table &table = srgb8Table();
    simd::TileSoA soa;
    ImageU8 img(n, n);

    auto prefix = [&](int stages) {
        for (const TileRect &r : tiles) {
            soa.resize(static_cast<std::size_t>(r.pixelCount()));
            std::size_t i = 0;
            for (int y = r.y0; y < r.y0 + r.h; ++y)
                for (int x = r.x0; x < r.x0 + r.w; ++x, ++i) {
                    const Vec3 &p = frame.at(x, y);
                    soa.lane(simd::kPx)[i] = p.x;
                    soa.lane(simd::kPy)[i] = p.y;
                    soa.lane(simd::kPz)[i] = p.z;
                    soa.lane(simd::kEcc)[i] = ecc.at(x, y);
                }
            if (stages < 2)
                continue;
            k.ellipsoids(soa, model().params());
            if (stages < 3)
                continue;
            k.extremaBoth(soa);
            if (stages < 4)
                continue;
            const simd::AxisMove red = k.moveAxis[0](soa);
            const simd::AxisMove blue = k.moveAxis[1](soa);
            if (stages < 5)
                continue;
            const std::size_t bits_red =
                bdTileBitsFromRange(red.range, soa.n, soa.codesOf(0));
            const std::size_t bits_blue =
                bdTileBitsFromRange(blue.range, soa.n, soa.codesOf(2));
            if (stages < 6)
                continue;
            k.quantize(soa, bits_red < bits_blue ? 0 : 2, table,
                       static_cast<std::size_t>(r.w), img.pixel(r.x0, r.y0),
                       3 * static_cast<std::size_t>(n));
        }
        benchmark::DoNotOptimize(soa.buf.data());
        benchmark::DoNotOptimize(img.data().data());
        benchmark::ClobberMemory();
    };

    constexpr int kStages = 6;
    const char *names[kStages] = {"gather_ms", "ellipsoids_ms",
                                  "extrema_ms", "move_ms",
                                  "cost_ms", "quantize_ms"};
    std::vector<double> stage[kStages];
    std::vector<double> whole;
    prefix(kStages);  // warm the lanes, the tables and the frame
    for (auto _ : state) {
        double before = 0.0;
        for (int s = 0; s < kStages; ++s) {
            const auto t0 = std::chrono::steady_clock::now();
            prefix(s + 1);
            const double ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            stage[s].push_back(ms - before);
            before = ms;
        }
        whole.push_back(before);
    }
    for (int s = 0; s < kStages; ++s)
        state.counters[names[s]] = median(stage[s]);
    state.counters["tile_loop_ms"] = median(whole);
    state.counters["tiles"] = static_cast<double>(tiles.size());
}
BENCHMARK(BM_TileStages)->Arg(256)->Unit(benchmark::kMillisecond);

void
BM_FrameAdjust(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc(pce::bench::benchDisplay(n, n));
    PipelineParams params;
    params.threads = static_cast<int>(state.range(1));
    const PerceptualEncoder encoder(model(), params);
    for (auto _ : state)
        benchmark::DoNotOptimize(encoder.adjustFrame(frame, ecc));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(frame.pixelCount()));
}
BENCHMARK(BM_FrameAdjust)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({512, 4});

void
BM_FrameEncode(benchmark::State &state)
{
    // Full-frame throughput (adjust + sRGB + BD encode), the number
    // that tracks the perf trajectory in BENCH_encoder.json; the
    // items/s counter reads directly in pixels/s. Args: side, threads,
    // scene (0 Skyline, 1 Office). The 256x256 one-thread rows are the
    // stage harness docs/PERF.md cites: with one participant the frame
    // pass runs inline on one tile arena, without the pool.
    const int n = static_cast<int>(state.range(0));
    const ImageF frame =
        renderScene(state.range(2) == 0 ? SceneId::Skyline
                                        : SceneId::Office,
                    {n, n, 0, 0.0, 0});
    const EccentricityMap ecc(pce::bench::benchDisplay(n, n));
    PipelineParams params;
    params.threads = static_cast<int>(state.range(1));
    const PerceptualEncoder encoder(model(), params);
    for (auto _ : state)
        benchmark::DoNotOptimize(encoder.encodeFrame(frame, ecc));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(frame.pixelCount()));
}
BENCHMARK(BM_FrameEncode)
    ->Args({256, 1, 0})
    ->Args({256, 1, 1})
    ->Args({512, 1, 1})
    ->Args({512, 4, 1});

void
BM_Hash64_Frame(benchmark::State &state)
{
    // One hash64 over a 256x256 linear-RGB frame (1.5 MB of doubles):
    // the input seal hardenIntegrity takes at submit and checks again
    // at dispatch.
    const ImageF frame =
        renderScene(SceneId::Skyline, {256, 256, 0, 0.0, 0});
    const std::size_t bytes = frame.pixels().size() * sizeof(Vec3);
    for (auto _ : state)
        benchmark::DoNotOptimize(hash64(frame.pixels().data(), bytes));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Hash64_Frame);

void
BM_IntakeCopy_Frame(benchmark::State &state)
{
    // The hardened submit's intake of a 256x256 frame into a reused
    // buffer: arg 0 copies then hashes the copy (two reads), arg 1
    // folds each word as it stores it (copyHash64, one read).
    const ImageF frame =
        renderScene(SceneId::Skyline, {256, 256, 0, 0.0, 0});
    ImageF copy(256, 256);
    const std::size_t bytes = frame.pixels().size() * sizeof(Vec3);
    const bool fused = state.range(0) != 0;
    for (auto _ : state) {
        if (fused) {
            benchmark::DoNotOptimize(copyHash64(
                frame.pixels().data(), copy.pixels().data(), bytes));
        } else {
            std::copy(frame.pixels().begin(), frame.pixels().end(),
                      copy.pixels().begin());
            benchmark::DoNotOptimize(
                hash64(copy.pixels().data(), bytes));
        }
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_IntakeCopy_Frame)->Arg(0)->Arg(1);

void
BM_BdEncode(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const ImageU8 img =
        toSrgb8(renderScene(SceneId::Thai, {n, n, 0, 0.0, 0}));
    const BdCodec codec(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.encode(img));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(img.byteSize()));
}
BENCHMARK(BM_BdEncode)->Arg(256)->Arg(512);

void
BM_BdDecode(benchmark::State &state)
{
    // Steady-state hardened decode: caller-owned image + scratch
    // reused across iterations (the allocating BdCodec::decode wrapper
    // adds one ImageU8 build per call on top of this). Args: side,
    // participants (a pool of participants - 1 workers).
    const int n = static_cast<int>(state.range(0));
    const int participants = static_cast<int>(state.range(1));
    const BdCodec codec(4);
    const auto stream = codec.encode(
        toSrgb8(renderScene(SceneId::Thai, {n, n, 0, 0.0, 0})));
    ThreadPool pool(participants - 1);
    ImageU8 out;
    BdDecodeScratch scratch;
    for (auto _ : state) {
        BdCodec::decodeInto(stream, out, &scratch, &pool, participants);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BdDecode)->ArgsProduct({{128, 256, 512}, {1, 4}});

/**
 * The frame a service stream delivers: a rendered Skyline frame through
 * the perceptual encoder, as its adjusted sRGB image and BD stream.
 */
EncodedFrame
adjustedFrame(int n)
{
    const ImageF frame = renderScene(SceneId::Skyline, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc(pce::bench::benchDisplay(n, n));
    return PerceptualEncoder(model(), PipelineParams{}).encodeFrame(frame,
                                                                    ecc);
}

void
BM_BdDecodeWalk(benchmark::State &state)
{
    // Pass 1 of decodeInto on an adjusted frame's stream: the serial
    // validate walk that builds the per-tile bit offsets.
    const int n = static_cast<int>(state.range(0));
    const std::vector<uint8_t> stream = adjustedFrame(n).bdStream;
    const TileGrid grid{n, n, 4};
    std::vector<std::size_t> offsets(grid.count() + 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(BdCodec::walkTileRange(
            stream.data(), stream.size(), grid, 0, grid.count(), 0,
            offsets.data()));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BdDecodeWalk)->Arg(256);

void
BM_BdDecodeTiles(benchmark::State &state)
{
    // Pass 2 of decodeInto on the same stream, serial: the tile pass
    // over every tile from the walk's first offset.
    const int n = static_cast<int>(state.range(0));
    const std::vector<uint8_t> stream = adjustedFrame(n).bdStream;
    const TileGrid grid{n, n, 4};
    ImageU8 out(n, n);
    for (auto _ : state) {
        BdCodec::decodeTileRangeInto(stream.data(), stream.size(), grid,
                                     0, grid.count(), 0, out);
        benchmark::DoNotOptimize(out.data().data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BdDecodeTiles)->Arg(256);

void
BM_BdEmit(benchmark::State &state)
{
    // The BD passes a service frame runs after the tile loop:
    // encodeFromStats (prefix and emit) on an adjusted frame, from the
    // per-tile stats that loop hands over. Args: side, participants.
    const int n = static_cast<int>(state.range(0));
    const int participants = static_cast<int>(state.range(1));
    ThreadPool pool(participants - 1);
    const ImageU8 img = adjustedFrame(n).adjustedSrgb;
    const BdCodec codec(4);
    BdEncodeScratch scratch;
    const TileGrid grid =
        codec.prepareStats(scratch, img.width(), img.height());
    for (std::size_t t = 0; t < grid.count(); ++t)
        bdTileStats(img, grid.rect(t), &scratch.base[3 * t],
                    &scratch.width[3 * t]);
    std::vector<uint8_t> out;
    for (auto _ : state) {
        codec.encodeFromStats(img, nullptr, out, scratch, &pool,
                              participants);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_BdEmit)->ArgsProduct({{128, 256}, {1, 4}});

void
BM_Crc32_77KB(benchmark::State &state)
{
    // One CRC-32 over a buffer the size of a 256x256 frame's BD stream
    // (~77 KB): the unit cost behind the frame seal, its verification,
    // the manifest stream CRC and every packet CRC.
    std::vector<uint8_t> buf(77 * 1024);
    Rng rng(3);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.uniformInt(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32_77KB);

void
BM_EccentricityRebuild(benchmark::State &state, int w, int h)
{
    // A full same-size EccentricityMap rebuild, alternating between two
    // fixations 1/8 of the display apart so each rebuild rewrites every
    // value: the re-fixation fallback a saccade landing pays.
    DisplayGeometry a = pce::bench::benchDisplay(w, h);
    DisplayGeometry b = a;
    b.fixationX += w / 8.0;
    b.fixationY -= h / 8.0;
    EccentricityMap map(a);
    bool flip = false;
    for (auto _ : state) {
        map.rebuild(flip ? a : b);
        flip = !flip;
        benchmark::DoNotOptimize(map.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(w) * h);
}
BENCHMARK_CAPTURE(BM_EccentricityRebuild, 256, 256, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EccentricityRebuild, 1832x1920, 1832, 1920)
    ->Unit(benchmark::kMillisecond);

void
BM_EccentricityRefixate(benchmark::State &state, int w, int h)
{
    // An in-place refixate that takes the shift path every time: the
    // fixation steps (+2, +1) and back, and the accumulated-error cap
    // is parked out of the way, so each step shifts the map and
    // recomputes only the incoming border and the foveal band.
    const DisplayGeometry geom = pce::bench::benchDisplay(w, h);
    IncrementalEccParams params;
    params.maxAccumulatedErrorDeg = 1e300;
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);
    RefixStats st;
    bool flip = false;
    for (auto _ : state) {
        upd.refixate(map, geom.fixationX + (flip ? 0.0 : 2.0),
                     geom.fixationY + (flip ? 0.0 : 1.0), &st);
        flip = !flip;
        if (st.fullRebuild) {
            state.SkipWithError("refixate fell back to a full rebuild");
            break;
        }
        benchmark::DoNotOptimize(map.data());
        benchmark::ClobberMemory();
    }
    state.counters["recomputed_px"] =
        static_cast<double>(st.recomputedPixels);
}
BENCHMARK_CAPTURE(BM_EccentricityRefixate, 256, 256, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EccentricityRefixate, 1832x1920, 1832, 1920)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

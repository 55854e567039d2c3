/**
 * @file
 * google-benchmark microbenches of the encoder stages, mirroring the
 * CAU pipeline decomposition (Fig. 8): ellipsoid evaluation (the GPU's
 * job), extrema computation (Compute Extrema Block), per-tile
 * adjustment (full PE), frame-level encoding, and the BD codec.
 *
 * These quantify the paper's motivation: the algorithm in software runs
 * far below display rate (2 FPS on a mobile GPU), which is why the CAU
 * exists.
 */

#include <benchmark/benchmark.h>

#include "bd/bd_codec.hh"
#include "bench_common.hh"
#include "common/rng.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
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
    // items/s counter reads directly in pixels/s.
    const int n = static_cast<int>(state.range(0));
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
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
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({512, 4});

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
    // adds one ImageU8 build per call on top of this).
    const int n = static_cast<int>(state.range(0));
    const BdCodec codec(4);
    const auto stream = codec.encode(
        toSrgb8(renderScene(SceneId::Thai, {n, n, 0, 0.0, 0})));
    ImageU8 out;
    BdDecodeScratch scratch;
    for (auto _ : state) {
        BdCodec::decodeInto(stream, out, &scratch);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BdDecode)->Arg(256)->Arg(512);

} // namespace

BENCHMARK_MAIN();

#include "core/pipeline.hh"

#include <algorithm>
#include <stdexcept>

#include "common/integrity.hh"
#include "obs/trace.hh"

namespace pce {

namespace {

/**
 * Tiles claimed per scheduler grab. Small enough that the pool
 * rebalances around the nearly-free foveal region, large enough that
 * the atomic counter is off the critical path.
 */
constexpr std::size_t kTileGrain = 8;

} // namespace

PipelineStats &
PipelineStats::operator+=(const PipelineStats &o)
{
    totalTiles += o.totalTiles;
    fovealBypassTiles += o.fovealBypassTiles;
    c1Tiles += o.c1Tiles;
    c2Tiles += o.c2Tiles;
    redAxisTiles += o.redAxisTiles;
    blueAxisTiles += o.blueAxisTiles;
    gamutClampedPixels += o.gamutClampedPixels;
    saccadeBypassTiles += o.saccadeBypassTiles;
    return *this;
}

PerceptualEncoder::PerceptualEncoder(const DiscriminationModel &model,
                                     const PipelineParams &params)
    : model_(model), params_(params),
      adjuster_(model, params.extremaFn), codec_(params.tileSize)
{
    if (params_.threads < 1)
        throw std::invalid_argument("PerceptualEncoder: threads < 1");
    if (params_.pool != nullptr) {
        pool_ = params_.pool;
    } else if (params_.threads > 1) {
        ownedPool_ = std::make_unique<ThreadPool>(params_.threads - 1);
        pool_ = ownedPool_.get();
    }
}

ImageF
PerceptualEncoder::adjustFrame(const ImageF &frame,
                               const EccentricityMap &ecc,
                               PipelineStats *stats_out) const
{
    ImageF out;
    adjustFrameInto(frame, ecc, out, stats_out);
    return out;
}

void
PerceptualEncoder::adjustFrameInto(const ImageF &frame,
                                   const EccentricityMap &ecc,
                                   ImageF &out,
                                   PipelineStats *stats_out) const
{
    if (frame.width() != ecc.width() || frame.height() != ecc.height())
        throw std::invalid_argument(
            "PerceptualEncoder: eccentricity map size mismatch");

    // No frame-wide copy: every tile is either adjusted (its rows are
    // fully written below) or foveal-bypassed (its rows are copied from
    // the source in the bypass branch), so the output is covered
    // exactly once either way.
    if (out.width() != frame.width() ||
        out.height() != frame.height())
        out = ImageF(frame.width(), frame.height());

    // Geometry-keyed tile-grid cache (same pattern as
    // BdEncodeScratch.tiles): a stream of same-size frames must not
    // rebuild the grid per frame. encodeFrameInto ends up holding the
    // grid twice (here and in the BD scratch) — accepted: the copies
    // are small and keeping the codec's scratch self-contained beats
    // threading a shared cache through its API.
    struct TileGridCache
    {
        int w = -1, h = -1, tile = -1;
        std::vector<TileRect> tiles;
    };
    static thread_local TileGridCache grid;
    if (grid.w != frame.width() || grid.h != frame.height() ||
        grid.tile != params_.tileSize) {
        grid.tiles = tileGrid(frame.width(), frame.height(),
                              params_.tileSize);
        grid.w = frame.width();
        grid.h = frame.height();
        grid.tile = params_.tileSize;
    }
    const std::vector<TileRect> &tiles = grid.tiles;

    const int participants = std::max(
        1, std::min<int>(params_.threads,
                         static_cast<int>(tiles.size())));
    // Per-slot working sets, reused across frames. Thread-local (not
    // members) so concurrent adjustFrame calls on one const encoder
    // from different threads stay safe; within one call the slots are
    // shared with the pool workers through the lambda as before. The
    // arenas grow to the tile size once and then make the steady state
    // of a frame stream allocation-free. Reuse is capped at moderate
    // tile sizes: the SoA arena costs ~28 lanes x tileSize^2 doubles
    // per slot (~230 KB at the 32 cap, megabytes beyond), and that
    // retention must not outlive the call for large-tile configs —
    // whose per-tile math dwarfs one allocation anyway — so those use
    // call-local scratch instead. The paper's tile sizes (4..16) all
    // stay on the reuse path.
    static thread_local std::vector<PipelineStats> partial_tls;
    static thread_local std::vector<simd::TileSoA> scratch_tls;
    std::vector<simd::TileSoA> scratch_local;
    const bool reuse_scratch = params_.tileSize <= 32;
    std::vector<simd::TileSoA> &scratch =
        reuse_scratch ? scratch_tls : scratch_local;
    if (scratch.size() < static_cast<std::size_t>(participants))
        scratch.resize(participants);
    partial_tls.assign(participants, PipelineStats{});
    std::vector<PipelineStats> &partial = partial_tls;

    auto processRange = [&](std::size_t begin, std::size_t end,
                            int slot) {
        PipelineStats &stats = partial[slot];
        simd::TileSoA &soa = scratch[slot];
        for (std::size_t i = begin; i < end; ++i) {
            const TileRect &rect = tiles[i];
            ++stats.totalTiles;

            // Foveal bypass: any tile touching the foveal region is
            // left numerically intact (Sec. 5.1). Tested on the map
            // alone, before any pixel is gathered.
            if (ecc.minInRect(rect) < params_.fovealCutoffDeg) {
                ++stats.fovealBypassTiles;
                for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                    std::copy_n(&frame.at(rect.x0, y), rect.w,
                                &out.at(rect.x0, y));
                continue;
            }

            // Gather straight into the planar kernel lanes.
            soa.resize(static_cast<std::size_t>(rect.pixelCount()));
            double *px = soa.lane(simd::kPx);
            double *py = soa.lane(simd::kPy);
            double *pz = soa.lane(simd::kPz);
            double *pe = soa.lane(simd::kEcc);
            std::size_t k = 0;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                const Vec3 *row = &frame.at(rect.x0, y);
                for (int x = 0; x < rect.w; ++x, ++k) {
                    px[k] = row[x].x;
                    py[k] = row[x].y;
                    pz[k] = row[x].z;
                    pe[k] = ecc.at(rect.x0 + x, y);
                }
            }
            const TileOutcome adj = adjuster_.adjustTile(soa);
            if (adj.chosenCase == AdjustCase::C1)
                ++stats.c1Tiles;
            else
                ++stats.c2Tiles;
            if (adj.chosenAxis == 0)
                ++stats.redAxisTiles;
            else
                ++stats.blueAxisTiles;
            stats.gamutClampedPixels +=
                static_cast<std::size_t>(adj.gamutClampedPixels);

            // Adjusted pixels go straight into the output rows.
            const bool red = adj.chosenAxis == 0;
            const double *ox =
                soa.lane(red ? simd::kOutRedX : simd::kOutBlueX);
            const double *oy =
                soa.lane(red ? simd::kOutRedY : simd::kOutBlueY);
            const double *oz =
                soa.lane(red ? simd::kOutRedZ : simd::kOutBlueZ);
            k = 0;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                Vec3 *row = &out.at(rect.x0, y);
                for (int x = 0; x < rect.w; ++x, ++k)
                    row[x] = Vec3(ox[k], oy[k], oz[k]);
            }
        }
    };

    if (participants == 1)
        processRange(0, tiles.size(), 0);
    else
        pool_->parallelFor(tiles.size(), kTileGrain, participants,
                           processRange);

    if (stats_out) {
        PipelineStats total;
        for (const auto &p : partial)
            total += p;
        *stats_out = total;
    }
}

EncodedFrame
PerceptualEncoder::encodeFrame(const ImageF &frame,
                               const EccentricityMap &ecc) const
{
    EncodedFrame result;
    encodeFrameInto(frame, ecc, result);
    return result;
}

void
PerceptualEncoder::encodeFrameInto(const ImageF &frame,
                                   const EccentricityMap &ecc,
                                   EncodedFrame &out) const
{
    out.seal = FrameSeal{};
    {
        obs::TraceSpan span("encode/adjust");
        adjustFrameInto(frame, ecc, out.adjustedLinear, &out.stats);
    }
    {
        obs::TraceSpan span("encode/quantize");
        toSrgb8Into(out.adjustedLinear, out.adjustedSrgb);
    }
    obs::TraceSpan span("encode/bd");
    codec_.encodeInto(out.adjustedSrgb, &out.bdStats, out.bdStream,
                      &out.bdScratch, pool_, params_.threads);
}

GazePhase
PerceptualEncoder::encodeFrameGazeInto(const ImageF &frame,
                                       GazeTrackedEccentricity &gaze,
                                       const GazeSample &sample,
                                       EncodedFrame &out) const
{
    // The no-false-bypass guarantee of the incremental map requires
    // the always-exact band to cover the foveal cutoff plus the worst
    // accumulated shift error (gaze/incremental_ecc.hh).
    const IncrementalEccParams &ep = gaze.updater().params();
    if (ep.exactBandDeg <
        params_.fovealCutoffDeg + ep.maxAccumulatedErrorDeg)
        throw std::invalid_argument(
            "PerceptualEncoder::encodeFrameGazeInto: exactBandDeg < "
            "fovealCutoffDeg + maxAccumulatedErrorDeg breaks the "
            "foveal-bypass guarantee");
    if (frame.width() != gaze.map().width() ||
        frame.height() != gaze.map().height())
        throw std::invalid_argument(
            "PerceptualEncoder::encodeFrameGazeInto: frame does not "
            "match the gaze state's eccentricity map");

    GazePhase phase;
    {
        obs::TraceSpan span("encode/gaze_update");
        phase = gaze.update(sample);
    }
    if (phase == GazePhase::Fixation) {
        encodeFrameInto(frame, gaze.map(), out);
        return phase;
    }

    // Saccadic suppression: every tile takes the bypass path — one
    // frame-wide copy instead of the per-tile adjustment loop, then
    // the unchanged quantize + BD encode.
    out.seal = FrameSeal{};
    {
        // The bypass span plays the role of encode/adjust in the
        // frame timeline: same slot, different (cheaper) work.
        obs::TraceSpan span("encode/saccade_bypass");
        if (out.adjustedLinear.width() != frame.width() ||
            out.adjustedLinear.height() != frame.height())
            out.adjustedLinear = ImageF(frame.width(), frame.height());
        std::copy(frame.pixels().begin(), frame.pixels().end(),
                  out.adjustedLinear.pixels().begin());
        const std::size_t tiles =
            static_cast<std::size_t>(
                (frame.width() + params_.tileSize - 1) /
                params_.tileSize) *
            static_cast<std::size_t>(
                (frame.height() + params_.tileSize - 1) /
                params_.tileSize);
        out.stats = PipelineStats{};
        out.stats.totalTiles = tiles;
        out.stats.saccadeBypassTiles = tiles;
    }
    {
        obs::TraceSpan span("encode/quantize");
        toSrgb8Into(out.adjustedLinear, out.adjustedSrgb);
    }
    obs::TraceSpan span("encode/bd");
    codec_.encodeInto(out.adjustedSrgb, &out.bdStats, out.bdStream,
                      &out.bdScratch, pool_, params_.threads);
    return phase;
}

bool
PerceptualEncoder::verifyRoundTrip(EncodedFrame &frame) const
{
    BdCodec::decodeInto(frame.bdStream, frame.roundTripSrgb,
                        &frame.bdDecodeScratch, pool_,
                        params_.threads, kBdDefaultMaxDecodePixels,
                        params_.duplicateValidate);
    return frame.roundTripSrgb == frame.adjustedSrgb;
}

void
sealFrame(EncodedFrame &frame)
{
    frame.seal.bdStreamCrc =
        crc32(frame.bdStream.data(), frame.bdStream.size());
    frame.seal.srgbHash =
        hash64(frame.adjustedSrgb.data().data(),
               frame.adjustedSrgb.data().size());
    frame.seal.sealed = true;
}

bool
verifyFrameSeal(const EncodedFrame &frame)
{
    if (!frame.seal.sealed)
        return false;
    return crc32(frame.bdStream.data(), frame.bdStream.size()) ==
               frame.seal.bdStreamCrc &&
           hash64(frame.adjustedSrgb.data().data(),
                  frame.adjustedSrgb.data().size()) ==
               frame.seal.srgbHash;
}

} // namespace pce

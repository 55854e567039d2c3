#include "fault/campaign.hh"

#include <cstring>
#include <stdexcept>

#include "bd/bd_codec.hh"
#include "common/integrity.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "gaze/incremental_ecc.hh"
#include "image/image.hh"
#include "net/packetizer.hh"
#include "net/reassembler.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"
#include "png/png_codec.hh"
#include "service/encode_service.hh"

namespace pce {

namespace {

/** Per-trial seed: one deterministic stream per (surface, flips,
 *  trial), identical across baseline/hardened so trials pair up. */
std::uint64_t
trialSeed(const FaultCampaignConfig &cfg, FaultSurface surface,
          int flips, int trial)
{
    std::uint64_t h = cfg.seed;
    h = h * 0x9e3779b97f4a7c15ull +
        static_cast<std::uint64_t>(surface) + 1;
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(flips);
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(trial);
    return h;
}

/** Deterministic synthetic frame: smooth fBm gradients (compresses
 *  like rendered content) — no dependency on the render layer. */
ImageF
syntheticFrame(int w, int h, std::uint64_t seed)
{
    ImageF img(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double u = 6.0 * x / w;
            const double v = 6.0 * y / h;
            Vec3 &px = img.at(x, y);
            px.x = 0.15 + 0.7 * fbmNoise(u, v, seed, 3);
            px.y = 0.15 + 0.7 * fbmNoise(u + 11.0, v, seed ^ 1, 3);
            px.z = 0.15 + 0.7 * fbmNoise(u, v + 7.0, seed ^ 2, 3);
        }
    }
    return img;
}

/** Wire identity the NetPacket surface delivers under. */
constexpr std::uint64_t kNetSessionId = 0x5e551d;
constexpr std::uint32_t kNetStreamId = 7;

/** Shared per-campaign fixtures: the golden path, computed once. */
struct CampaignContext
{
    const FaultCampaignConfig &cfg;
    DisplayGeometry geom;
    AnalyticDiscriminationModel model;
    PerceptualEncoder encoder;
    ImageF input;              ///< the synthetic source frame
    EccentricityMap ecc;       ///< golden map (centered fixation)
    EncodedFrame golden;       ///< golden encode of input against ecc
    ImageF goldenLinear;       ///< golden adjusted linear frame
    std::vector<uint8_t> goldenPng;  ///< golden PNG of adjustedSrgb
    uint32_t goldenStreamCrc = 0;    ///< seal CRC of the golden stream
    net::PacketizedFrame goldenPackets;  ///< golden wire image

    static DisplayGeometry makeGeom(const FaultCampaignConfig &cfg)
    {
        DisplayGeometry g;
        g.width = cfg.width;
        g.height = cfg.height;
        g.horizontalFovDeg = 100.0;
        g.fixationX = cfg.width / 2.0;
        g.fixationY = cfg.height / 2.0;
        return g;
    }

    static PipelineParams makePipeline(const FaultCampaignConfig &cfg)
    {
        PipelineParams p;
        p.tileSize = cfg.tileSize;
        p.threads = cfg.threads;
        return p;
    }

    explicit CampaignContext(const FaultCampaignConfig &config)
        : cfg(config), geom(makeGeom(config)),
          encoder(model, makePipeline(config)),
          input(syntheticFrame(config.width, config.height,
                               config.seed)),
          ecc(geom), golden(encoder.encodeFrame(input, ecc)),
          goldenLinear(encoder.adjustFrame(input, ecc))
    {
        goldenPng = pngEncode(golden.adjustedSrgb);
        goldenStreamCrc =
            crc32(golden.bdStream.data(), golden.bdStream.size());
        net::PacketizerParams pp;
        pp.sessionId = kNetSessionId;
        pp.streamId = kNetStreamId;
        goldenPackets =
            net::packetizeFrame(golden.bdStream, 0, &ecc, pp);
    }
};

enum class Outcome
{
    Detected,
    SilentCorrupt,
    Benign,
    Crash,
};

void
tally(SurfaceOutcome &out, Outcome o)
{
    ++out.trials;
    switch (o) {
    case Outcome::Detected:      ++out.detected; break;
    case Outcome::SilentCorrupt: ++out.silentCorrupt; break;
    case Outcome::Benign:        ++out.benign; break;
    case Outcome::Crash:         ++out.crashes; break;
    }
}

/** Classify a delivered image against the golden reference. */
Outcome
classifyDelivered(const ImageU8 &delivered, const ImageU8 &golden)
{
    return delivered == golden ? Outcome::Benign
                               : Outcome::SilentCorrupt;
}

/**
 * TileScratch: flip bits of the adjusted linear values — the per-tile
 * candidate lanes — between the move and the quantize, modeled over
 * the whole golden adjusted frame. Neither configuration
 * defends this surface (the measured gap that motivates duplicating
 * the adjustment itself, docs/FAULTS.md "Residual exposure"): the
 * classification is whether the flip survives quantization.
 */
Outcome
runTileScratchTrial(CampaignContext &ctx, FaultInjector &inj,
                    int flips, bool /*hardened*/)
{
    try {
        static thread_local ImageF scratch;
        static thread_local ImageU8 srgb;
        if (scratch.width() != ctx.input.width() ||
            scratch.height() != ctx.input.height())
            scratch = ImageF(ctx.input.width(), ctx.input.height());
        std::memcpy(scratch.pixels().data(),
                    ctx.goldenLinear.pixels().data(),
                    scratch.pixels().size() * sizeof(Vec3));
        inj.injectDoubles(
            reinterpret_cast<double *>(scratch.pixels().data()),
            scratch.pixels().size() * 3, flips);
        toSrgb8Into(scratch, srgb);
        return classifyDelivered(srgb, ctx.golden.adjustedSrgb);
    } catch (...) {
        return Outcome::Crash;
    }
}

/**
 * BdStream: flip bits of an encoded bitstream in flight. Baseline
 * defense is the decoder's walk-validation; hardened adds the CRC-32
 * seal checked before the stream reaches a decoder at all.
 */
Outcome
runBdStreamTrial(CampaignContext &ctx, FaultInjector &inj, int flips,
                 bool hardened)
{
    static thread_local std::vector<uint8_t> stream;
    static thread_local ImageU8 decoded;
    static thread_local BdDecodeScratch scratch;
    stream = ctx.golden.bdStream;
    inj.inject(stream, flips);
    if (hardened &&
        crc32(stream.data(), stream.size()) != ctx.goldenStreamCrc)
        return Outcome::Detected;
    try {
        BdCodec::decodeInto(stream, decoded, &scratch);
    } catch (const std::runtime_error &) {
        return Outcome::Detected;  // walk-validation caught it
    } catch (...) {
        return Outcome::Crash;
    }
    return classifyDelivered(decoded, ctx.golden.adjustedSrgb);
}

/**
 * PngPayload: flip bits of a PNG file payload. PNG carries its own
 * CRC-32 per chunk and Adler-32 in the zlib container — the intrinsic
 * defenses both configurations share (the comparison point that
 * motivated promoting those checksums to common/integrity).
 */
Outcome
runPngPayloadTrial(CampaignContext &ctx, FaultInjector &inj,
                   int flips, bool /*hardened*/)
{
    static thread_local std::vector<uint8_t> payload;
    payload = ctx.goldenPng;
    inj.inject(payload, flips);
    try {
        const ImageU8 decoded = pngDecode(payload);
        return classifyDelivered(decoded, ctx.golden.adjustedSrgb);
    } catch (const std::runtime_error &) {
        return Outcome::Detected;
    } catch (...) {
        return Outcome::Crash;
    }
}

/**
 * EccMap: flip bits of the per-stream eccentricity state that steers
 * foveal bypass and adjustment strength. Baseline: the corrupted map
 * silently steers the encode. Hardened: the checksummed gaze state
 * detects the mismatch and recovers by exact rebuild before encoding.
 */
Outcome
runEccMapBaselineTrial(CampaignContext &ctx, EccentricityMap &map,
                       FaultInjector &inj, int flips)
{
    const std::size_t n = static_cast<std::size_t>(map.width()) *
                          static_cast<std::size_t>(map.height());
    inj.injectDoubles(map.data(), n, flips);
    Outcome o;
    try {
        static thread_local EncodedFrame out;
        ctx.encoder.encodeFrameInto(ctx.input, map, out);
        o = classifyDelivered(out.adjustedSrgb,
                              ctx.golden.adjustedSrgb);
    } catch (...) {
        o = Outcome::Crash;
    }
    map.rebuild(ctx.geom);  // restore for the next trial
    return o;
}

Outcome
runEccMapHardenedTrial(CampaignContext &ctx,
                       GazeTrackedEccentricity &gaze,
                       FaultInjector &inj, int flips)
{
    EccentricityMap &map = gaze.mutableMap();
    const std::size_t n = static_cast<std::size_t>(map.width()) *
                          static_cast<std::size_t>(map.height());
    inj.injectDoubles(map.data(), n, flips);
    try {
        if (!gaze.verifyAndRecoverState()) {
            // Detected and recovered; the recovered map must steer an
            // encode back onto the golden output (the map was exact
            // when sealed). A disagreement would mean the recovery
            // itself is broken — surface it as silent corruption.
            static thread_local EncodedFrame out;
            ctx.encoder.encodeFrameInto(ctx.input, gaze.map(), out);
            return out.adjustedSrgb == ctx.golden.adjustedSrgb
                       ? Outcome::Detected
                       : Outcome::SilentCorrupt;
        }
    } catch (...) {
        return Outcome::Crash;
    }
    // Undetected (cannot happen for intra-word flips; keep the
    // accounting honest anyway): encode against the corrupt map.
    static thread_local EncodedFrame out;
    ctx.encoder.encodeFrameInto(ctx.input, gaze.map(), out);
    return classifyDelivered(out.adjustedSrgb,
                             ctx.golden.adjustedSrgb);
}

/**
 * NetPacket: flip bits of one delivery-tier datagram in flight, with
 * the rest of the frame's packets arriving clean. Baseline is the
 * reassembler with per-packet CRC verification off — only the
 * structural parse and the per-packet prefix walk stand between the
 * flip and the framebuffer, and a flip in payload delta bits passes
 * both. Hardened is the product configuration (verifyCrc on): the
 * CRC-32 guarantees detection of 1-3 flips at datagram scale, the
 * packet is rejected, and the tile degrades *visibly* (reported
 * fallback/fill) instead of silently.
 *
 * "Detected" here means the tier refused or flagged the damage: a
 * rejection counter fired, the manifest never validated, or the frame
 * finalized incomplete — every one of those is surfaced in the
 * FrameDeliveryReport a consumer sees. Only a frame that claims
 * complete delivery while differing from the golden image is silent.
 */
Outcome
runNetPacketTrial(CampaignContext &ctx, FaultInjector &inj,
                  std::uint64_t seed, int flips, bool hardened)
{
    net::ReassemblerParams rp;
    rp.sessionId = kNetSessionId;
    rp.verifyCrc = hardened;
    net::FrameReassembler rx(rp);
    // The victim pick must not perturb the flip schedule: draw it
    // from an independent stream of the same trial seed.
    Rng pick(seed ^ 0xA11CE5ull);
    const std::size_t victim = static_cast<std::size_t>(
        pick.uniformInt(ctx.goldenPackets.packets.size()));
    static thread_local ImageU8 delivered;
    static thread_local std::vector<uint8_t> corrupt;
    try {
        for (std::size_t i = 0; i < ctx.goldenPackets.packets.size();
             ++i) {
            if (i != victim) {
                rx.accept(ctx.goldenPackets.packets[i].bytes);
                continue;
            }
            corrupt = ctx.goldenPackets.packets[i].bytes;
            inj.inject(corrupt, flips);
            rx.accept(corrupt);
        }
        const net::FrameDeliveryReport rep =
            rx.finalizeFrame(kNetStreamId, 0, delivered);
        if (rx.rejectedPackets() > 0 || !rep.manifestReceived ||
            !rep.complete)
            return Outcome::Detected;
        return classifyDelivered(delivered, ctx.golden.adjustedSrgb);
    } catch (...) {
        return Outcome::Crash;
    }
}

/**
 * QueueSlot / FrameOutput: flips inside the live EncodeService, via
 * its fault hooks — QueueSlot corrupts the queued input copy after
 * submit() (before the hardened dispatch verify), FrameOutput
 * corrupts the encoded result while it waits for collect() (after the
 * seal). One service runs all trials of a combination; each frame is
 * one trial, seeded by its frame index, so the schedule is identical
 * across configurations.
 */
void
runServiceSurface(CampaignContext &ctx, FaultSurface surface,
                  int flips, bool hardened, SurfaceOutcome &out)
{
    const FaultCampaignConfig &cfg = ctx.cfg;
    ServiceParams params;
    params.threads = cfg.threads;
    params.tileSize = cfg.tileSize;
    params.hardenIntegrity = hardened;
    auto hookSeed = [&, surface, flips](std::uint64_t frame_index) {
        return trialSeed(cfg, surface, flips,
                         static_cast<int>(frame_index));
    };
    if (surface == FaultSurface::QueueSlot) {
        params.preEncodeFaultHook =
            [&ctx, flips, hookSeed](const std::string &,
                                    std::uint64_t frame_index,
                                    ImageF &input) {
                FaultInjector inj(hookSeed(frame_index));
                inj.injectDoubles(
                    reinterpret_cast<double *>(input.pixels().data()),
                    input.pixels().size() * 3, flips);
            };
    } else {
        params.postEncodeFaultHook =
            [flips, hookSeed](const std::string &,
                              std::uint64_t frame_index,
                              EncodedFrame &frame) {
                FaultInjector inj(hookSeed(frame_index));
                inj.inject(frame.adjustedSrgb.data().data(),
                           frame.adjustedSrgb.data().size(), flips);
            };
    }

    EncodeService service(ctx.model, params);
    StreamHandle stream = service.openStream("campaign", ctx.ecc);
    for (int trial = 0; trial < cfg.trialsPerSurface; ++trial) {
        service.submit(stream, ctx.input);
        try {
            FrameLease lease = service.collect(stream);
            tally(out, classifyDelivered(lease->adjustedSrgb,
                                         ctx.golden.adjustedSrgb));
        } catch (const FrameQuarantined &) {
            tally(out, Outcome::Detected);
        } catch (...) {
            tally(out, Outcome::Crash);
        }
    }
}

} // namespace

const SurfaceOutcome *
FaultCampaignReport::find(FaultSurface surface, int flips,
                          bool hardened) const
{
    for (const SurfaceOutcome &o : outcomes)
        if (o.surface == surface && o.flips == flips &&
            o.hardened == hardened)
            return &o;
    return nullptr;
}

SurfaceOutcome
FaultCampaignReport::aggregate(FaultSurface surface,
                               bool hardened) const
{
    SurfaceOutcome sum;
    sum.surface = surface;
    sum.hardened = hardened;
    for (const SurfaceOutcome &o : outcomes) {
        if (o.surface != surface || o.hardened != hardened)
            continue;
        sum.trials += o.trials;
        sum.detected += o.detected;
        sum.silentCorrupt += o.silentCorrupt;
        sum.benign += o.benign;
        sum.crashes += o.crashes;
    }
    return sum;
}

FaultCampaignReport
runFaultCampaign(const FaultCampaignConfig &config)
{
    if (config.width < 1 || config.height < 1)
        throw std::invalid_argument("runFaultCampaign: empty frame");
    if (config.trialsPerSurface < 1)
        throw std::invalid_argument(
            "runFaultCampaign: trialsPerSurface < 1");
    if (config.flipCounts.empty())
        throw std::invalid_argument(
            "runFaultCampaign: no flip counts to sweep");

    CampaignContext ctx(config);
    FaultCampaignReport report;
    report.config = config;

    const FaultSurface surfaces[] = {
        FaultSurface::TileScratch, FaultSurface::BdStream,
        FaultSurface::PngPayload,  FaultSurface::QueueSlot,
        FaultSurface::EccMap,      FaultSurface::FrameOutput,
        FaultSurface::NetPacket,
    };
    for (const bool hardened : {false, true}) {
        for (const FaultSurface surface : surfaces) {
            for (const int flips : config.flipCounts) {
                SurfaceOutcome out;
                out.surface = surface;
                out.flips = flips;
                out.hardened = hardened;

                if (surface == FaultSurface::QueueSlot ||
                    surface == FaultSurface::FrameOutput) {
                    runServiceSurface(ctx, surface, flips, hardened,
                                      out);
                    report.outcomes.push_back(out);
                    continue;
                }

                // Per-trial fixtures of the in-process surfaces.
                EccentricityMap baselineMap(ctx.geom);
                GazeTrackedEccentricity gaze(ctx.geom);
                gaze.sealState();

                for (int trial = 0; trial < config.trialsPerSurface;
                     ++trial) {
                    const std::uint64_t seed =
                        trialSeed(config, surface, flips, trial);
                    FaultInjector inj(seed);
                    Outcome o = Outcome::Crash;
                    switch (surface) {
                    case FaultSurface::TileScratch:
                        o = runTileScratchTrial(ctx, inj, flips,
                                                hardened);
                        break;
                    case FaultSurface::BdStream:
                        o = runBdStreamTrial(ctx, inj, flips,
                                             hardened);
                        break;
                    case FaultSurface::PngPayload:
                        o = runPngPayloadTrial(ctx, inj, flips,
                                               hardened);
                        break;
                    case FaultSurface::EccMap:
                        o = hardened
                                ? runEccMapHardenedTrial(ctx, gaze,
                                                         inj, flips)
                                : runEccMapBaselineTrial(
                                      ctx, baselineMap, inj, flips);
                        break;
                    case FaultSurface::NetPacket:
                        o = runNetPacketTrial(ctx, inj, seed, flips,
                                              hardened);
                        break;
                    default:
                        break;
                    }
                    tally(out, o);
                }
                report.outcomes.push_back(out);
            }
        }
    }
    return report;
}

} // namespace pce

/**
 * @file
 * Deterministic property/soak harness for the adaptive delivery tier
 * (ISSUE 9): PCE_SOAK_SEEDS seeds (default 16) x five loss schedules
 * (clean, constant 10%, constant 25%, step 0->25->0, burst) x 32
 * frames each, all through the seeded LossyChannel with the per-frame
 * drop rate driven by the shared schedule functions
 * (net/rate_control.hh), so every run is replayable bit for bit.
 *
 * Invariants asserted on every frame of every run:
 *  - frames delivered before the schedule's first lossy frame are
 *    byte-identical (CRC-proven), nothing shed, nothing retransmitted
 *    — at 0% loss the adaptive tier is fully transparent;
 *  - zero silent tiles: every tile claimed delivered is pixel-exact
 *    against the encoder input, every degraded tile is flagged;
 *  - shedding respects the continuous cutoff: no shed packet's tile
 *    eccentricity is below the frame's cutoff radius;
 *  - frames the schedule leaves clean deliver the foveal region
 *    intact (the budget floor always admits the fovea);
 *  - replaying a (seed, schedule) pair reproduces the identical
 *    budget/cutoff/byte trace;
 *  - under the step schedule the adaptive controller recovers full
 *    foveal delivery after the loss ends and beats the constant-
 *    budget baseline's delivered-tile ratio.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "net/delivery.hh"
#include "perception/display.hh"

namespace pce::net {
namespace {

constexpr int kW = 64;
constexpr int kH = 64;
constexpr int kTile = 4;
constexpr int kFrames = 32;
constexpr int kDeadlineRounds = 8;

int
soakSeeds()
{
    return static_cast<int>(
        std::max(1L, envInt("PCE_SOAK_SEEDS", 16)));
}

ImageU8
noisyImage(std::uint64_t seed)
{
    ImageU8 img(kW, kH);
    Rng rng(seed);
    for (auto &b : img.data())
        b = static_cast<std::uint8_t>(rng.next());
    return img;
}

EccentricityMap
centeredEcc()
{
    DisplayGeometry geom;
    geom.width = kW;
    geom.height = kH;
    geom.horizontalFovDeg = 100.0;
    geom.fixationX = kW / 2.0;
    geom.fixationY = kH / 2.0;
    return EccentricityMap(geom);
}

/** The 32-frame content set, encoded once for the whole suite. */
struct Content
{
    std::vector<ImageU8> images;
    std::vector<std::vector<std::uint8_t>> streams;
    std::size_t maxWireBytes = 0;
};

const Content &
content()
{
    static const Content c = [] {
        Content ct;
        const EccentricityMap ecc = centeredEcc();
        PacketizerParams pp;
        pp.mtuBytes = 300;
        for (int f = 0; f < kFrames; ++f) {
            ct.images.push_back(
                noisyImage(0x9000 + static_cast<std::uint64_t>(f)));
            ct.streams.push_back(BdCodec(kTile).encode(ct.images.back()));
            ct.maxWireBytes =
                std::max(ct.maxWireBytes,
                         packetizeFrame(ct.streams.back(),
                                        static_cast<std::uint64_t>(f),
                                        &ecc, pp)
                             .wireBytes);
        }
        return ct;
    }();
    return c;
}

/**
 * The statically provisioned constant budget: just enough rounds-
 * times-bytes to move the largest frame through a clean channel
 * within the deadline. The +300 absorbs per-round packing loss (a
 * packet that misses the residual budget waits a round). This is
 * both the constant baseline's budget and the adaptive controller's
 * floor — adaptation only ever adds capacity on top.
 */
std::size_t
provisionedBudget()
{
    return (content().maxWireBytes +
            static_cast<std::size_t>(kDeadlineRounds) - 1) /
               static_cast<std::size_t>(kDeadlineRounds) +
           300;
}

SenderPolicy
soakPolicy(bool adaptive)
{
    SenderPolicy p;
    p.mtuBytes = 300;
    p.sessionId = 0xabc;
    p.streamId = 1;
    p.deadlineRounds = kDeadlineRounds;
    p.adaptiveRate = adaptive;
    if (adaptive) {
        p.rateControl.minBudgetBytesPerRound = provisionedBudget();
        p.rateControl.initialBudgetBytesPerRound = provisionedBudget();
        p.rateControl.maxBudgetBytesPerRound = content().maxWireBytes;
        // Gentle decrease: an 11-frame loss step must not collapse
        // the clean-phase headroom all the way to the floor — that
        // headroom is precisely the adaptive controller's edge over
        // the constant baseline.
        p.rateControl.multiplicativeDecrease = 0.9;
    } else {
        p.budgetBytesPerRound = provisionedBudget();
    }
    return p;
}

/** One frame's outcome, everything determinism must reproduce. */
struct FrameTrace
{
    std::size_t budget = 0;
    double estimatedLoss = 0.0;
    double cutoffEccDeg = 0.0;
    std::size_t packetsSent = 0;
    std::size_t bytesSent = 0;
    std::size_t retransmitted = 0;
    std::size_t shedPackets = 0;
    std::size_t shedBytes = 0;
    std::size_t deliveredTiles = 0;
    std::size_t totalTiles = 0;
    bool fovealIntact = false;
    bool byteIdentical = false;

    bool operator==(const FrameTrace &) const = default;
};

std::uint64_t
channelSeed(int seed_index)
{
    return 0x5eedULL + 977ULL * static_cast<std::uint64_t>(seed_index);
}

/** Every tile the report claims delivered must match @p clean. */
void
expectNoSilentTiles(const FrameDeliveryReport &rep, const ImageU8 &out,
                    const ImageU8 &clean)
{
    if (!rep.manifestReceived) {
        // Whole-frame degradation (the manifest never made it): no
        // tile is claimed delivered, so nothing can be silent.
        EXPECT_TRUE(rep.tileDelivered.empty());
        EXPECT_EQ(rep.deliveredTiles, 0u);
        return;
    }
    const TileGrid grid{kW, kH, kTile};
    ASSERT_EQ(rep.tileDelivered.size(), grid.count());
    std::size_t flagged = 0;
    for (std::size_t t = 0; t < grid.count(); ++t) {
        if (!rep.tileDelivered[t]) {
            ++flagged;
            continue;
        }
        const TileRect r = grid.rect(t);
        for (int y = r.y0; y < r.y0 + r.h; ++y)
            for (int x = r.x0; x < r.x0 + r.w; ++x)
                for (int c = 0; c < 3; ++c)
                    ASSERT_EQ(out.channel(x, y, c),
                              clean.channel(x, y, c))
                        << "silently corrupt tile " << t;
    }
    EXPECT_EQ(flagged, rep.fallbackTiles + rep.filledTiles);
    EXPECT_EQ(rep.deliveredTiles + flagged, rep.totalTiles);
}

/**
 * Run one (seed, schedule) sweep and return its trace. With
 * @p check_invariants the per-frame soak invariants are asserted
 * in-line (the replay pass skips them — it compares traces instead).
 */
std::vector<FrameTrace>
runSweep(int seed_index, LossScheduleId schedule, bool adaptive,
         bool check_invariants)
{
    const Content &ct = content();
    const EccentricityMap ecc = centeredEcc();
    const SenderPolicy policy = soakPolicy(adaptive);

    LossyChannelConfig ch;
    ch.seed = channelSeed(seed_index);
    LossyChannel channel(ch);
    FrameReassembler rx([&] {
        ReassemblerParams rp;
        rp.sessionId = policy.sessionId;
        return rp;
    }());
    RateController rate(policy.rateControl);

    std::vector<FrameTrace> trace;
    bool seen_loss = false;
    for (int f = 0; f < kFrames; ++f) {
        const double drop =
            scheduledDropRate(schedule, f, kFrames);
        channel.setDropRate(drop);
        seen_loss = seen_loss || drop > 0.0;

        ImageU8 out;
        const DeliveryReport rep = deliverFrame(
            ct.streams[static_cast<std::size_t>(f)],
            static_cast<std::uint64_t>(f), &ecc, channel, rx, out,
            policy, adaptive ? &rate : nullptr);

        FrameTrace t;
        t.budget = rep.budgetBytesPerRound;
        t.estimatedLoss = rep.estimatedLossRate;
        t.cutoffEccDeg = rep.cutoffEccDeg;
        t.packetsSent = rep.packetsSent;
        t.bytesSent = rep.bytesSent;
        t.retransmitted = rep.retransmittedPackets;
        t.shedPackets = rep.shedPackets;
        t.shedBytes = rep.shedBytes;
        t.deliveredTiles = rep.frame.deliveredTiles;
        t.totalTiles = rep.frame.totalTiles;
        t.fovealIntact = rep.fovealIntact;
        t.byteIdentical = rep.frame.byteIdentical;
        trace.push_back(t);

        if (!check_invariants)
            continue;
        const ImageU8 &clean = ct.images[static_cast<std::size_t>(f)];
        // Transparency before the schedule's first lossy frame: the
        // provisioned floor moves the whole frame at 0% loss, so the
        // adaptive tier starts byte-identical — not degraded-until-
        // converged.
        if (!seen_loss) {
            EXPECT_TRUE(rep.frame.byteIdentical)
                << "pre-loss frame " << f << " not byte-identical";
            EXPECT_EQ(rep.shedPackets, 0u);
            EXPECT_EQ(rep.retransmittedPackets, 0u);
            EXPECT_EQ(out, clean);
        }
        // Zero silent tiles, always — loss degrades, never corrupts.
        expectNoSilentTiles(rep.frame, out, clean);
        // Shedding respects the foveal-first order: the fovea is
        // never shed, and without retransmission pressure (no loss
        // actually bit) nothing inside the cutoff radius is shed —
        // reactive starvation inside the cutoff can only come from
        // retransmissions eating the planned budget.
        if (rep.shedPackets > 0) {
            EXPECT_GT(rep.minShedEccDeg, policy.fovealCutoffDeg)
                << "frame " << f << " shed a foveal packet";
            if (rep.retransmittedPackets == 0 &&
                std::isfinite(rep.cutoffEccDeg)) {
                EXPECT_GE(rep.minShedEccDeg, rep.cutoffEccDeg)
                    << "frame " << f
                    << " shed inside the cutoff radius";
            }
        }
        // Frames the schedule leaves clean keep the fovea intact:
        // even a worst-case loss estimate derates capacity no further
        // than the floor, which always admits the foveal packets.
        if (drop == 0.0)
            EXPECT_TRUE(rep.fovealIntact)
                << "foveal region degraded on clean frame " << f;
    }
    return trace;
}

double
deliveredTileRatio(const std::vector<FrameTrace> &trace)
{
    std::size_t delivered = 0;
    std::size_t total = 0;
    for (const FrameTrace &t : trace) {
        delivered += t.deliveredTiles;
        total += t.totalTiles;
    }
    return total > 0 ? static_cast<double>(delivered) /
                           static_cast<double>(total)
                     : 0.0;
}

const LossScheduleId kSchedules[] = {
    LossScheduleId::Clean, LossScheduleId::Constant10,
    LossScheduleId::Constant25, LossScheduleId::Step,
    LossScheduleId::Burst};

TEST(DeliverySoak, SweepInvariantsHoldForEverySeedAndSchedule)
{
    const int seeds = soakSeeds();
    for (int s = 0; s < seeds; ++s) {
        for (const LossScheduleId sched : kSchedules) {
            SCOPED_TRACE(std::string("schedule ") +
                         lossScheduleName(sched) + " seed " +
                         std::to_string(s));
            const std::vector<FrameTrace> trace =
                runSweep(s, sched, /*adaptive=*/true,
                         /*check_invariants=*/true);
            ASSERT_EQ(trace.size(),
                      static_cast<std::size_t>(kFrames));
            // Clean schedule: transparent on every frame.
            if (sched == LossScheduleId::Clean)
                for (const FrameTrace &t : trace)
                    EXPECT_TRUE(t.byteIdentical);
            // Lossy schedules still keep the fovea intact on the
            // overwhelming majority of frames (foveal packets get
            // every retransmission attempt first).
            std::size_t intact = 0;
            for (const FrameTrace &t : trace)
                intact += t.fovealIntact ? 1 : 0;
            EXPECT_GE(static_cast<double>(intact) / kFrames, 0.85);
        }
    }
}

TEST(DeliverySoak, ReplayWithTheSameSeedIsBitIdentical)
{
    const int seeds = soakSeeds();
    for (int s = 0; s < seeds; ++s)
        for (const LossScheduleId sched : kSchedules) {
            SCOPED_TRACE(std::string("schedule ") +
                         lossScheduleName(sched) + " seed " +
                         std::to_string(s));
            const std::vector<FrameTrace> once =
                runSweep(s, sched, true, false);
            const std::vector<FrameTrace> twice =
                runSweep(s, sched, true, false);
            // Budgets, loss estimates, cutoffs, byte counts: the
            // whole control trajectory replays exactly, doubles
            // included — the controller is pure arithmetic.
            EXPECT_EQ(once, twice);
        }
    // Different seeds draw different channel histories (sanity that
    // the seed is actually load-bearing).
    const std::vector<FrameTrace> a =
        runSweep(0, LossScheduleId::Constant25, true, false);
    const std::vector<FrameTrace> b =
        runSweep(1, LossScheduleId::Constant25, true, false);
    EXPECT_NE(a, b);
}

TEST(DeliverySoak, AdaptiveRecoversAndBeatsConstantUnderStep)
{
    const int seeds = soakSeeds();
    double adaptive_sum = 0.0;
    double constant_sum = 0.0;
    for (int s = 0; s < seeds; ++s) {
        SCOPED_TRACE("seed " + std::to_string(s));
        const std::vector<FrameTrace> adaptive =
            runSweep(s, LossScheduleId::Step, true, false);
        const std::vector<FrameTrace> constant =
            runSweep(s, LossScheduleId::Step, false, false);

        // Recovery: once the loss step ends, the controller re-opens
        // and every tail frame delivers the foveal region; by the
        // last frame the budget has regrown past the floor and the
        // frame is transparent again.
        bool in_tail = false;
        for (int f = 0; f < kFrames; ++f) {
            const bool lossy =
                scheduledDropRate(LossScheduleId::Step, f, kFrames) >
                0.0;
            in_tail = in_tail || (f > 0 && !lossy &&
                                  scheduledDropRate(
                                      LossScheduleId::Step, f - 1,
                                      kFrames) > 0.0);
            if (in_tail && !lossy)
                EXPECT_TRUE(adaptive[static_cast<std::size_t>(f)]
                                .fovealIntact)
                    << "foveal delivery not recovered at frame " << f;
        }
        EXPECT_TRUE(adaptive.back().byteIdentical)
            << "budget did not re-open to full delivery";
        EXPECT_GT(adaptive.back().budget, provisionedBudget());

        // The floor equals the constant baseline's budget and the
        // clean-phase headroom carried into the step buys retransmit
        // capacity the baseline never has: every seed delivers a
        // strictly larger share of tiles.
        const double ra = deliveredTileRatio(adaptive);
        const double rc = deliveredTileRatio(constant);
        EXPECT_GT(ra, rc);
        adaptive_sum += ra;
        constant_sum += rc;
    }
    EXPECT_GT(adaptive_sum, constant_sum);
}

} // namespace
} // namespace pce::net

/**
 * @file
 * GazeTrace model (gaze/gaze_trace.hh): I-VT fixation/saccade
 * classification on synthetic traces, generator determinism, and the
 * CSV round trip with its malformed-input rejection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "gaze/gaze_trace.hh"

namespace pce {
namespace {

DisplayGeometry
geometry(int w = 512, int h = 512)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return g;
}

TEST(GazeTrace, SlowPursuitClassifiesAsAllFixation)
{
    const DisplayGeometry geom = geometry();
    // 20 px radius, 4 s lap at 72 Hz: peak speed 2*pi*20/4 ~ 31 px/s,
    // well under the default 70 deg/s threshold on this geometry.
    const GazeTrace trace =
        smoothPursuitTrace(2.0, 72.0, 256.0, 256.0, 20.0, 4.0);
    ASSERT_GT(trace.size(), 100u);
    for (const GazePhase p : classifyIVT(trace, geom))
        EXPECT_EQ(p, GazePhase::Fixation);
}

TEST(GazeTrace, FastPursuitCrossesTheThreshold)
{
    const DisplayGeometry geom = geometry();
    // 180 px radius, 0.25 s lap: ~4.5k px/s — saccade-fast.
    const GazeTrace trace =
        smoothPursuitTrace(1.0, 72.0, 256.0, 256.0, 180.0, 0.25);
    const auto phases = classifyIVT(trace, geom);
    ASSERT_FALSE(phases.empty());
    EXPECT_EQ(phases.front(), GazePhase::Fixation);  // no velocity yet
    for (std::size_t i = 1; i < phases.size(); ++i)
        EXPECT_EQ(phases[i], GazePhase::Saccade) << "sample " << i;
}

TEST(GazeTrace, SaccadeJumpsAreFlaggedAndDwellsAreNot)
{
    const DisplayGeometry geom = geometry();
    Rng rng(42);
    const GazeTrace trace =
        saccadeJumpTrace(geom, 4.0, 72.0, 0.4, rng);
    const auto phases = classifyIVT(trace, geom);

    std::size_t saccades = 0, fixations = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const double jump = std::hypot(
            trace.samples[i].x - trace.samples[i - 1].x,
            trace.samples[i].y - trace.samples[i - 1].y);
        if (jump == 0.0) {
            EXPECT_EQ(phases[i], GazePhase::Fixation);
            ++fixations;
        } else if (jump > 30.0) {
            // A >30 px jump in one 72 Hz interval is >2000 px/s.
            EXPECT_EQ(phases[i], GazePhase::Saccade);
            ++saccades;
        }
    }
    EXPECT_GT(saccades, 2u);
    EXPECT_GT(fixations, 100u);
}

TEST(GazeTrace, GeneratorsAreDeterministic)
{
    const DisplayGeometry geom = geometry();
    Rng a(7), b(7);
    const GazeTrace ta = saccadeJumpTrace(geom, 2.0, 72.0, 0.3, a);
    const GazeTrace tb = saccadeJumpTrace(geom, 2.0, 72.0, 0.3, b);
    ASSERT_EQ(ta.samples, tb.samples);

    GazeTrace na = ta, nb = tb;
    Rng ra(9), rb(9);
    addTrackerNoise(na, 1.5, ra);
    addTrackerNoise(nb, 1.5, rb);
    EXPECT_EQ(na.samples, nb.samples);
    EXPECT_NE(na.samples, ta.samples);
}

TEST(GazeTrace, StreamingClassifierMatchesBatchAndResets)
{
    const DisplayGeometry geom = geometry();
    Rng rng(3);
    GazeTrace trace = saccadeJumpTrace(geom, 1.5, 72.0, 0.25, rng);
    addTrackerNoise(trace, 0.5, rng);

    IVTClassifier ivt(geom);
    const auto batch = classifyIVT(trace, geom);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(ivt.update(trace.samples[i]), batch[i]);

    ivt.reset();
    // After reset the next sample has no predecessor: Fixation even
    // if it is far from the last one fed.
    EXPECT_EQ(ivt.update({1000.0, 0.0, 0.0}), GazePhase::Fixation);
}

TEST(GazeTrace, NonMonotonicTimestampClassifiesConservatively)
{
    const DisplayGeometry geom = geometry();
    IVTClassifier ivt(geom);
    EXPECT_EQ(ivt.update({1.0, 100.0, 100.0}), GazePhase::Fixation);
    // Same timestamp, huge jump: no valid interval -> Fixation.
    EXPECT_EQ(ivt.update({1.0, 400.0, 400.0}), GazePhase::Fixation);
    EXPECT_EQ(ivt.lastVelocityDegPerSec(), 0.0);
}

TEST(GazeTrace, NonFiniteSampleIsRejectedBeforeAnyStateChanges)
{
    // On a small display a 28 px jump in 4 ms is a saccade. A NaN-time
    // sample recorded as the predecessor would make every later
    // interval invalid and read that jump as a fixation.
    const DisplayGeometry geom = geometry(96, 80);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const GazeSample bad[] = {{nan, 50.0, 40.0}, {inf, 50.0, 40.0},
                              {-inf, 50.0, 40.0}, {3.5, nan, 40.0},
                              {3.5, -inf, 40.0}, {3.5, 50.0, nan},
                              {3.5, 50.0, inf}};
    for (const GazeSample &b : bad) {
        IVTClassifier ivt(geom);
        EXPECT_EQ(ivt.update({3.0, 50.0, 39.0}), GazePhase::Fixation);
        EXPECT_EQ(ivt.update({3.5, 50.5, 39.0}), GazePhase::Fixation);
        const double velocity = ivt.lastVelocityDegPerSec();
        EXPECT_THROW(ivt.update(b), std::invalid_argument);
        EXPECT_EQ(ivt.lastVelocityDegPerSec(), velocity);
        EXPECT_EQ(ivt.update({3.504, 70.0, 60.0}), GazePhase::Saccade);
        EXPECT_GT(ivt.lastVelocityDegPerSec(), kSaccadeVelocityDegPerSec);

        GazeTrace trace;
        trace.samples = {{0.0, 48.0, 40.0}, b};
        EXPECT_THROW(classifyIVT(trace, geom), std::invalid_argument);
    }
}

TEST(GazeTrace, CsvRoundTripIsExact)
{
    const DisplayGeometry geom = geometry();
    Rng rng(11);
    GazeTrace trace = saccadeJumpTrace(geom, 1.0, 72.0, 0.3, rng);
    addTrackerNoise(trace, 1.0, rng);

    std::stringstream ss;
    saveGazeTraceCsv(trace, ss);
    const GazeTrace loaded = loadGazeTraceCsv(ss);
    EXPECT_EQ(loaded.samples, trace.samples);
}

TEST(GazeTrace, CsvSkipsCommentsHeaderAndBlankLines)
{
    std::stringstream ss(
        "time,x,y\n"
        "# recorded 2026-07-30\n"
        "\n"
        "0.0, 10.5, 20.25\n"
        "0.0139,11,21  # inline comment\n");
    const GazeTrace t = loadGazeTraceCsv(ss);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t.samples[0].x, 10.5);
    EXPECT_DOUBLE_EQ(t.samples[1].timeSeconds, 0.0139);
    EXPECT_DOUBLE_EQ(t.samples[1].y, 21.0);
}

TEST(GazeTrace, CsvRejectsMalformedInput)
{
    const char *bad[] = {
        "0.0,1.0\n",              // too few fields
        "0.0,1.0,2.0,3.0\n",      // too many fields
        "0.0,abc,2.0\n",          // non-numeric
        "0.0,1.0,2.0z\n",         // trailing garbage
        "0.0,1.0,2.0\n0.0,1.0,2.0\n",    // non-increasing time
        "0.0,1.0,2.0\n-1.0,1.0,2.0\n",   // time going backwards
        "0.0,nan,2.0\n",          // stod accepts nan; we must not
    };
    for (const char *text : bad) {
        std::stringstream ss(text);
        EXPECT_THROW(loadGazeTraceCsv(ss), std::runtime_error)
            << "accepted: " << text;
    }
}

TEST(GazeTrace, GeneratorAndClassifierRejectBadParams)
{
    const DisplayGeometry geom = geometry();
    Rng rng(1);
    EXPECT_THROW(smoothPursuitTrace(-1.0, 72.0, 0, 0, 10, 1),
                 std::invalid_argument);
    EXPECT_THROW(smoothPursuitTrace(1.0, 0.0, 0, 0, 10, 1),
                 std::invalid_argument);
    EXPECT_THROW(saccadeJumpTrace(geom, 1.0, 72.0, 0.0, rng),
                 std::invalid_argument);
    EXPECT_THROW(saccadeJumpTrace(geom, 1.0, 72.0, 0.3, rng, 1.5),
                 std::invalid_argument);
    GazeTrace t;
    EXPECT_THROW(addTrackerNoise(t, -1.0, rng), std::invalid_argument);
    EXPECT_THROW(IVTClassifier(geom, 0.0), std::invalid_argument);
}

} // namespace
} // namespace pce

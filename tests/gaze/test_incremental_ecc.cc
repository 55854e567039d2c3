/**
 * @file
 * IncrementalEccentricity exactness/fallback contract
 * (gaze/incremental_ecc.hh): for a sweep of gaze deltas — sub-tile,
 * multi-tile, fractional, off-screen clamp, and the exact fallback
 * threshold edge — the in-place re-fixated map must (a) be
 * bit-identical to a fresh build inside every recomputed band, (b)
 * stay within the documented accumulated error bound everywhere else,
 * (c) cover the whole exact iso-eccentricity band so the encoder can
 * never falsely bypass a foveal tile, and (d) never reallocate its
 * storage (pointer pinning).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "gaze/incremental_ecc.hh"
#include "image/image.hh"

namespace pce {
namespace {

DisplayGeometry
geometry(int w, int h, double fx, double fy)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = fx;
    g.fixationY = fy;
    return g;
}

/** Fresh exact build at the given fixation. */
EccentricityMap
freshMap(const DisplayGeometry &geom, double fx, double fy)
{
    DisplayGeometry g = geom;
    g.fixationX = fx;
    g.fixationY = fy;
    return EccentricityMap(g);
}

bool
inRect(const TileRect &r, int x, int y)
{
    return x >= r.x0 && x < r.x0 + r.w && y >= r.y0 && y < r.y0 + r.h;
}

/**
 * Assert the full contract of one re-fixated map against a fresh
 * build at the same fixation.
 */
void
expectContract(const EccentricityMap &inc, const EccentricityMap &fresh,
               const RefixStats &st, const IncrementalEccParams &params,
               const std::string &what)
{
    ASSERT_EQ(inc.width(), fresh.width());
    ASSERT_EQ(inc.height(), fresh.height());
    EXPECT_DOUBLE_EQ(inc.fixationX(), fresh.fixationX()) << what;
    EXPECT_DOUBLE_EQ(inc.fixationY(), fresh.fixationY()) << what;

    double max_err = 0.0;
    for (int y = 0; y < inc.height(); ++y) {
        for (int x = 0; x < inc.width(); ++x) {
            const double e_inc = inc.at(x, y);
            const double e_fresh = fresh.at(x, y);
            if (st.fullRebuild || inRect(st.exactRect, x, y)) {
                // Recomputed pixels are bit-identical to a fresh
                // build (same eccentricityRow evaluation).
                ASSERT_EQ(e_inc, e_fresh)
                    << what << " exact pixel (" << x << "," << y << ")";
            } else {
                max_err = std::max(max_err, std::abs(e_inc - e_fresh));
            }
            // The always-exact band covers the iso-eccentricity
            // ellipse: any truly-foveal pixel must be exact.
            if (e_fresh <= params.exactBandDeg)
                ASSERT_TRUE(st.fullRebuild ||
                            inRect(st.exactRect, x, y))
                    << what << " in-band pixel (" << x << "," << y
                    << ") ecc " << e_fresh << " outside exactRect";
        }
    }
    EXPECT_LE(max_err, st.accumulatedErrorBoundDeg + 1e-12) << what;
}

TEST(IncrementalEcc, DeltaSweepMeetsContract)
{
    const int w = 96, h = 80;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 40.0;
    // The tiny test display has a ~40 px focal length, so per-step
    // bounds are tens of degrees; park the accumulation cap out of
    // the way to exercise the shift path and the maxShiftPx edge.
    params.maxAccumulatedErrorDeg = 1000.0;
    params.exactBandDeg = 12.0;

    const std::pair<double, double> deltas[] = {
        {0.0, 0.0},    {0.4, -0.3},  {1.0, 0.0},  {-3.0, 2.0},
        {2.5, 7.5},    {-9.0, -9.0}, {13.0, 0.0}, {0.0, -13.0},
        {35.0, 25.0},  // hypot 43 > maxShiftPx: fallback
    };
    for (const auto &[dx, dy] : deltas) {
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        const double fx = geom.fixationX + dx;
        const double fy = geom.fixationY + dy;
        RefixStats st;
        upd.refixate(map, fx, fy, &st);

        const double d = std::hypot(dx, dy);
        EXPECT_EQ(st.fullRebuild, d > params.maxShiftPx)
            << "delta (" << dx << "," << dy << ")";
        const EccentricityMap fresh = freshMap(geom, fx, fy);
        expectContract(map, fresh, st, params,
                       "delta (" + std::to_string(dx) + "," +
                           std::to_string(dy) + ")");
        if (!st.fullRebuild) {
            EXPECT_LE(st.stepErrorBoundDeg,
                      IncrementalEccentricity::shiftErrorBoundDeg(
                          geom, dx, dy) + 1e-12);
            EXPECT_EQ(st.accumulatedErrorBoundDeg,
                      upd.accumulatedErrorBoundDeg());
        } else {
            EXPECT_EQ(upd.accumulatedErrorBoundDeg(), 0.0);
        }
    }
}

TEST(IncrementalEcc, ChainedRefixationsAccumulateWithinBound)
{
    const int w = 96, h = 96;
    const DisplayGeometry geom = geometry(w, h, 30.0, 40.0);
    IncrementalEccParams params;
    params.maxShiftPx = 20.0;
    params.maxAccumulatedErrorDeg = 1000.0;  // stay incremental
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    // A pursuit-like walk; contract must hold after every step.
    double fx = 30.0, fy = 40.0;
    const std::pair<double, double> steps[] = {
        {2.0, 1.0}, {3.0, -1.5}, {2.0, 2.0}, {-1.0, 3.0}, {4.0, 0.0},
    };
    double expected_accum = 0.0;
    for (const auto &[dx, dy] : steps) {
        fx += dx;
        fy += dy;
        RefixStats st;
        upd.refixate(map, fx, fy, &st);
        ASSERT_FALSE(st.fullRebuild);
        expected_accum += st.stepErrorBoundDeg;
        EXPECT_NEAR(st.accumulatedErrorBoundDeg, expected_accum,
                    1e-12);
        expectContract(map, freshMap(geom, fx, fy), st, params,
                       "chained step");
    }
}

TEST(IncrementalEcc, AccumulatedErrorCapForcesRebuild)
{
    const int w = 64, h = 64;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 20.0;
    params.maxAccumulatedErrorDeg = 3.0;
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    double fx = w / 2.0;
    bool saw_rebuild = false;
    for (int i = 0; i < 64 && !saw_rebuild; ++i) {
        fx += (i % 2 == 0) ? 2.0 : -2.0;  // jitter, no net motion
        RefixStats st;
        upd.refixate(map, fx, h / 2.0, &st);
        if (st.fullRebuild) {
            saw_rebuild = true;
            EXPECT_EQ(upd.accumulatedErrorBoundDeg(), 0.0);
            // After the reset the map is exact everywhere.
            const EccentricityMap fresh = freshMap(geom, fx, h / 2.0);
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x)
                    ASSERT_EQ(map.at(x, y), fresh.at(x, y));
        } else {
            EXPECT_LE(st.accumulatedErrorBoundDeg,
                      params.maxAccumulatedErrorDeg);
        }
    }
    EXPECT_TRUE(saw_rebuild)
        << "jitter never crossed the accumulation cap";
}

TEST(IncrementalEcc, ThresholdEdgeTakesIncrementalPathExactlyAt)
{
    const int w = 128, h = 128;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 16.0;
    params.maxAccumulatedErrorDeg = 1000.0;  // isolate the px check

    {
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        RefixStats st;
        // |delta| == maxShiftPx exactly: still incremental.
        upd.refixate(map, geom.fixationX + 16.0, geom.fixationY, &st);
        EXPECT_FALSE(st.fullRebuild);
        EXPECT_GT(st.shiftedPixels, 0u);
    }
    {
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        RefixStats st;
        // Just above the threshold: fallback. (A one-ulp overshoot
        // would be absorbed when added to the fixation coordinate, so
        // use a half-pixel.)
        upd.refixate(map, geom.fixationX + 16.5, geom.fixationY, &st);
        EXPECT_TRUE(st.fullRebuild);
        EXPECT_EQ(st.shiftedPixels, 0u);
    }
}

TEST(IncrementalEcc, OffScreenFixationIsClampedIntoDisplay)
{
    const int w = 64, h = 48;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 1e9;  // force the incremental path even here
    params.maxAccumulatedErrorDeg = 1e9;
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    RefixStats st;
    upd.refixate(map, -50.0, 1e6, &st);
    EXPECT_TRUE(st.clamped);
    EXPECT_DOUBLE_EQ(map.fixationX(), 0.0);
    EXPECT_DOUBLE_EQ(map.fixationY(), static_cast<double>(h - 1));
    expectContract(map, freshMap(geom, 0.0, h - 1), st, params,
                   "clamped");

    // An in-display fixation is not clamped.
    upd.refixate(map, 10.0, 10.0, &st);
    EXPECT_FALSE(st.clamped);
}

TEST(IncrementalEcc, SteadyStateRefixationIsAllocationFree)
{
    const int w = 160, h = 120;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 8.0;
    params.maxAccumulatedErrorDeg = 2.0;  // rebuilds happen in-chain
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);
    const double *storage = map.data();

    double fx = w / 2.0, fy = h / 2.0;
    bool saw_incremental = false, saw_rebuild = false;
    for (int i = 0; i < 48; ++i) {
        fx += ((i * 7) % 11) - 5.0;
        fy += ((i * 5) % 9) - 4.0;
        RefixStats st;
        upd.refixate(map, fx, fy, &st);
        (st.fullRebuild ? saw_rebuild : saw_incremental) = true;
        // Both paths reuse the same storage: the pointer never moves.
        ASSERT_EQ(map.data(), storage) << "step " << i;
        fx = map.fixationX();
        fy = map.fixationY();
    }
    EXPECT_TRUE(saw_incremental);
    EXPECT_TRUE(saw_rebuild);
}

TEST(IncrementalEcc, NoFalseFovealBypassAcrossAChain)
{
    // The property the encoder depends on: a tile whose fresh-map
    // minimum eccentricity is below the cutoff is never seen as
    // bypassable on the incremental map (the reverse direction —
    // extra adjusted tiles — is allowed and costs only work).
    const int w = 96, h = 96;
    const double cutoff = 5.0;
    const DisplayGeometry geom = geometry(w, h, 20.0, 70.0);
    IncrementalEccParams params;  // defaults: 12 >= 5 + 6 holds
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    double fx = 20.0, fy = 70.0;
    const std::pair<double, double> steps[] = {
        {4.0, -3.0}, {6.0, 5.0}, {-2.0, 6.0}, {8.0, 0.0}, {3.0, -7.0},
    };
    for (const auto &[dx, dy] : steps) {
        fx += dx;
        fy += dy;
        upd.refixate(map, fx, fy);
        const EccentricityMap fresh = freshMap(geom, fx, fy);
        for (const TileRect &t : tileGrid(w, h, 8)) {
            if (fresh.minInRect(t) < cutoff)
                ASSERT_LT(map.minInRect(t), cutoff)
                    << "tile (" << t.x0 << "," << t.y0
                    << ") falsely bypassable";
        }
    }
}

TEST(IncrementalEcc, ShiftErrorBoundIsRigorousOnASweep)
{
    // Single-step empirical check of the documented bound on a
    // wide-FoV display (the worst case for the shift approximation).
    const int w = 128, h = 128;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    for (const auto &[dx, dy] : {std::pair<double, double>{4.0, 0.0},
                                 {0.0, 9.0},
                                 {7.0, -7.0}}) {
        IncrementalEccParams params;
        params.maxShiftPx = 32.0;
        params.maxAccumulatedErrorDeg = 1000.0;
        params.exactBandDeg = 0.0;  // measure the raw shift error
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        RefixStats st;
        upd.refixate(map, geom.fixationX + dx, geom.fixationY + dy,
                     &st);
        ASSERT_FALSE(st.fullRebuild);
        const EccentricityMap fresh =
            freshMap(geom, geom.fixationX + dx, geom.fixationY + dy);
        double max_err = 0.0;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                if (!inRect(st.exactRect, x, y))
                    max_err = std::max(
                        max_err,
                        std::abs(map.at(x, y) - fresh.at(x, y)));
        EXPECT_LE(max_err, st.stepErrorBoundDeg)
            << "delta (" << dx << "," << dy << ")";
    }
}

TEST(IncrementalEcc, RejectsMismatchedMapAndBadParams)
{
    const DisplayGeometry geom = geometry(64, 64, 32.0, 32.0);
    IncrementalEccentricity upd(geom);
    EccentricityMap wrong(geometry(32, 32, 16.0, 16.0));
    EXPECT_THROW(upd.refixate(wrong, 10.0, 10.0),
                 std::invalid_argument);

    IncrementalEccParams bad;
    bad.maxAccumulatedErrorDeg = 0.0;
    EXPECT_THROW(IncrementalEccentricity(geom, bad),
                 std::invalid_argument);
    bad = IncrementalEccParams{};
    bad.maxShiftPx = -1.0;
    EXPECT_THROW(IncrementalEccentricity(geom, bad),
                 std::invalid_argument);
    bad = IncrementalEccParams{};
    bad.exactBandDeg = -0.1;
    EXPECT_THROW(IncrementalEccentricity(geom, bad),
                 std::invalid_argument);
}

TEST(IncrementalEcc, NonFiniteFixationIsRejectedAndChangesNothing)
{
    const DisplayGeometry geom = geometry(96, 80, 48.0, 40.0);
    IncrementalEccParams params;
    params.maxAccumulatedErrorDeg = 1000.0;  // keep the shift path
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);
    upd.refixate(map, 50.0, 41.0);  // one shift step: a nonzero bound
    const std::vector<double> before(
        map.data(), map.data() + static_cast<std::size_t>(96 * 80));
    const double bound = upd.accumulatedErrorBoundDeg();
    ASSERT_GT(bound, 0.0);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<double, double> bad[] = {
        {nan, 41.0}, {50.0, nan}, {inf, 41.0}, {50.0, -inf}, {-inf, inf}};
    for (const auto &[x, y] : bad) {
        EXPECT_THROW(upd.refixate(map, x, y), std::invalid_argument);
        EXPECT_THROW(upd.rebuildAt(map, x, y), std::invalid_argument);
        EXPECT_EQ(std::memcmp(map.data(), before.data(),
                              before.size() * sizeof(double)),
                  0)
            << "(" << x << "," << y << ")";
        EXPECT_EQ(map.fixationX(), 50.0);
        EXPECT_EQ(map.fixationY(), 41.0);
        EXPECT_EQ(upd.accumulatedErrorBoundDeg(), bound);
    }

    // The next real move still meets the contract from the kept state.
    RefixStats st;
    upd.refixate(map, 53.0, 43.0, &st);
    EXPECT_FALSE(st.fullRebuild);
    expectContract(map, freshMap(geom, 53.0, 43.0), st, params,
                   "after rejected fixations");
}

/** Everything update() may change, compared field by field. */
void
expectSameGazeState(const GazeTrackedEccentricity &a,
                    const GazeTrackedEccentricity &b,
                    const std::string &what)
{
    const EccentricityMap &ma = a.map();
    const EccentricityMap &mb = b.map();
    ASSERT_EQ(ma.width(), mb.width());
    ASSERT_EQ(ma.height(), mb.height());
    EXPECT_EQ(std::memcmp(ma.data(), mb.data(),
                          static_cast<std::size_t>(ma.width()) *
                              ma.height() * sizeof(double)),
              0)
        << what;
    EXPECT_EQ(ma.fixationX(), mb.fixationX()) << what;
    EXPECT_EQ(ma.fixationY(), mb.fixationY()) << what;
    EXPECT_EQ(a.updater().accumulatedErrorBoundDeg(),
              b.updater().accumulatedErrorBoundDeg())
        << what;
    EXPECT_EQ(a.phase(), b.phase()) << what;
    EXPECT_EQ(a.refixations(), b.refixations()) << what;
    EXPECT_EQ(a.fullRebuilds(), b.fullRebuilds()) << what;
    EXPECT_EQ(a.deferredUpdates(), b.deferredUpdates()) << what;
    EXPECT_TRUE(a.verifyState()) << what;
}

TEST(GazeTrackedEcc, NonFiniteSampleIsRejectedAndChangesNothing)
{
    const DisplayGeometry geom = geometry(96, 80, 48.0, 40.0);
    // 1 s spacing keeps pixel moves in fixation range on this tiny
    // display; sample 4 jumps 28 px in 4 ms (a saccade) — a classifier
    // that had recorded a bad predecessor would miss it.
    const GazeSample trace[] = {{0.0, 48.0, 40.0},   {1.0, 49.0, 40.5},
                                {2.0, 47.5, 41.0},   {3.0, 50.0, 39.0},
                                {3.004, 70.0, 60.0}, {4.0, 71.0, 60.0},
                                {5.0, 72.0, 61.0}};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const GazeSample bad[] = {{nan, 50.0, 40.0}, {inf, 50.0, 40.0},
                              {-inf, 50.0, 40.0}, {3.5, nan, 40.0},
                              {3.5, inf, 40.0},  {3.5, 50.0, nan},
                              {3.5, 50.0, -inf}};

    GazeTrackedEccentricity clean(geom);
    GazeTrackedEccentricity probed(geom);
    clean.sealState();
    probed.sealState();
    for (std::size_t i = 0; i < std::size(trace); ++i) {
        for (const GazeSample &b : bad) {
            RefixStats st;
            st.recomputedPixels = 12345;
            EXPECT_THROW(probed.update(b, &st), std::invalid_argument);
            EXPECT_EQ(st.recomputedPixels, 12345u);
            expectSameGazeState(probed, clean,
                                "bad sample before " + std::to_string(i));
        }
        EXPECT_EQ(probed.update(trace[i]), clean.update(trace[i]));
        expectSameGazeState(probed, clean,
                            "sample " + std::to_string(i));
        EXPECT_EQ(clean.phase(), i == 4 ? GazePhase::Saccade
                                        : GazePhase::Fixation)
            << "sample " << i;
    }
}

TEST(IncrementalEcc, RebuildReusesStorageAndMatchesConstructor)
{
    DisplayGeometry g = geometry(80, 60, 40.0, 30.0);
    EccentricityMap map(g);
    const double *storage = map.data();
    g.fixationX = 11.0;
    g.fixationY = 52.0;
    map.rebuild(g);
    EXPECT_EQ(map.data(), storage);
    const EccentricityMap fresh(g);
    for (int y = 0; y < map.height(); ++y)
        for (int x = 0; x < map.width(); ++x)
            ASSERT_EQ(map.at(x, y), fresh.at(x, y));
}

} // namespace
} // namespace pce

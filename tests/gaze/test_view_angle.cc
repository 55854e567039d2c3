/**
 * @file
 * One view-angle formula: EccentricityMap builds (the hoisted row
 * kernel DisplayGeometry::eccentricityRow), eccentricityDeg and the
 * I-VT gaze velocity must equal, bit for bit, the per-pixel formula
 * the library used before the row kernel existed. That formula is
 * kept here, verbatim, as the reference: focal length, gaze ray and
 * both norms recomputed for every pixel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/vec3.hh"
#include "gaze/gaze_trace.hh"
#include "perception/display.hh"

namespace pce {
namespace {

/** The angle between the view rays through (x0, y0) and (x1, y1). */
double
referenceAngleDeg(const DisplayGeometry &geom, double x0, double y0,
                  double x1, double y1)
{
    const double half_fov_rad = geom.horizontalFovDeg * M_PI / 180.0 / 2.0;
    const double f = (geom.width / 2.0) / std::tan(half_fov_rad);
    const Vec3 a(x0 - geom.width / 2.0, y0 - geom.height / 2.0, f);
    const Vec3 b(x1 - geom.width / 2.0, y1 - geom.height / 2.0, f);
    const double cosang =
        std::clamp(a.dot(b) / (a.norm() * b.norm()), -1.0, 1.0);
    return std::acos(cosang) * 180.0 / M_PI;
}

std::vector<double>
referenceMap(const DisplayGeometry &geom)
{
    std::vector<double> ecc(static_cast<std::size_t>(geom.width) *
                            geom.height);
    for (int y = 0; y < geom.height; ++y)
        for (int x = 0; x < geom.width; ++x)
            ecc[static_cast<std::size_t>(y) * geom.width + x] =
                referenceAngleDeg(geom, geom.fixationX, geom.fixationY,
                                  x, y);
    return ecc;
}

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

/** Centre, fractional positions and the four corners of a w x h
 *  display. */
std::vector<std::pair<double, double>>
fixations(int w, int h)
{
    return {{w / 2.0, h / 2.0},
            {w * 0.3 + 0.37, h * 0.71 + 0.5},
            {w * 0.83 + 0.25, h * 0.12 + 0.875},
            {0.0, 0.0},
            {w - 1.0, 0.0},
            {0.0, h - 1.0},
            {w - 1.0, h - 1.0}};
}

void
expectMapsMatchReference(int w, int h)
{
    for (const auto &[fx, fy] : fixations(w, h)) {
        const DisplayGeometry geom = geometry(w, h, fx, fy);
        const std::vector<double> ref = referenceMap(geom);
        const std::string what = std::to_string(w) + "x" +
                                 std::to_string(h) + " at (" +
                                 std::to_string(fx) + "," +
                                 std::to_string(fy) + ")";

        const EccentricityMap map(geom);
        EXPECT_EQ(std::memcmp(map.data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0)
            << what;

        // A same-size rebuild from another fixation lands on the
        // same bytes.
        EccentricityMap rebuilt(geometry(w, h, w / 3.0, h / 4.0));
        rebuilt.rebuild(geom);
        EXPECT_EQ(std::memcmp(rebuilt.data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0)
            << what << " rebuild";
    }
}

TEST(ViewAngle, MapMatchesPerPixelFormulaAt256)
{
    expectMapsMatchReference(256, 256);
}

TEST(ViewAngle, MapMatchesPerPixelFormulaAtOddNonSquare)
{
    expectMapsMatchReference(129, 77);
}

TEST(ViewAngle, MapMatchesPerPixelFormulaAtHmdResolution)
{
    // The paper's per-eye resolution; centre and one fractional
    // fixation keep the suite fast under the sanitizers.
    const int w = 1832, h = 1920;
    for (const auto &[fx, fy] :
         {std::pair{w / 2.0, h / 2.0}, std::pair{611.37, 1403.5}}) {
        const DisplayGeometry geom = geometry(w, h, fx, fy);
        const std::vector<double> ref = referenceMap(geom);
        const EccentricityMap map(geom);
        EXPECT_EQ(std::memcmp(map.data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0)
            << "fixation (" << fx << "," << fy << ")";
    }
}

TEST(ViewAngle, RowSpansAndSinglePixelsMatchReference)
{
    const DisplayGeometry geom = geometry(129, 77, 40.25, 61.5);
    std::vector<double> row(130);  // one guard value past the widest span
    for (int y : {0, 38, 61, 76}) {
        for (const auto &[x0, x1] :
             {std::pair{0, 129}, std::pair{17, 18}, std::pair{33, 101},
              std::pair{128, 129}, std::pair{50, 50}}) {
            std::fill(row.begin(), row.end(), -1.0);
            geom.eccentricityRow(y, x0, x1, row.data());
            for (int x = x0; x < x1; ++x) {
                const double ref = referenceAngleDeg(
                    geom, geom.fixationX, geom.fixationY, x, y);
                EXPECT_EQ(row[static_cast<std::size_t>(x - x0)], ref)
                    << "(" << x << "," << y << ")";
                EXPECT_EQ(geom.eccentricityDeg(x, y), ref);
            }
            // Nothing past the span is written.
            EXPECT_EQ(row[static_cast<std::size_t>(x1 - x0)], -1.0);
        }
    }
    // Sub-pixel positions (the band bisection's queries) too.
    for (double x : {0.125, 40.25, 77.9, 128.5})
        EXPECT_EQ(geom.eccentricityDeg(x, 12.75),
                  referenceAngleDeg(geom, geom.fixationX,
                                    geom.fixationY, x, 12.75));

    double max_ref = 0.0;
    for (double x : {0.0, 128.0})
        for (double y : {0.0, 76.0})
            max_ref = std::max(max_ref,
                               referenceAngleDeg(geom, geom.fixationX,
                                                 geom.fixationY, x, y));
    EXPECT_EQ(geom.maxEccentricityDeg(), max_ref);
}

TEST(ViewAngle, IvtVelocityIsTheReferenceAngleOverATrace)
{
    const DisplayGeometry geom = geometry(640, 480, 320.0, 240.0);
    Rng rng(29);
    GazeTrace made = saccadeJumpTrace(geom, 2.0, 120.0, 0.2, rng);
    addTrackerNoise(made, 0.7, rng);
    // Replay it the way a recorded trace arrives: through the CSV.
    std::stringstream csv;
    saveGazeTraceCsv(made, csv);
    const GazeTrace trace = loadGazeTraceCsv(csv);
    ASSERT_EQ(trace.samples, made.samples);

    IVTClassifier ivt(geom);
    std::size_t saccades = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const GazeSample &s = trace.samples[i];
        const GazePhase phase = ivt.update(s);
        double ref = 0.0;
        if (i > 0) {
            const GazeSample &p = trace.samples[i - 1];
            ref = referenceAngleDeg(geom, p.x, p.y, s.x, s.y) /
                  (s.timeSeconds - p.timeSeconds);
        }
        EXPECT_EQ(ivt.lastVelocityDegPerSec(), ref) << "sample " << i;
        EXPECT_EQ(phase, ref > kSaccadeVelocityDegPerSec
                             ? GazePhase::Saccade
                             : GazePhase::Fixation);
        saccades += phase == GazePhase::Saccade;
    }
    EXPECT_GT(saccades, 0u);  // the trace exercises both phases
    EXPECT_LT(saccades, trace.size() / 2);
}

} // namespace
} // namespace pce

#include "gaze/incremental_ecc.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/integrity.hh"

namespace pce {

IncrementalEccentricity::IncrementalEccentricity(
    const DisplayGeometry &geom, const IncrementalEccParams &params)
    : geom_(geom), params_(params)
{
    if (geom_.width < 1 || geom_.height < 1)
        throw std::invalid_argument(
            "IncrementalEccentricity: empty display");
    if (!(params_.maxShiftPx >= 0.0))
        throw std::invalid_argument(
            "IncrementalEccentricity: maxShiftPx < 0");
    if (!(params_.maxAccumulatedErrorDeg > 0.0))
        throw std::invalid_argument(
            "IncrementalEccentricity: maxAccumulatedErrorDeg <= 0");
    if (!(params_.exactBandDeg >= 0.0))
        throw std::invalid_argument(
            "IncrementalEccentricity: exactBandDeg < 0");
}

double
IncrementalEccentricity::shiftErrorBoundDeg(const DisplayGeometry &geom,
                                            double dx, double dy)
{
    // Spherical triangle inequality: the shifted lookup differs from
    // the exact value by at most the angular motion of the fixation
    // ray plus that of the pixel ray. A plane point moving s pixels
    // rotates its view ray by at most s / focal radians (the direction
    // Jacobian's singular values are f/(r^2+f^2) and 1/sqrt(r^2+f^2),
    // both <= 1/f), so: bound = (|delta| + |rounded delta|) / f.
    const double f = geom.focalPixels();
    const double d = std::hypot(dx, dy);
    const double di = std::hypot(static_cast<double>(std::lround(dx)),
                                 static_cast<double>(std::lround(dy)));
    return (d + di) / f * 180.0 / M_PI;
}

double
IncrementalEccentricity::exactBandRadiusPx(const DisplayGeometry &at) const
{
    const double band = params_.exactBandDeg;
    if (band <= 0.0)
        return 0.0;
    double ux = at.fixationX - at.width / 2.0;
    double uy = at.fixationY - at.height / 2.0;
    const double n = std::hypot(ux, uy);
    if (n < 1e-12) {
        ux = 1.0;  // centered fixation: the band is a circle
        uy = 0.0;
    } else {
        ux /= n;
        uy /= n;
    }

    // The iso-eccentricity contour {ecc == band} is the conic of a
    // cone (half-angle band) around the fixation ray with the display
    // plane; the fixation sits on its major axis, which lies along the
    // radial line through the display center. The farthest contour
    // point from the fixation is therefore one of the two crossings of
    // that line, each found by bisection (eccentricity is monotone
    // along any ray leaving the fixation).
    const double t_max = std::hypot(at.width, at.height);
    double radius = 0.0;
    for (double s : {1.0, -1.0}) {
        const auto ecc_at = [&](double t) {
            return at.eccentricityDeg(at.fixationX + s * ux * t,
                                      at.fixationY + s * uy * t);
        };
        double t;
        if (ecc_at(t_max) <= band) {
            t = t_max;  // the whole display direction is in-band
        } else {
            double lo = 0.0, hi = t_max;
            while (hi - lo > 1e-6) {
                const double mid = 0.5 * (lo + hi);
                (ecc_at(mid) <= band ? lo : hi) = mid;
            }
            t = hi;
        }
        radius = std::max(radius, t);
    }
    return radius + 1.0;  // one pixel of slack against rounding
}

DisplayGeometry
IncrementalEccentricity::fixatedAt(const EccentricityMap &map, double fix_x,
                                   double fix_y, const char *who) const
{
    if (map.width() != geom_.width || map.height() != geom_.height)
        throw std::invalid_argument(
            std::string(who) +
            ": map does not match the display geometry");
    if (!std::isfinite(fix_x) || !std::isfinite(fix_y))
        throw std::invalid_argument(std::string(who) +
                                    ": non-finite fixation");
    // Tracker glitches land off-display; clamp so the fixation stays
    // a display position (the foveal region is then at the edge).
    DisplayGeometry at = geom_;
    at.fixationX = std::clamp(fix_x, 0.0, geom_.width - 1.0);
    at.fixationY = std::clamp(fix_y, 0.0, geom_.height - 1.0);
    return at;
}

void
IncrementalEccentricity::refixate(EccentricityMap &map, double fix_x,
                                  double fix_y, RefixStats *stats)
{
    const DisplayGeometry at = fixatedAt(
        map, fix_x, fix_y, "IncrementalEccentricity::refixate");
    const int w = at.width;
    const int h = at.height;
    const double cx = at.fixationX;
    const double cy = at.fixationY;

    RefixStats st;
    st.clamped = (cx != fix_x) || (cy != fix_y);

    const double dx = cx - map.fixationX();
    const double dy = cy - map.fixationY();
    const double delta = std::hypot(dx, dy);
    const int dxi = static_cast<int>(std::lround(dx));
    const int dyi = static_cast<int>(std::lround(dy));
    const double step = shiftErrorBoundDeg(at, dx, dy);

    if (delta > params_.maxShiftPx ||
        accumulated_ + step > params_.maxAccumulatedErrorDeg ||
        std::abs(dxi) >= w || std::abs(dyi) >= h) {
        // Fallback: exact full rebuild, reusing the map's storage.
        map.rebuild(at);
        accumulated_ = 0.0;
        st.fullRebuild = true;
        st.recomputedPixels = map.ecc_.size();
        st.exactRect = TileRect{0, 0, w, h};
        if (stats)
            *stats = st;
        return;
    }

    // ---- 1. shift the stored field by the rounded delta ------------
    double *e = map.ecc_.data();
    const auto row = [&](int y) {
        return e + static_cast<std::size_t>(y) * w;
    };
    if (dxi != 0 || dyi != 0) {
        const int dst_x = std::max(0, dxi);
        const int src_x = std::max(0, -dxi);
        const std::size_t count = static_cast<std::size_t>(
            w - std::abs(dxi));
        // Row order follows the shift direction so source rows are
        // read before they are overwritten; same-row moves overlap and
        // rely on memmove semantics.
        if (dyi >= 0) {
            for (int y = h - 1; y >= dyi; --y)
                std::memmove(row(y) + dst_x, row(y - dyi) + src_x,
                             count * sizeof(double));
        } else {
            for (int y = 0; y < h + dyi; ++y)
                std::memmove(row(y) + dst_x, row(y - dyi) + src_x,
                             count * sizeof(double));
        }
        st.shiftedPixels =
            count * static_cast<std::size_t>(h - std::abs(dyi));
    }
    map.geom_ = at;
    accumulated_ += step;
    st.stepErrorBoundDeg = step;
    st.accumulatedErrorBoundDeg = accumulated_;

    // ---- 2. recompute the bands the shift cannot supply ------------
    // Every rect below is non-empty and inside the display: the
    // fallback took any |rounded delta| of a whole side or more.
    const auto recompute = [&](int x0, int y0, int x1, int y1) {
        for (int y = y0; y < y1; ++y)
            at.eccentricityRow(y, x0, x1, row(y) + x0);
        st.recomputedPixels += static_cast<std::size_t>(x1 - x0) *
                               static_cast<std::size_t>(y1 - y0);
    };

    // Incoming border rows/columns (no source under the shift).
    if (dyi > 0)
        recompute(0, 0, w, dyi);
    else if (dyi < 0)
        recompute(0, h + dyi, w, h);
    const int mid_y0 = std::max(0, dyi);
    const int mid_y1 = std::min(h, h + dyi);
    if (dxi > 0)
        recompute(0, mid_y0, dxi, mid_y1);
    else if (dxi < 0)
        recompute(w + dxi, mid_y0, w, mid_y1);

    // The always-exact foveal band around the new fixation.
    const double radius = exactBandRadiusPx(at);
    const int bx0 = std::max(
        0, static_cast<int>(std::floor(cx - radius)));
    const int by0 = std::max(
        0, static_cast<int>(std::floor(cy - radius)));
    const int bx1 = std::min(
        w, static_cast<int>(std::ceil(cx + radius)) + 1);
    const int by1 = std::min(
        h, static_cast<int>(std::ceil(cy + radius)) + 1);
    recompute(bx0, by0, bx1, by1);
    st.exactRect = TileRect{bx0, by0, bx1 - bx0, by1 - by0};

    if (stats)
        *stats = st;
}

void
IncrementalEccentricity::rebuildAt(EccentricityMap &map, double fix_x,
                                   double fix_y)
{
    map.rebuild(fixatedAt(map, fix_x, fix_y,
                          "IncrementalEccentricity::rebuildAt"));
    accumulated_ = 0.0;
}

GazeTrackedEccentricity::GazeTrackedEccentricity(
    const DisplayGeometry &geom, const IncrementalEccParams &params,
    double saccade_velocity_deg_per_sec)
    : map_(geom), updater_(geom, params),
      classifier_(geom, saccade_velocity_deg_per_sec)
{}

GazePhase
GazeTrackedEccentricity::update(const GazeSample &sample,
                                RefixStats *stats)
{
    // The classifier rejects a non-finite sample before the map or
    // any counter here changes.
    phase_ = classifier_.update(sample);
    if (phase_ == GazePhase::Saccade) {
        // Saccadic suppression: the encoder bypasses adjustment for
        // this frame, so the map is not consulted — defer the update
        // until the saccade lands (that landing delta usually takes
        // the full-rebuild fallback).
        ++deferred_;
        if (stats)
            *stats = RefixStats{};
        return phase_;
    }
    updater_.refixate(map_, sample.x, sample.y, &lastRefix_);
    ++refixations_;
    if (lastRefix_.fullRebuild)
        ++fullRebuilds_;
    // Keep an active seal current: the refixate above legitimately
    // rewrote map values, so the checksum must follow it.
    if (seal_.valid)
        sealState();
    if (stats)
        *stats = lastRefix_;
    return phase_;
}

std::uint64_t
GazeTrackedEccentricity::mapHash() const
{
    return hash64(map_.data(),
                  static_cast<std::size_t>(map_.width()) *
                      static_cast<std::size_t>(map_.height()) *
                      sizeof(double));
}

void
GazeTrackedEccentricity::sealState()
{
    seal_.mapHash = mapHash();
    seal_.fixX = map_.fixationX();
    seal_.fixY = map_.fixationY();
    seal_.accumulated = updater_.accumulatedErrorBoundDeg();
    seal_.valid = true;
}

bool
GazeTrackedEccentricity::verifyState() const
{
    if (!seal_.valid)
        return true;
    return mapHash() == seal_.mapHash &&
           map_.fixationX() == seal_.fixX &&
           map_.fixationY() == seal_.fixY &&
           updater_.accumulatedErrorBoundDeg() == seal_.accumulated;
}

bool
GazeTrackedEccentricity::verifyAndRecoverState()
{
    if (verifyState())
        return true;
    // The sealed fixation is the last state known good; an exact
    // rebuild there restores a bit-identical map when the sealed map
    // was itself exact, and an error-bound-free one otherwise.
    updater_.rebuildAt(map_, seal_.fixX, seal_.fixY);
    ++recoveries_;
    sealState();
    return false;
}

} // namespace pce

#include "perception/display.hh"

#include <algorithm>
#include <cmath>

namespace pce {

double
DisplayGeometry::focalPixels() const
{
    const double half_fov_rad = horizontalFovDeg * M_PI / 180.0 / 2.0;
    return (width / 2.0) / std::tan(half_fov_rad);
}

Vec3
DisplayGeometry::viewRay(double x, double y) const
{
    return {x - width / 2.0, y - height / 2.0, focalPixels()};
}

double
DisplayGeometry::eccentricityDeg(double x, double y) const
{
    const Vec3 gaze = viewRay(fixationX, fixationY);
    return viewAngleDeg(gaze, gaze.norm(), viewRay(x, y));
}

void
DisplayGeometry::eccentricityRow(int y, int x0, int x1, double *out) const
{
    const Vec3 gaze = viewRay(fixationX, fixationY);
    const double gaze_norm = gaze.norm();
    Vec3 pix = viewRay(x0, y);
    for (int x = x0; x < x1; ++x) {
        pix.x = x - width / 2.0;
        *out++ = viewAngleDeg(gaze, gaze_norm, pix);
    }
}

double
DisplayGeometry::maxEccentricityDeg() const
{
    double m = 0.0;
    for (double x : {0.0, width - 1.0})
        for (double y : {0.0, height - 1.0})
            m = std::max(m, eccentricityDeg(x, y));
    return m;
}

EccentricityMap::EccentricityMap(const DisplayGeometry &geom)
{
    rebuild(geom);
}

void
EccentricityMap::rebuild(const DisplayGeometry &geom)
{
    geom_ = geom;
    // resize() keeps the capacity (and skips the redundant fill when
    // the size is unchanged): a same-size rebuild — the per-frame
    // re-fixation fallback — never reallocates.
    const auto w = static_cast<std::size_t>(geom.width);
    ecc_.resize(w * geom.height);
    for (int y = 0; y < geom.height; ++y)
        geom.eccentricityRow(y, 0, geom.width, ecc_.data() + y * w);
}

double
EccentricityMap::minInRect(const TileRect &rect) const
{
    const int x1 = rect.x0 + rect.w - 1;
    const int y1 = rect.y0 + rect.h - 1;
    double m = 1e300;

    // Fixation inside (with half-pixel slack): the interior can hold
    // the minimum — scan everything. At most one tile per frame.
    if (geom_.fixationX >= rect.x0 - 0.5 && geom_.fixationX <= x1 + 0.5 &&
        geom_.fixationY >= rect.y0 - 0.5 && geom_.fixationY <= y1 + 0.5) {
        for (int y = rect.y0; y <= y1; ++y)
            for (int x = rect.x0; x <= x1; ++x)
                m = std::min(m, at(x, y));
        return m;
    }

    // Otherwise the minimum lies on the boundary (see header).
    for (int x = rect.x0; x <= x1; ++x) {
        m = std::min(m, at(x, rect.y0));
        m = std::min(m, at(x, y1));
    }
    for (int y = rect.y0; y <= y1; ++y) {
        m = std::min(m, at(rect.x0, y));
        m = std::min(m, at(x1, y));
    }
    return m;
}

double
EccentricityMap::fractionBeyond(double deg) const
{
    if (ecc_.empty())
        return 0.0;
    const auto n = static_cast<double>(
        std::count_if(ecc_.begin(), ecc_.end(),
                      [deg](double e) { return e > deg; }));
    return n / static_cast<double>(ecc_.size());
}

} // namespace pce

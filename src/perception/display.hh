/**
 * @file
 * HMD display geometry: pixel position -> retinal eccentricity.
 *
 * VR displays have a wide field of view (~100 deg, paper Sec. 1); over
 * 90% of pixels land in peripheral vision. This module models a planar
 * per-eye display viewed through the headset optics as a simple pinhole
 * projection: a pixel's eccentricity is the angle between the gaze
 * direction (through the fixation pixel) and the ray through that pixel.
 *
 * Following the paper's methodology (Sec. 5.1), the encoder keeps pixels
 * within the central foveal region unchanged; the cutoff is expressed as
 * an eccentricity in degrees (10 deg FoV => 5 deg eccentricity radius).
 */

#ifndef PCE_PERCEPTION_DISPLAY_HH
#define PCE_PERCEPTION_DISPLAY_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/vec3.hh"
#include "image/image.hh"

namespace pce {

/** Angle (degrees) between view rays @p ref (norm @p ref_norm) and
 *  @p ray: the one statement of the view-angle formula. */
inline double
viewAngleDeg(const Vec3 &ref, double ref_norm, const Vec3 &ray)
{
    const double cosang =
        std::clamp(ref.dot(ray) / (ref_norm * ray.norm()), -1.0, 1.0);
    return std::acos(cosang) * 180.0 / M_PI;
}

/** Per-eye display description. */
struct DisplayGeometry
{
    /** Per-eye resolution in pixels. */
    int width = 1832;
    int height = 1920;

    /** Horizontal field of view of one eye, degrees. */
    double horizontalFovDeg = 100.0;

    /** Fixation (gaze) point in pixel coordinates. */
    double fixationX = 1832 / 2.0;
    double fixationY = 1920 / 2.0;

    /** Focal length in pixels implied by the FoV. */
    double focalPixels() const;

    /** Ray from the eye through display point (x, y). */
    Vec3 viewRay(double x, double y) const;

    /**
     * Eccentricity (degrees) of pixel (x, y) relative to the fixation
     * point: the angle between the two view rays.
     */
    double eccentricityDeg(double x, double y) const;

    /** eccentricityDeg(x, y) of pixels x0 .. x1-1 of row @p y into
     *  out[0 .. x1-x0-1], bit for bit; the focal length, gaze ray, its
     *  norm and the row's y term are computed once per call. */
    void eccentricityRow(int y, int x0, int x1, double *out) const;

    /** Eccentricity of the farthest display corner, degrees. */
    double maxEccentricityDeg() const;
};

/**
 * A precomputed per-pixel eccentricity map for a display geometry.
 * The encoder queries eccentricity per tile; precomputing avoids
 * recomputing acos per pixel per frame when the fixation is static.
 *
 * For eye-tracked streams the fixation moves every frame; rebuild()
 * re-fixates by recomputing everything in place (reusing the storage),
 * and src/gaze's IncrementalEccentricity re-fixates for small gaze
 * deltas at a fraction of that cost (shift + exact band recompute,
 * with a documented error bound).
 */
class EccentricityMap
{
  public:
    explicit EccentricityMap(const DisplayGeometry &geom);

    /**
     * Recompute the whole map for @p geom, reusing the existing
     * storage when the dimensions are unchanged (the allocation-free
     * full-rebuild path of a re-fixating stream).
     */
    void rebuild(const DisplayGeometry &geom);

    int width() const { return geom_.width; }
    int height() const { return geom_.height; }

    /** Fixation the map is currently built for, pixel coordinates. */
    double fixationX() const { return geom_.fixationX; }
    double fixationY() const { return geom_.fixationY; }

    double at(int x, int y) const
    { return ecc_[static_cast<std::size_t>(y) * geom_.width + x]; }

    /** Row-major raw values (width*height); pointer-pinning tests. */
    const double *data() const { return ecc_.data(); }

    /**
     * Mutable raw values. For the in-place updater's callers and for
     * fault-injection campaigns (src/fault) that flip bits in the live
     * map; writing through this bypasses the map's fixation bookkeeping,
     * so end with rebuild() (or the gaze layer's checksummed recovery,
     * gaze/incremental_ecc.hh) to restore a consistent state.
     */
    double *data() { return ecc_.data(); }

    /**
     * Minimum eccentricity over a pixel rectangle. Eccentricity grows
     * monotonically along any pixel-space ray leaving the fixation
     * point (the directions to points on a display line through the
     * fixation pixel sweep a great circle starting at the gaze ray), so
     * the minimum over a rectangle lies on its boundary whenever the
     * fixation is outside it. The encoder's foveal-bypass test therefore
     * costs O(tile border) instead of O(tile) — the map is only scanned
     * in full for the one tile containing the fixation.
     */
    double minInRect(const TileRect &rect) const;

    /** Fraction of pixels with eccentricity above @p deg. */
    double fractionBeyond(double deg) const;

  private:
    /** The in-place re-fixation updater (src/gaze) writes ecc_ and the
     *  fixation, whose one record is the map; its exactness contract
     *  is tested against rebuild(). */
    friend class IncrementalEccentricity;

    DisplayGeometry geom_;  ///< the geometry the values are built for
    std::vector<double> ecc_;
};

} // namespace pce

#endif // PCE_PERCEPTION_DISPLAY_HH

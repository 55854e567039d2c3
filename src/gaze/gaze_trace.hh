/**
 * @file
 * Eye-tracked gaze traces: samples, I-VT classification, generators.
 *
 * The paper's premise is that color-discrimination thresholds widen
 * with retinal eccentricity; the encoder therefore needs to know where
 * the user is looking *this frame*. A real deployment feeds the
 * encoder from an eye tracker delivering timestamped gaze positions at
 * (or above) the display refresh rate. This module models that input:
 *
 *  - GazeSample / GazeTrace: timestamped gaze positions in pixel
 *    coordinates of one eye's display.
 *  - I-VT classification (velocity-threshold identification, the
 *    standard fixation/saccade segmentation): samples whose angular
 *    gaze velocity exceeds a threshold are saccades. During a saccade
 *    the visual system suppresses perception ("saccadic suppression"),
 *    which the encoder exploits by dropping the per-tile adjustment
 *    work for those frames (core/pipeline.hh, encodeFrameGazeInto).
 *  - Synthetic trace generators (smooth pursuit, saccade jumps,
 *    tracker noise) for benches/tests, and CSV loading for replaying
 *    recorded traces.
 *
 * Angular velocity between two gaze positions is the angle between their
 * view rays (viewAngleDeg, perception/display.hh), divided by the sample
 * interval.
 */

#ifndef PCE_GAZE_GAZE_TRACE_HH
#define PCE_GAZE_GAZE_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "perception/display.hh"

namespace pce {

/** One eye-tracker sample, pixel coordinates on the eye's display. */
struct GazeSample
{
    double timeSeconds = 0.0;
    double x = 0.0;
    double y = 0.0;

    bool operator==(const GazeSample &) const = default;
};

/** Per-sample I-VT label. */
enum class GazePhase
{
    Fixation,  ///< gaze velocity below the saccade threshold
    Saccade,   ///< gaze velocity above it (perception suppressed)
};

/**
 * Default I-VT saccade velocity threshold, degrees of visual angle
 * per second. Classic I-VT thresholds sit between 30 and 100 deg/s;
 * smooth pursuit tops out near 30 deg/s, saccades peak in the
 * hundreds, so the band between is all safe.
 */
inline constexpr double kSaccadeVelocityDegPerSec = 70.0;

/**
 * Streaming I-VT classifier: feed samples in time order, get the phase
 * of each. The first sample (and any non-monotonic timestamp) is a
 * Fixation — with no valid interval there is no velocity estimate, and
 * Fixation is the conservative label (the encoder does full-quality
 * work for it).
 */
class IVTClassifier
{
  public:
    explicit IVTClassifier(
        const DisplayGeometry &geom,
        double saccade_velocity_deg_per_sec = kSaccadeVelocityDegPerSec);

    /**
     * Classify the next sample; also records it as the predecessor.
     * Throws std::invalid_argument on a non-finite time, x or y,
     * before any state changes.
     */
    GazePhase update(const GazeSample &sample);

    /** Velocity (deg/s) computed for the last update; 0 for first. */
    double lastVelocityDegPerSec() const { return lastVelocity_; }

    /** Forget the predecessor (next sample classifies as Fixation). */
    void reset();

  private:
    DisplayGeometry geom_;
    double threshold_;
    bool havePrev_ = false;
    GazeSample prev_{};
    double lastVelocity_ = 0.0;
};

/** A time-ordered gaze recording. */
struct GazeTrace
{
    std::vector<GazeSample> samples;

    bool empty() const { return samples.empty(); }
    std::size_t size() const { return samples.size(); }
};

/**
 * Classify every sample of @p trace with I-VT (one streaming pass).
 * Returns one phase per sample; throws std::invalid_argument on a
 * non-finite sample, as IVTClassifier::update does.
 */
std::vector<GazePhase> classifyIVT(
    const GazeTrace &trace, const DisplayGeometry &geom,
    double saccade_velocity_deg_per_sec = kSaccadeVelocityDegPerSec);

/**
 * Smooth pursuit: gaze tracks a target circling the point
 * (@p center_x, @p center_y) at @p radius_px pixels, completing a lap
 * every @p period_seconds, sampled at @p sample_hz for
 * @p duration_seconds. Peak angular velocity is 2*pi*radius/period
 * pixels/s through the display geometry — keep it under the I-VT
 * threshold for an all-fixation trace.
 */
GazeTrace smoothPursuitTrace(double duration_seconds, double sample_hz,
                             double center_x, double center_y,
                             double radius_px, double period_seconds);

/**
 * Saccade jumps: gaze dwells on a uniformly drawn point inside the
 * central @p extent_fraction of the display for an exponentially
 * distributed time (mean @p mean_fixation_seconds), then jumps there
 * in one sample interval — the velocity spike I-VT flags. Deterministic
 * for a given @p rng state.
 */
GazeTrace saccadeJumpTrace(const DisplayGeometry &geom,
                           double duration_seconds, double sample_hz,
                           double mean_fixation_seconds, Rng &rng,
                           double extent_fraction = 0.8);

/**
 * Add zero-mean Gaussian tracker noise (@p sigma_px per axis) to every
 * sample in place — the jitter a real eye tracker superimposes on
 * fixations, which the incremental re-fixation path must absorb
 * without rebuilding.
 */
void addTrackerNoise(GazeTrace &trace, double sigma_px, Rng &rng);

/**
 * Parse a gaze trace from CSV: one `time,x,y` row per sample (seconds,
 * pixels, pixels). Blank lines and `#` comments are skipped, and a
 * leading non-numeric header row is allowed. Timestamps must be
 * strictly increasing. Throws std::runtime_error on malformed input.
 */
GazeTrace loadGazeTraceCsv(std::istream &in);
GazeTrace loadGazeTraceCsv(const std::string &path);

/** Write @p trace as the CSV understood by loadGazeTraceCsv. */
void saveGazeTraceCsv(const GazeTrace &trace, std::ostream &out);

} // namespace pce

#endif // PCE_GAZE_GAZE_TRACE_HH

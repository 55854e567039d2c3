/**
 * @file
 * Incremental eccentricity re-fixation for eye-tracked streams.
 *
 * A static-fixation stream builds one EccentricityMap and reuses it
 * forever; an eye-tracked stream re-fixates every frame, and a full
 * per-pixel rebuild (the view-angle formula at every pixel) per frame is the
 * dominant per-frame cost before any pixel is encoded. The insight —
 * the same one application-specific datapaths exploit — is that a gaze
 * delta changes the map *almost* by a translation: the eccentricity
 * field is centered on the fixation, so shifting the stored values by
 * the (rounded) gaze delta reproduces the new field up to perspective
 * distortion. IncrementalEccentricity therefore re-fixates in place:
 *
 *  1. **Shift** the map by the rounded pixel delta (row-wise memmove —
 *     no per-pixel math, no allocation).
 *  2. **Recompute exactly** the bands the shift cannot supply: the
 *     incoming border rows/columns (no source values) and the *foveal
 *     band* — every pixel whose true eccentricity is at most
 *     IncrementalEccParams::exactBandDeg (a clamped square around the
 *     new fixation covering that iso-eccentricity ellipse).
 *  3. **Fall back** to a full in-place rebuild when the delta exceeds
 *     maxShiftPx or the accumulated error bound exceeds
 *     maxAccumulatedErrorDeg.
 *
 * ## Exactness contract
 *
 * After refixate() the map satisfies, versus a fresh
 * EccentricityMap(geom) build at the new fixation:
 *
 *  - Recomputed pixels (incoming bands, foveal band, or everything on
 *    the fallback path) are **bit-identical** to the fresh build: both
 *    run the same row kernel, DisplayGeometry::eccentricityRow.
 *  - Every other (shifted) pixel differs by at most the *accumulated*
 *    error bound: each step contributes no more than
 *    shiftErrorBoundDeg() = (|delta| + |rounded delta|) / focal
 *    (radians, reported in degrees) — a rigorous bound from the
 *    spherical triangle inequality plus the fact that a view ray
 *    through a display plane at focal distance f rotates at most 1/f
 *    radians per pixel of plane motion. Bounds add across incremental
 *    steps and reset to zero on every full rebuild. In practice the
 *    observed error is ~3-4x below the bound and concentrated in the
 *    far periphery, where discrimination thresholds are flattest.
 *  - **No false foveal bypass**: provided exactBandDeg >=
 *    fovealCutoffDeg + maxAccumulatedErrorDeg, any pixel whose true
 *    eccentricity is below the encoder's foveal cutoff lies inside the
 *    always-exact band, so a tile the encoder would adjust on a fresh
 *    map is never bypassed on the incremental one (the reverse —
 *    adjusting a tile that could have been bypassed — costs work, not
 *    quality). core/pipeline.hh enforces this inequality at its gaze
 *    entry point.
 *
 * Steady-state re-fixation is allocation-free: the shift is in place,
 * the recompute writes in place, and the fallback rebuild reuses the
 * map's storage (EccentricityMap::rebuild).
 */

#ifndef PCE_GAZE_INCREMENTAL_ECC_HH
#define PCE_GAZE_INCREMENTAL_ECC_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "gaze/gaze_trace.hh"
#include "image/image.hh"
#include "perception/display.hh"

namespace pce {

/** Tuning of the incremental/fallback trade-off. */
struct IncrementalEccParams
{
    /**
     * Gaze deltas (pixels, Euclidean) above this re-fixate by full
     * rebuild. Saccade landings typically exceed it; fixation jitter
     * and smooth pursuit stay under it.
     */
    double maxShiftPx = 16.0;
    /**
     * Accumulated shift-error bound (degrees) that forces a rebuild.
     * Between rebuilds, per-step bounds (shiftErrorBoundDeg) add up;
     * crossing this cap resets the map to exact.
     */
    double maxAccumulatedErrorDeg = 6.0;
    /**
     * Pixels whose true eccentricity is at most this many degrees are
     * recomputed exactly after every shift. Must be at least the
     * encoder's foveal cutoff plus maxAccumulatedErrorDeg for the
     * no-false-bypass guarantee (defaults: 12 >= 5 + 6).
     */
    double exactBandDeg = 12.0;
};

/** What one refixate() call did (diagnostics and tests). */
struct RefixStats
{
    /** Fallback path: the whole map was rebuilt exactly. */
    bool fullRebuild = false;
    /** The requested fixation was clamped into the display. */
    bool clamped = false;
    /** Pixels moved by the shift (zero on the fallback path). */
    std::size_t shiftedPixels = 0;
    /** Pixels recomputed exactly (bands, or everything on fallback). */
    std::size_t recomputedPixels = 0;
    /** This step's shift error bound, degrees (0 when exact). */
    double stepErrorBoundDeg = 0.0;
    /** Accumulated bound since the last full rebuild, degrees. */
    double accumulatedErrorBoundDeg = 0.0;
    /** The always-exact clamped square around the new fixation. */
    TileRect exactRect{};
};

/**
 * In-place re-fixation of one EccentricityMap (see file comment for
 * the algorithm and contract). One updater drives one map: it tracks
 * the error bound accumulated in that map since its last exact state.
 * Not thread-safe; a per-stream owner (service slot, frame loop) calls
 * it from one thread at a time.
 */
class IncrementalEccentricity
{
  public:
    /**
     * @param geom Display geometry of the map (its fixation fields are
     *        ignored; the map carries the current fixation).
     * @param params Validated here; throws std::invalid_argument.
     */
    explicit IncrementalEccentricity(
        const DisplayGeometry &geom,
        const IncrementalEccParams &params = {});

    /**
     * Re-fixate @p map in place to (@p fix_x, @p fix_y), clamped into
     * the display. The map must match the constructor geometry's
     * dimensions and the fixation must be finite (throws
     * std::invalid_argument otherwise, leaving map and bound as they
     * were). Allocation-free in the steady state.
     */
    void refixate(EccentricityMap &map, double fix_x, double fix_y,
                  RefixStats *stats = nullptr);

    /**
     * Exact full rebuild of @p map at (@p fix_x, @p fix_y), clamped
     * into the display, resetting the accumulated error bound — the
     * fallback path of refixate() exposed directly. This is the
     * integrity-recovery primitive: a map whose checksum no longer
     * matches (a bit flip, or writes through EccentricityMap::data())
     * is restored to a known-exact state at the given fixation.
     */
    void rebuildAt(EccentricityMap &map, double fix_x, double fix_y);

    /**
     * Rigorous per-step error bound (degrees) of re-fixating by shift
     * for the given gaze delta: (|delta| + |rounded delta|) / focal
     * radians. Recomputed bands are exact regardless.
     */
    static double shiftErrorBoundDeg(const DisplayGeometry &geom,
                                     double dx, double dy);

    /** Accumulated bound (degrees) since the driven map was exact. */
    double accumulatedErrorBoundDeg() const { return accumulated_; }

    const IncrementalEccParams &params() const { return params_; }

  private:
    /** geom_ fixated at (@p fix_x, @p fix_y) clamped into the display;
     *  std::invalid_argument (naming @p who) when @p map's size differs
     *  or the fixation is not finite. */
    DisplayGeometry fixatedAt(const EccentricityMap &map, double fix_x,
                              double fix_y, const char *who) const;

    /**
     * Half-width (pixels) of the clamped square around @p at's fixation
     * that covers every pixel with eccentricity <= exactBandDeg.
     */
    double exactBandRadiusPx(const DisplayGeometry &at) const;

    /** Size and FoV; the map is the one record of its fixation. */
    const DisplayGeometry geom_;
    IncrementalEccParams params_;
    double accumulated_ = 0.0;
};

/**
 * Per-stream gaze state: an owned EccentricityMap, its incremental
 * updater, and a streaming I-VT classifier. update() classifies one
 * gaze sample and re-fixates the map for it — except during saccades,
 * where perception is suppressed and the encoder bypasses adjustment
 * anyway, so the map update is deferred until the saccade lands (the
 * landing delta usually takes the documented full-rebuild fallback;
 * the deferral saves the per-saccade-frame updates entirely).
 *
 * This is the state the encode service keeps per gaze stream so
 * concurrent streams re-fixate independently; a single-stream frame
 * loop uses it directly with PerceptualEncoder::encodeFrameGazeInto.
 */
class GazeTrackedEccentricity
{
  public:
    explicit GazeTrackedEccentricity(
        const DisplayGeometry &geom,
        const IncrementalEccParams &params = {},
        double saccade_velocity_deg_per_sec =
            kSaccadeVelocityDegPerSec);

    /**
     * Classify @p sample and bring the map up to date for it (unless
     * the sample is mid-saccade, see above). Returns the phase. Throws
     * std::invalid_argument on a non-finite time, x or y (from
     * IVTClassifier::update), before the classifier or the map
     * changes.
     */
    GazePhase update(const GazeSample &sample,
                     RefixStats *stats = nullptr);

    const EccentricityMap &map() const { return map_; }
    const IncrementalEccentricity &updater() const { return updater_; }

    /**
     * Mutable map access, for fault-injection campaigns (src/fault)
     * that flip bits in the live state. Writes through this are
     * exactly what the seal detects; production code re-fixates via
     * update() instead.
     */
    EccentricityMap &mutableMap() { return map_; }

    /** Phase of the last update() sample. */
    GazePhase phase() const { return phase_; }

    /** Stats of the last map-updating refixate (not deferred ones). */
    const RefixStats &lastRefix() const { return lastRefix_; }

    /** update() calls that re-fixated / that fell back to rebuild /
     *  that deferred (mid-saccade), since construction. */
    std::uint64_t refixations() const { return refixations_; }
    std::uint64_t fullRebuilds() const { return fullRebuilds_; }
    std::uint64_t deferredUpdates() const { return deferred_; }

    /**
     * Integrity sealing (docs/FAULTS.md): checksum the map values and
     * the fixation/error-bound bookkeeping. Once sealed, every
     * update() re-seals automatically (the deferred mid-saccade path
     * leaves the map untouched, so its seal stays valid), keeping the
     * seal current across a streaming session at one hash64 of the
     * map per re-fixation.
     */
    void sealState();

    /**
     * Recompute the checksum and compare against the seal. Returns
     * true when never sealed (no evidence either way) or when the
     * state matches; false on any mismatch. Const: no recovery.
     */
    bool verifyState() const;

    /**
     * verifyState(), plus recovery on mismatch: rebuild the map
     * exactly at the *sealed* fixation (IncrementalEccentricity::
     * rebuildAt), count the event, and re-seal. The classifier is
     * deliberately outside the seal — its few scalars are a vanishing
     * SEU cross-section next to the W*H doubles of the map, and a
     * corrupted classifier misroutes at most one frame's phase.
     * Returns true when the state was intact, false when it was
     * recovered (callers may count the detection).
     */
    bool verifyAndRecoverState();

    /** Recoveries performed by verifyAndRecoverState(). */
    std::uint64_t integrityRecoveries() const { return recoveries_; }

    /**
     * Exclusive-use guard for concurrent owners that *hand the state
     * off* between threads rather than share it (the sharded encode
     * service: any dispatcher may encode this stream's next frame
     * after stealing it, but the queue's lane protocol guarantees at
     * most one at a time). tryBeginExclusive() claims the state and
     * returns false if another thread currently holds it — callers
     * treat that as a protocol violation, since this class is not
     * thread-safe and two concurrent users mean corrupted gaze state.
     * The flag carries no data and establishes no ordering of its own;
     * the hand-off's happens-before comes from whatever synchronizes
     * the owners (the service's queue mutex).
     */
    bool tryBeginExclusive()
    { return !inUse_.test_and_set(std::memory_order_acquire); }
    void endExclusive() { inUse_.clear(std::memory_order_release); }

  private:
    /** Checksummed snapshot of the sealable state. */
    struct StateSeal
    {
        std::uint64_t mapHash = 0;
        double fixX = 0.0;
        double fixY = 0.0;
        double accumulated = 0.0;
        bool valid = false;
    };

    std::uint64_t mapHash() const;

    EccentricityMap map_;
    IncrementalEccentricity updater_;
    IVTClassifier classifier_;
    GazePhase phase_ = GazePhase::Fixation;
    RefixStats lastRefix_{};
    std::uint64_t refixations_ = 0;
    std::uint64_t fullRebuilds_ = 0;
    std::uint64_t deferred_ = 0;
    StateSeal seal_{};
    std::uint64_t recoveries_ = 0;
    std::atomic_flag inUse_ = ATOMIC_FLAG_INIT;
};

} // namespace pce

#endif // PCE_GAZE_INCREMENTAL_ECC_HH

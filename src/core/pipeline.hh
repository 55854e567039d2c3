/**
 * @file
 * Frame-level perceptual encoding pipeline (paper Fig. 7).
 *
 * From Rendering Pipeline -> [Color Adjustment (this module)] ->
 * Transform to sRGB -> Base+Delta compression -> DRAM.
 *
 * Per tile, the encoder queries per-pixel eccentricities, bypasses tiles
 * inside the foveal cutoff (Sec. 5.1 keeps the central 10-degree FoV,
 * i.e. eccentricity < 5 degrees, unchanged), runs the TileAdjuster on
 * the rest, and hands the adjusted sRGB tile and its BD stats straight
 * to the unmodified BD codec, as the CAU does (Fig. 7).
 * Decoding is plain BD decoding — the algorithm requires no decoder
 * change (Sec. 3.4, "Remarks on Decoding").
 */

#ifndef PCE_CORE_PIPELINE_HH
#define PCE_CORE_PIPELINE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/thread_pool.hh"
#include "core/adjust.hh"
#include "gaze/incremental_ecc.hh"
#include "image/image.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"

namespace pce {

/** Pipeline configuration. */
struct PipelineParams
{
    /** BD tile edge (paper default 4; Sec. 6.4 sweeps 4..16). */
    int tileSize = 4;
    /** Eccentricity below which tiles are left untouched, degrees. */
    double fovealCutoffDeg = 5.0;
    /**
     * Parallel participants for the tile loop and the BD passes
     * (1 = serial). Above 1 the encoder spawns and owns a persistent
     * pool of threads-1 workers.
     */
    int threads = 1;
    /** Extrema backend override (empty = double-precision Eq. 11-13). */
    ExtremaFn extremaFn;
};

/** Aggregate statistics of one encoded frame. */
struct PipelineStats
{
    std::size_t totalTiles = 0;
    std::size_t fovealBypassTiles = 0;
    /** Fig. 12: case distribution over adjusted tiles (chosen axis). */
    std::size_t c1Tiles = 0;
    std::size_t c2Tiles = 0;
    /** Axis selection outcome over adjusted tiles. */
    std::size_t redAxisTiles = 0;
    std::size_t blueAxisTiles = 0;
    std::size_t gamutClampedPixels = 0;
    /**
     * Tiles copied through unadjusted because the frame fell in a
     * saccade (saccadic suppression; encodeFrameGazeInto only).
     */
    std::size_t saccadeBypassTiles = 0;

    PipelineStats &operator+=(const PipelineStats &o);
};

/**
 * Integrity seal over an EncodedFrame's two deliverable buffers (see
 * docs/FAULTS.md): CRC-32 of the BD bitstream (guaranteed 1-3 bit
 * flip detection at frame-stream sizes) and hash64 of the adjusted
 * sRGB image (fast enough to run per frame on megabyte buffers).
 * Written by sealFrame() right after encode, checked by
 * verifyFrameSeal() at any later hand-off — the encode service seals
 * in the dispatcher and verifies at collect(), so a bit flip while
 * the frame sat in its slot is detected instead of delivered.
 */
struct FrameSeal
{
    uint32_t bdStreamCrc = 0;
    uint64_t srgbHash = 0;
    bool sealed = false;
};

/**
 * Everything produced for one frame, and only that: the encoder keeps
 * its working storage per calling thread. A frame loop that keeps one
 * EncodedFrame and calls encodeFrameInto reuses its buffers, making
 * the steady state allocation-free. The tile loop writes adjustedSrgb
 * and the BD stats directly; the adjusted linear frame is never
 * materialized (adjustFrameInto produces it on request).
 */
struct EncodedFrame
{
    ImageU8 adjustedSrgb;    ///< adjusted frame, as delivered (sRGB)
    std::vector<uint8_t> bdStream;  ///< BD bitstream of adjustedSrgb
    BdFrameStats bdStats;    ///< bit accounting of the stream
    PipelineStats stats;
    /**
     * Integrity seal over bdStream + adjustedSrgb; invalidated by
     * every encode into this frame, written by sealFrame().
     */
    FrameSeal seal;
};

/**
 * Checksum @p frame's deliverable buffers (BD bitstream + adjusted
 * sRGB) into its seal. Call after the encode that produced them;
 * re-encoding invalidates the seal automatically.
 */
void sealFrame(EncodedFrame &frame);

/**
 * Recompute the seal checksums and compare. Returns false when the
 * frame was never sealed (strict: an unsealed frame offers no
 * integrity evidence) or when either buffer changed since sealing.
 */
bool verifyFrameSeal(const EncodedFrame &frame);

/**
 * The full Fig. 7 encoder.
 *
 * The tile loop is the production hot path and is built for
 * throughput: the calling thread's per-slot simd::TileSoA arenas make
 * the steady state allocation-free, the foveal-bypass test runs on the
 * eccentricity map before any pixel is gathered (O(tile border) per
 * bypassed tile), and only each tile's chosen candidate is quantized,
 * straight into the output rows, its BD stats taken from the code
 * range the tile adjuster already found. With threads > 1 the encoder
 * owns a persistent ThreadPool and schedules tiles dynamically in
 * chunks — foveal tiles are nearly free, so static striding would
 * load-imbalance badly. Output is bit-identical for any thread count
 * (tests assert this).
 *
 * Ownership/reuse: the encoder borrows the DiscriminationModel for
 * its whole lifetime and owns its worker pool; it never takes
 * ownership of frames, eccentricity maps, or EncodedFrame outputs.
 * The `*Into` entry points reuse the caller's output and the calling
 * thread's working storage, resizing only on geometry change — keep
 * one EncodedFrame per frame source and the steady state allocates
 * nothing (this is the contract the encode service's per-stream slots
 * are built on). The encoder is safe to share across threads for
 * concurrent encodes with distinct outputs; one EncodedFrame must not
 * be passed to two concurrent calls.
 */
class PerceptualEncoder
{
  public:
    /**
     * @param model Discrimination model; must outlive the encoder.
     * @param params Pipeline configuration.
     */
    PerceptualEncoder(const DiscriminationModel &model,
                      const PipelineParams &params = {});

    /**
     * Run color adjustment only (no BD encode); the cheap path for
     * perceptual-quality studies.
     */
    ImageF adjustFrame(const ImageF &frame, const EccentricityMap &ecc,
                       PipelineStats *stats_out = nullptr) const;

    /**
     * adjustFrame into a caller-owned output image. @p out is resized
     * only when the frame dimensions change, so a stream of same-size
     * frames reuses one allocation. @p out must not alias @p frame.
     */
    void adjustFrameInto(const ImageF &frame,
                         const EccentricityMap &ecc, ImageF &out,
                         PipelineStats *stats_out = nullptr) const;

    /**
     * Full pipeline: one pass over the tiles adjusts, quantizes and
     * collects the BD stats, then the BD prefix and emit passes run.
     * Byte-identical to adjustFrameInto -> toSrgb8Into ->
     * BdCodec::encodeInto.
     */
    EncodedFrame encodeFrame(const ImageF &frame,
                             const EccentricityMap &ecc) const;

    /**
     * encodeFrame into a caller-owned result, reusing its buffers and
     * the calling thread's working storage: the steady state of an
     * animation/stereo frame loop allocates nothing. encodeFrame is a
     * thin wrapper over this.
     */
    void encodeFrameInto(const ImageF &frame,
                         const EccentricityMap &ecc,
                         EncodedFrame &out) const;

    /**
     * The eye-tracked per-frame entry point: classify @p sample
     * (fixation or saccade) through @p gaze's streaming I-VT
     * classifier, re-fixate its eccentricity map incrementally (see
     * gaze/incremental_ecc.hh for the exactness contract), and encode
     * the frame against it. During a saccade the visual system
     * suppresses perception, so the encoder switches every tile to the
     * cheap bypass path — the frame is quantized and BD-encoded
     * unadjusted (still losslessly decodable), skipping both the
     * per-tile adjustment math and the map update for that frame;
     * PipelineStats::saccadeBypassTiles records it.
     *
     * @p gaze is the caller's per-stream state (one per frame source;
     * the encode service keeps one per gaze stream) and is mutated —
     * feed samples in time order from one thread at a time. Throws
     * std::invalid_argument if the gaze state's exact-band guarantee
     * cannot cover this pipeline's foveal cutoff (exactBandDeg <
     * fovealCutoffDeg + maxAccumulatedErrorDeg), or on a frame/map
     * geometry mismatch. Returns the classified phase.
     */
    GazePhase encodeFrameGazeInto(const ImageF &frame,
                                  GazeTrackedEccentricity &gaze,
                                  const GazeSample &sample,
                                  EncodedFrame &out) const;

    /**
     * Round-trip verify: decode @p frame's BD stream (in parallel on
     * the encoder's pool) into the calling thread's workspace and
     * compare it byte-for-byte against frame.adjustedSrgb — the
     * codec-is-lossless invariant a service can assert per frame at
     * decode cost, allocation-free in the steady state. Returns true
     * when the stream reproduces the encoded image exactly.
     *
     * @throws std::runtime_error if the stream fails the hardened
     *         decode validation (it was corrupted after encode).
     */
    bool verifyRoundTrip(const EncodedFrame &frame) const;

    const PipelineParams &params() const { return params_; }

    /**
     * The encoder's persistent worker pool (threads - 1 workers), or
     * nullptr when serial. Exposed so a caller holding only the encoder
     * (e.g. a decode step of the same frame loop, or the encode
     * service's shard report) can reuse the workers instead of
     * spawning more.
     */
    ThreadPool *pool() const { return pool_.get(); }

  private:
    /**
     * The one frame pass: every tile of @p grid either bypasses —
     * all of them when @p ecc is null (a saccade frame), else those
     * touching the fovea — through bypass(t, rect), or runs the Fig. 7
     * tile flow in a per-slot TileSoA and hands the chosen candidate to
     * adjusted(t, rect, soa, axis). Tiles run on the pool; @p stats_out
     * (optional) gets the frame's totals.
     */
    template <class Bypass, class Adjusted>
    void framePass(const ImageF &frame, const EccentricityMap *ecc,
                   const TileGrid &grid,
                   PipelineStats *stats_out, const Bypass &bypass,
                   const Adjusted &adjusted) const;

    /**
     * framePass writing each tile's sRGB codes into out.adjustedSrgb and
     * its BD pass-1 stats into the workspace's BD scratch (@p ecc null:
     * a saccade frame), then the BD prefix and emit passes.
     */
    void encodePass(const ImageF &frame, const EccentricityMap *ecc,
                    EncodedFrame &out) const;

    const DiscriminationModel &model_;
    PipelineParams params_;
    TileAdjuster adjuster_;
    BdCodec codec_;
    /** Persistent workers (threads - 1); null when serial. */
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace pce

#endif // PCE_CORE_PIPELINE_HH

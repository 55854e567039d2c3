/**
 * @file
 * Multi-stream encode service: the production front of the perceptual
 * encoder.
 *
 * The paper's encoder sits in a live VR pipeline that delivers stereo
 * pairs every frame; a deployment serves many such pipelines at once.
 * This layer changes the unit of work from one encodeFrameInto call to
 * a *stream of buffered requests*: clients open a StreamHandle per
 * logical frame source (one eye of a headset, an animation sequence),
 * submit frames asynchronously, and collect encoded results in
 * submission order.
 *
 * ## Sharded concurrent dispatch
 *
 * Dispatch is sharded: the service runs ServiceParams::shards
 * dispatcher threads, each owning a bounded request ring
 * (common/sharded_queue.hh), a persistent ThreadPool slice of the
 * configured `threads` budget, and a PerceptualEncoder bound to that
 * slice. Streams are hash-assigned to a home shard at open
 * (shardForName), so unrelated streams ride different rings, different
 * condvars, and different encoders — two small-frame streams on
 * different shards encode truly concurrently instead of serializing
 * behind one dispatcher. An idle shard *steals* whole queued requests
 * from the most-loaded other shard, so a skewed stream->shard
 * assignment degrades to shared work, not idle cores.
 *
 * What makes stealing safe is the queue's **lane exclusivity**
 * contract: each stream is one lane, at most one of a lane's requests
 * is ever handed out at a time, and lanes hand out strictly in push
 * order. Per-stream state that a concurrent design must treat as
 * per-slot — the gaze stream's GazeTrackedEccentricity, the
 * frame-reuse slots, the integrity seals — is touched only by the
 * dispatcher currently holding the stream's lane, with the hand-off's
 * happens-before edge provided by the queue mutex (the gaze state
 * additionally carries a tryBeginExclusive guard that turns any lane
 * protocol violation into a loud error instead of silent corruption).
 * In-order hand-out of one-at-a-time lanes means a stream's frames
 * *finish* in submission order too, whichever shards encoded them:
 * FIFO collect is preserved by construction, and results stay
 * byte-identical to direct encodeFrameInto calls for any shard count,
 * thread count, and steal schedule.
 *
 * ## Ownership and reuse contracts
 *
 * - Each stream owns a fixed ring of `streamDepth` slots; a slot holds
 *   a service-owned input copy (ImageF) and a reusable EncodedFrame.
 *   submit() copies the caller's frame into a free slot and returns —
 *   the caller's buffer can be reused or freed immediately. Encoded
 *   results are handed out as FrameLease RAII objects pointing at the
 *   slot's EncodedFrame; the slot returns to the free ring when the
 *   lease is dropped. Because slots, queue storage, stats histograms, and
 *   every EncodedFrame buffer are allocated up front and reused, the
 *   steady state of a same-geometry frame stream allocates nothing
 *   per frame (tests pin the buffer pointers).
 * - The EccentricityMap passed to openStream is borrowed and must
 *   outlive the stream (fixation geometry is per-display and
 *   long-lived; per-frame gaze would rebuild the map anyway).
 * - A FrameLease borrows its slot: the referenced EncodedFrame is
 *   valid and immutable until the lease is destroyed (or release()d),
 *   and must not outlive the service.
 *
 * ## Backpressure
 *
 * Two bounds keep memory proportional to configuration, never to
 * offered load: submit() blocks while all of the stream's slots are in
 * flight (per-stream backpressure, bounded by `streamDepth`), and
 * while the stream's *home shard ring* is full (per-shard
 * backpressure, bounded by ceil(queueCapacity / shards) per shard —
 * the queue's per-shard not-full condvar wakes only that shard's
 * producers, so a backlogged shard never stalls submitters of the
 * others). Producers therefore self-pace to the encode rate.
 *
 * ## Drain and shutdown
 *
 * drain(stream) blocks until everything submitted on the stream has
 * been encoded. shutdown() (also run by the destructor) refuses new
 * submissions, *finishes* every request already queued on every
 * shard, then joins all dispatchers — in-flight work is never
 * dropped, and submitters blocked on any shard's backpressure are
 * woken with an error instead of hanging. Results already encoded
 * remain collectible after shutdown.
 *
 * Results are byte-identical to calling encodeFrameInto directly for
 * the same frames, for any stream count and any thread count (tests
 * assert this): the service adds scheduling, never changes the math.
 */

#ifndef PCE_SERVICE_ENCODE_SERVICE_HH
#define PCE_SERVICE_ENCODE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_queue.hh"
#include "common/thread_pool.hh"
#include "core/pipeline.hh"
#include "gaze/incremental_ecc.hh"
#include "obs/metrics.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"
#include "render/scenes.hh"

namespace pce {

class EncodeService;

namespace detail {

struct StreamState;

/** One queued frame request (internal). */
struct EncodeRequest
{
    StreamState *stream = nullptr;
    int slot = -1;
    std::chrono::steady_clock::time_point submitTime{};
};

} // namespace detail

/** Service configuration. */
struct ServiceParams
{
    /**
     * Total parallel encode participants across the service (1 =
     * every encode serial). The budget is split across shards as
     * evenly as possible (earlier shards get the remainder, every
     * shard at least 1): shard i owns a persistent ThreadPool of
     * participants_i - 1 workers and encodes its frames with
     * participants_i parallel slots. With shards == 1 this is exactly
     * the old single-pool behavior.
     */
    int threads = 1;
    /**
     * Dispatcher shards. Each shard runs its own dispatcher thread,
     * request ring, pool slice, and encoder; streams are hash-homed to
     * a shard and idle shards steal queued requests from loaded ones
     * (see the file comment). 1 reproduces the original
     * single-dispatcher service. More shards buy cross-stream
     * concurrency on multi-core hosts at the cost of splitting the
     * `threads` budget per frame.
     */
    std::size_t shards = 1;
    /** BD tile edge for every stream (paper default 4). */
    int tileSize = 4;
    /** Foveal bypass cutoff, degrees (paper Sec. 5.1). */
    double fovealCutoffDeg = 5.0;
    /**
     * Service-wide bound on queued (accepted, not yet encoding)
     * requests, split across shards: each shard ring holds
     * ceil(queueCapacity / shards) and submit() blocks while the
     * stream's *home* ring is full. ServiceReport::queueCapacity is
     * the effective total (shards * per-shard bound; equal to this
     * value whenever shards divides it).
     */
    std::size_t queueCapacity = 64;
    /**
     * EncodedFrame slots per stream — the per-stream in-flight bound
     * and reuse ring. 2 gives classic double buffering (submit frame
     * N+1 while collecting frame N); must be >= 1. Stereo submission
     * needs >= 2 to pipeline both eyes.
     */
    int streamDepth = 2;
    /**
     * Run PerceptualEncoder::verifyRoundTrip after every encode: the
     * BD stream is decoded back (reusing the slot's round-trip
     * buffers) and compared byte-for-byte against the encoded image —
     * cheap insurance for a service shipping streams to real decoders.
     * Failures (mismatch or a stream that no longer validates) count
     * in StreamStats::corruptFrames; the frame is still delivered.
     */
    bool verifyRoundTrip = false;
    /**
     * Selective integrity hardening (docs/FAULTS.md). When on:
     * submit() checksums the slot's input copy and the dispatcher
     * verifies it before encoding (a flip while the request waited in
     * the queue quarantines the frame instead of encoding garbage);
     * gaze streams verify their checksummed eccentricity state before
     * each encode and recover by exact rebuild on mismatch; every
     * encoded frame is sealed (core/pipeline.hh FrameSeal) and the
     * seal re-verified at collect(), so a corrupt frame is never
     * delivered — collect() throws FrameQuarantined and the stream
     * keeps going. Detections/quarantines count per stream and in the
     * aggregate report; healthy streams are unaffected.
     */
    bool hardenIntegrity = false;
    /**
     * Fault-injection hooks (src/fault campaigns; production leaves
     * them empty). Called by the dispatcher with the stream name and
     * the stream-local frame index: preEncodeFaultHook right after
     * dequeue with the slot's input copy (models a flip while queued,
     * *before* the hardened input-checksum verify), postEncodeFaultHook
     * right after the encode + seal with the slot's output frame
     * (models a flip while the result waits for collect()).
     */
    std::function<void(const std::string &, std::uint64_t, ImageF &)>
        preEncodeFaultHook;
    std::function<void(const std::string &, std::uint64_t,
                       EncodedFrame &)>
        postEncodeFaultHook;
};

/**
 * Thrown by collect() for a frame the hardened service detected as
 * corrupt (input checksum mismatch at dispatch, or seal mismatch at
 * collect). The slot is reclaimed before the throw: the stream stays
 * healthy and later frames collect normally — quarantine drops one
 * frame, never the stream.
 */
class FrameQuarantined : public std::runtime_error
{
  public:
    explicit FrameQuarantined(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Per-stream gaze configuration (openGazeStream). */
struct GazeStreamParams
{
    /** Incremental re-fixation tuning (gaze/incremental_ecc.hh). */
    IncrementalEccParams ecc;
    /** I-VT saccade velocity threshold, deg/s. */
    double saccadeVelocityDegPerSec = kSaccadeVelocityDegPerSec;
};

/**
 * One delivered frame's outcome, reported back into the stream's
 * stats by the delivery tier (DeliverySession in net/delivery.hh via
 * EncodeService::recordDelivery). Plain types only — the service
 * layer stays independent of src/net.
 */
struct DeliverySample
{
    /** The frame ran under an adaptive (RateController) budget. */
    bool adaptiveRate = false;
    /** Congestion budget the frame's rounds spent, bytes per round. */
    std::size_t budgetBytesPerRound = 0;
    /** Controller's loss-rate estimate after the frame (0 when not
     *  adaptive). */
    double estimatedLossRate = 0.0;
    /** Continuous foveal shed radius, degrees (infinity = no shed). */
    double cutoffEccDeg = 0.0;
    /** Wire bytes the delivery spent / shed before transmission. */
    std::size_t bytesSent = 0;
    std::size_t shedBytes = 0;
    /** Foveal region arrived intact from the wire. */
    bool fovealIntact = false;
    /** Frame proven byte-identical end to end (manifest CRC). */
    bool byteIdentical = false;
};

/**
 * Per-stream service statistics (one entry per ServiceReport).
 *
 * Consistency contract: every field of one StreamStats entry is
 * snapshotted atomically under the owning stream's mutex — the same
 * lock dispatchers take to publish results — so an entry is always
 * internally consistent (framesCollected <= framesEncoded <=
 * framesSubmitted, counters match the frames counted). Entries for
 * *different* streams are snapshotted one after another, not at one
 * instant: cross-stream sums can straddle concurrent encodes.
 */
struct StreamStats
{
    std::string name;
    /** Home shard the stream's submissions are queued to. */
    std::size_t shard = 0;
    /** Frames of this stream encoded by a non-home shard's
     *  dispatcher (stolen work; correctness is unaffected). */
    std::uint64_t framesStolen = 0;
    std::uint64_t framesSubmitted = 0;
    std::uint64_t framesEncoded = 0;
    std::uint64_t framesCollected = 0;
    /** Megapixels successfully encoded. */
    double megapixels = 0.0;
    /** Wall time spent encoding this stream's frames (dispatcher). */
    double encodeSeconds = 0.0;
    /** megapixels / encodeSeconds: the stream's encode throughput. */
    double encodeMps = 0.0;
    /**
     * Queue latency (submit to encode start) percentiles,
     * milliseconds — the service-level number a frame-budget SLO
     * cares about. Extracted from the stream's LogHistogram
     * ("stream/<name>/queue_latency_ms" in EncodeService::metrics()),
     * which retains every sample: values are within one histogram
     * bucket (< 1/16 relative) of exact; max is exact.
     */
    double queueLatencyP50Ms = 0.0;
    double queueLatencyP90Ms = 0.0;
    double queueLatencyP99Ms = 0.0;
    double queueLatencyMaxMs = 0.0;
    /** Latency samples recorded (== framesEncoded; the histogram
     *  retains the full history, not a window). */
    std::size_t latencySamples = 0;
    /** Frames checked / failed by per-frame round-trip verification. */
    std::uint64_t framesVerified = 0;
    std::uint64_t corruptFrames = 0;
    /** Gaze streams: frames encoded through the saccade bypass. */
    std::uint64_t saccadeFrames = 0;
    /** Gaze streams: map re-fixations / full-rebuild fallbacks /
     *  mid-saccade deferred updates (gaze/incremental_ecc.hh). */
    std::uint64_t refixations = 0;
    std::uint64_t fullRebuilds = 0;
    std::uint64_t deferredGazeUpdates = 0;
    /**
     * hardenIntegrity counters: integrity checks that fired (input
     * checksum, frame seal, gaze-state checksum), frames withheld
     * from delivery because of one, and gaze states rebuilt in place
     * (recovered, frame still delivered).
     */
    std::uint64_t faultsDetected = 0;
    std::uint64_t framesQuarantined = 0;
    std::uint64_t gazeRecoveries = 0;
    /**
     * Delivery-tier counters, fed by recordDelivery (the net tier's
     * DeliverySession reports each delivered frame back). Zero until
     * a delivery session runs on the stream.
     */
    std::uint64_t framesDelivered = 0;
    /** Of those, frames delivered under an adaptive rate budget. */
    std::uint64_t framesAdaptive = 0;
    /** Frames whose foveal region arrived intact from the wire. */
    std::uint64_t framesFovealIntact = 0;
    /** Frames proven byte-identical end to end (manifest CRC). */
    std::uint64_t framesByteIdentical = 0;
    /** Wire bytes sent / shed across the stream's deliveries. */
    std::uint64_t deliveryBytesSent = 0;
    std::uint64_t deliveryShedBytes = 0;
    /** Mean adaptive budget (bytes/round) over adaptive frames; 0
     *  when none ran (a constant policy's budget is not averaged). */
    double meanBudgetBytesPerRound = 0.0;
    /** Latest controller loss estimate / cutoff radius reported. */
    double lastEstimatedLossRate = 0.0;
    double lastCutoffEccDeg = 0.0;
};

/**
 * Per-shard dispatch statistics (ServiceReport::shards).
 *
 * Consistency contract: queue fields (depth, peak, steal counters)
 * are snapshotted together under the queue mutex and are exact;
 * dispatch fields (framesEncoded, framesStolen, busySeconds, pool
 * accounting) are monotonic relaxed atomics read individually —
 * each is exact on its own, but the set is not one instant's
 * snapshot, so e.g. framesEncoded can be one ahead of busySeconds
 * mid-encode. After drain()/shutdown() everything is quiescent and
 * mutually consistent.
 */
struct ShardStats
{
    std::size_t shard = 0;
    /** Streams whose home shard this is. */
    std::size_t streamsHomed = 0;
    /** Frames this shard's dispatcher encoded (own + stolen). */
    std::uint64_t framesEncoded = 0;
    /** ...of which it stole from other shards' rings. */
    std::uint64_t framesStolen = 0;
    /** Frames pushed to this ring but encoded by another shard. */
    std::uint64_t framesStolenFrom = 0;
    /** Requests pushed to this shard's ring, total. */
    std::uint64_t framesQueued = 0;
    /** Requests sitting in this shard's ring right now. */
    std::size_t queueDepth = 0;
    /** Deepest this shard's ring has been. */
    std::size_t queuePeakDepth = 0;
    /** This shard's ring bound (ceil(queueCapacity / shards)). */
    std::size_t queueCapacity = 0;
    /** Wall time this shard's dispatcher spent encoding. */
    double busySeconds = 0.0;
    /** busySeconds / report wallSeconds: 1.0 = never idle. The
     *  serialization tell: with one dispatcher, N busy streams show
     *  one shard pinned at ~1.0; sharded, occupancy spreads. */
    double occupancy = 0.0;
    /**
     * Queue residency (submit to encode start) percentiles for
     * frames *homed* to this shard, milliseconds, from the shard's
     * "shard/<i>/queue_residency_ms" LogHistogram. Attribution is by
     * home shard regardless of which dispatcher ultimately encoded
     * the frame, so a persistently hot shard shows up here even when
     * stealing hides it from the throughput numbers — the signal a
     * home-shard rebalancer would act on (ROADMAP).
     */
    double queueResidencyP50Ms = 0.0;
    double queueResidencyP90Ms = 0.0;
    double queueResidencyP99Ms = 0.0;
    std::uint64_t residencySamples = 0;
    /** Parallel encode participants this shard's slice runs. */
    int participants = 1;
    /** Pool participation accounting (ThreadPool::dispatchCalls /
     *  participantSum for this shard's pool slice): how much
     *  parallelism the shard's encodes actually used. */
    std::uint64_t poolDispatches = 0;
    double poolMeanParticipants = 0.0;
};

/** Aggregate service statistics. */
struct ServiceReport
{
    std::vector<StreamStats> streams;
    /** One entry per dispatcher shard, indexed by shard id. */
    std::vector<ShardStats> shards;
    std::uint64_t framesEncoded = 0;
    double megapixels = 0.0;
    /** Wall seconds since the service was constructed. */
    double wallSeconds = 0.0;
    /** megapixels / wallSeconds across all streams. */
    double aggregateMps = 0.0;
    /** Requests sitting in the service queues right now (all shards). */
    std::size_t queuedRequests = 0;
    /**
     * Deepest the *aggregate* backlog (summed across shard rings) has
     * ever been — tracked inside the queue mutex at push, so it is
     * exact and directly comparable to the single-queue peak this
     * metric baselined before sharding. A peak approaching
     * queueCapacity means producers outrun the dispatchers; per-shard
     * peaks in `shards` localize which ring backs up.
     */
    std::size_t queuePeakDepth = 0;
    /** Effective total bound the peak is measured against
     *  (shards * per-shard ring bound). */
    std::size_t queueCapacity = 0;
    /** Frames encoded by a non-home shard, service-wide: zero means
     *  the hash assignment balanced on its own; high counts mean
     *  stealing is what kept shards busy. */
    std::uint64_t stolenFrames = 0;
    /**
     * Deployment-health aggregates, summed across streams: round-trip
     * verification failures (verifyRoundTrip) and the hardenIntegrity
     * counters. A healthy deployment shows all four at zero; any
     * nonzero value localizes to its stream in `streams`.
     */
    std::uint64_t corruptFrames = 0;
    std::uint64_t faultsDetected = 0;
    std::uint64_t framesQuarantined = 0;
    std::uint64_t gazeRecoveries = 0;
    /** Delivery-tier aggregates, summed across streams (zero until a
     *  delivery session reports; see StreamStats). */
    std::uint64_t framesDelivered = 0;
    std::uint64_t framesFovealIntact = 0;
    std::uint64_t deliveryBytesSent = 0;
    std::uint64_t deliveryShedBytes = 0;
};

/**
 * Client-side reference to one open stream. Cheap to copy (it is a
 * tagged pointer into service-owned state); all operations go through
 * the owning EncodeService. Valid until the service is destroyed.
 */
class StreamHandle
{
  public:
    StreamHandle() = default;

    bool valid() const { return state_ != nullptr; }
    const std::string &name() const;

  private:
    friend class EncodeService;
    explicit StreamHandle(detail::StreamState *state) : state_(state) {}

    detail::StreamState *state_ = nullptr;
};

/**
 * RAII borrow of one encoded result. The referenced EncodedFrame (the
 * stream slot's reusable output) is valid until the lease is
 * destroyed or release()d, at which point the slot re-enters the
 * stream's free ring and may be overwritten by a later submit.
 * Move-only.
 */
class FrameLease
{
  public:
    FrameLease() = default;
    FrameLease(FrameLease &&other) noexcept;
    FrameLease &operator=(FrameLease &&other) noexcept;
    FrameLease(const FrameLease &) = delete;
    FrameLease &operator=(const FrameLease &) = delete;
    ~FrameLease();

    bool valid() const { return frame_ != nullptr; }
    const EncodedFrame &frame() const { return *frame_; }
    const EncodedFrame *operator->() const { return frame_; }

    /** Return the slot early (idempotent; the reference dies here). */
    void release();

  private:
    friend class EncodeService;
    FrameLease(detail::StreamState *state, int slot,
               const EncodedFrame *frame)
        : state_(state), slot_(slot), frame_(frame)
    {}

    detail::StreamState *state_ = nullptr;
    int slot_ = -1;
    const EncodedFrame *frame_ = nullptr;
};

/**
 * The multi-stream encode service (see the file comment for the
 * request model and contracts). Thread-safe: any number of producer
 * threads may submit/collect on their own streams concurrently;
 * operations on one stream should come from one producer at a time
 * (per-stream FIFO semantics assume an ordered caller).
 */
class EncodeService
{
  public:
    /**
     * @param model Discrimination model; must outlive the service.
     * @param params Service configuration (validated here; throws
     *        std::invalid_argument on nonsense).
     */
    explicit EncodeService(const DiscriminationModel &model,
                           const ServiceParams &params = {});

    /** Runs shutdown(): finishes queued work, joins the dispatcher. */
    ~EncodeService();

    EncodeService(const EncodeService &) = delete;
    EncodeService &operator=(const EncodeService &) = delete;

    /**
     * Open a stream. @p ecc is borrowed and must outlive the stream;
     * every submitted frame must match its dimensions. Throws
     * std::runtime_error after shutdown().
     */
    StreamHandle openStream(std::string name,
                            const EccentricityMap &ecc);

    /**
     * Open an eye-tracked stream: the service owns this stream's
     * eccentricity state (map + incremental updater + I-VT classifier,
     * one per stream so concurrent streams re-fixate independently)
     * and every frame must be submitted with a gaze sample. @p geom's
     * fixation fields give the initial fixation. Frames are encoded
     * through PerceptualEncoder::encodeFrameGazeInto: per-frame
     * incremental re-fixation, saccade frames through the cheap
     * bypass path. Throws std::runtime_error after shutdown() and
     * std::invalid_argument when @p params cannot honor the service's
     * foveal cutoff (see encodeFrameGazeInto).
     */
    StreamHandle openGazeStream(std::string name,
                                const DisplayGeometry &geom,
                                const GazeStreamParams &params = {});

    /**
     * Submit one frame with its gaze sample (gaze streams only;
     * std::invalid_argument on a static stream). Samples must carry
     * the stream's time order. Otherwise behaves like submit().
     */
    void submit(StreamHandle handle, const ImageF &frame,
                const GazeSample &gaze);

    /**
     * Submit one frame for encoding. Copies @p frame into the next
     * free stream slot (the caller's buffer is free on return), blocks
     * under backpressure (all slots in flight, or the service queue
     * full). Throws std::invalid_argument on a geometry mismatch with
     * the stream's EccentricityMap and std::runtime_error when the
     * service is shut down before the request could be accepted.
     */
    void submit(StreamHandle handle, const ImageF &frame);

    /**
     * Submit a stereo pair: left then right, two consecutive frames
     * of the stream. Throws std::logic_error when streamDepth < 2 —
     * with a single slot the right-eye submit would deadlock waiting
     * for a slot only this caller's collect can free.
     */
    void submitStereo(StreamHandle handle, const StereoFrame &pair);

    /**
     * Block until the stream's oldest un-collected frame is encoded
     * and lease it (FIFO: frames come back in submission order).
     * Throws std::logic_error when nothing is outstanding, and
     * rethrows the encode error if that frame's encode failed (its
     * slot is reclaimed first).
     */
    FrameLease collect(StreamHandle handle);

    /**
     * collect() with a deadline: wait at most @p timeout for the
     * stream's oldest un-collected frame and return an *invalid*
     * (default-constructed) FrameLease when the timeout expires first.
     * The frame stays outstanding — a later collect/collectFor/
     * tryCollect picks it up in FIFO order, so a result that arrives
     * late is delayed, never lost. Same exceptions as collect()
     * (std::logic_error when nothing is outstanding, the rethrown
     * encode error, FrameQuarantined) when a result *is* ready. This
     * is the delivery tier's entry point: a per-frame deadline loop
     * (src/net) must never wedge behind an indefinitely blocking
     * collect when an encode stalls.
     */
    FrameLease collectFor(StreamHandle handle,
                          std::chrono::milliseconds timeout);

    /**
     * Non-blocking poll: the oldest encoded frame if one is ready
     * right now, an invalid lease otherwise — including when nothing
     * is outstanding at all (unlike collect/collectFor this never
     * throws std::logic_error, so a poll loop needs no bookkeeping of
     * its own submissions).
     */
    FrameLease tryCollect(StreamHandle handle);

    /** Block until everything submitted on the stream is encoded. */
    void drain(StreamHandle handle);

    /** drain() every open stream. */
    void drainAll();

    /**
     * Stop accepting submissions, finish every queued request, join
     * the dispatcher. Blocked submitters are woken with an error;
     * already-encoded results stay collectible. Idempotent; also run
     * by the destructor.
     */
    void shutdown();

    /**
     * Fold one delivered frame's outcome into the stream's stats (the
     * delivery tier calls this once per deliverFrame; see
     * DeliverySample). Thread-safe per the stream's mutex; callable
     * after shutdown() — stats outlive the dispatchers.
     */
    void recordDelivery(StreamHandle handle,
                        const DeliverySample &sample);

    /** Point-in-time statistics (safe to call at any time; see the
     *  StreamStats/ShardStats consistency contracts). */
    ServiceReport report() const;

    const ServiceParams &params() const { return params_; }

    /**
     * The service's metric registry (obs/metrics.hh): per-stream
     * "stream/<name>/queue_latency_ms" and per-home-shard
     * "shard/<i>/queue_residency_ms" histograms live here, and the
     * report's percentiles are read from them. Exposed so exporters
     * and tests can snapshot the full registry; safe to call from any
     * thread at any time.
     */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * The stream's stable trace id: the `stream` tag on every trace
     * event the service records for this stream (obs/trace.hh).
     * Sequential from 0 in open order. A delivery session that wants
     * its net-tier spans to stitch onto the same timeline sets
     * SenderPolicy::streamId to this value.
     */
    std::uint32_t streamTraceId(StreamHandle handle) const;

    /**
     * The home shard a stream named @p name is assigned to under
     * @p shards dispatcher shards. Exposed so tests and load planners
     * can reason about (or deliberately collide) stream homing; the
     * hash is stable for the life of the process, not across builds.
     */
    static std::size_t shardForName(const std::string &name,
                                    std::size_t shards);

    /** Shard @p shard's worker pool (nullptr when that shard's slice
     *  is a single participant). */
    ThreadPool *pool(std::size_t shard = 0) const;

  private:
    struct ShardRuntime;  ///< pool slice + encoder + dispatcher (.cc)

    void dispatchLoop(std::size_t shard);
    void submitImpl(StreamHandle handle, const ImageF &frame,
                    const GazeSample *gaze);
    FrameLease collectImpl(StreamHandle handle,
                           const std::chrono::milliseconds *timeout);

    const ServiceParams params_;
    ShardedStealQueue<detail::EncodeRequest> queue_;
    std::atomic<bool> accepting_{true};

    mutable std::mutex streamsMutex_;  ///< guards streams_
    std::vector<std::unique_ptr<detail::StreamState>> streams_;

    /** Owns every stream/shard histogram; outlives their recorders. */
    obs::MetricsRegistry metrics_;

    std::chrono::steady_clock::time_point startTime_;
    /** Last member: shutdown() joins every dispatcher before the
     *  queue or stream state can go away. */
    std::vector<std::unique_ptr<ShardRuntime>> shards_;
};

} // namespace pce

#endif // PCE_SERVICE_ENCODE_SERVICE_HH

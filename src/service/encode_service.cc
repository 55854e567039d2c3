#include "service/encode_service.hh"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/integrity.hh"
#include "obs/trace.hh"

namespace pce {

namespace detail {

/**
 * Internal per-stream state. Every container here is sized once (at
 * openStream, from ServiceParams) and reused: the free-slot stack, the
 * ready ring, and each slot's input image and
 * EncodedFrame all reach steady-state capacity after the first frames
 * and never reallocate for a same-geometry stream.
 */
struct StreamState
{
    std::string name;
    /** Home shard (shardForName): where submissions are queued. */
    std::size_t shard = 0;
    /** Stable trace id: the `stream` tag on this stream's trace
     *  events (EncodeService::streamTraceId). Open order, from 0. */
    std::uint32_t obsId = 0;
    const EccentricityMap *ecc = nullptr;
    /**
     * Eye-tracked streams own their eccentricity state (one per
     * stream: concurrent streams re-fixate independently). Null for
     * static-fixation streams, where ecc borrows the caller's map.
     * Under sharded dispatch this state is *per-slot* in the lane
     * sense: the queue hands out a stream's requests one at a time in
     * submission order, so whichever dispatcher holds the lane —
     * home or thief — is the sole toucher, sees gaze samples in time
     * order, and hands the state to the next holder through the
     * queue mutex's happens-before edge. The tryBeginExclusive guard
     * enforces the "sole toucher" half at runtime.
     */
    std::unique_ptr<GazeTrackedEccentricity> gaze;

    struct Slot
    {
        ImageF input;          ///< service-owned copy of the submission
        EncodedFrame frame;    ///< reusable encode output
        std::exception_ptr error;  ///< set when this encode failed
        GazeSample gazeSample; ///< rides with the frame (gaze streams)
        bool hasGaze = false;
        /** hash64 of `input` at submit time (hardenIntegrity). */
        std::uint64_t inputHash = 0;
        /** Stream-local frame sequence number (fault hooks). */
        std::uint64_t frameIndex = 0;
    };
    std::vector<Slot> slots;

    mutable std::mutex mutex;
    std::condition_variable slotFree;    ///< submit waits here
    std::condition_variable frameReady;  ///< collect/drain wait here

    std::vector<int> freeSlots;  ///< stack of idle slot indices
    std::vector<int> readyRing;  ///< FIFO of encoded slot indices
    std::size_t readyHead = 0;
    std::size_t readyCount = 0;

    std::uint64_t submitted = 0;
    std::uint64_t encoded = 0;
    std::uint64_t collected = 0;
    /** Frames of this stream encoded by a non-home dispatcher. */
    std::uint64_t framesStolen = 0;

    // Stats, guarded by mutex.
    double megapixels = 0.0;
    double encodeSeconds = 0.0;
    /**
     * Queue-latency histogram ("stream/<name>/queue_latency_ms",
     * owned by the service's MetricsRegistry — the registry outlives
     * the stream). Replaces the old sorted fixed-window ring: full
     * history in fixed memory, percentiles within one bucket of exact
     * (obs/metrics.hh), min/max/count exact. The histogram itself is
     * lock-free; this pointer is set once at open.
     */
    obs::LogHistogram *latencyHist = nullptr;
    std::uint64_t framesVerified = 0;
    std::uint64_t corruptFrames = 0;
    std::uint64_t saccadeFrames = 0;
    // Mirrors of the gaze state's counters, copied under this mutex
    // after each encode (the gaze object itself is only touched by
    // the dispatcher holding the stream's lane, outside any lock).
    std::uint64_t refixations = 0;
    std::uint64_t fullRebuilds = 0;
    std::uint64_t deferredGazeUpdates = 0;
    // hardenIntegrity counters (see StreamStats).
    std::uint64_t faultsDetected = 0;
    std::uint64_t framesQuarantined = 0;
    std::uint64_t gazeRecoveries = 0;
    // Delivery-tier counters (recordDelivery; see StreamStats).
    std::uint64_t framesDelivered = 0;
    std::uint64_t framesAdaptive = 0;
    std::uint64_t framesFovealIntact = 0;
    std::uint64_t framesByteIdentical = 0;
    std::uint64_t deliveryBytesSent = 0;
    std::uint64_t deliveryShedBytes = 0;
    double budgetBytesSum = 0.0;  ///< running sum for the mean
    double lastEstimatedLossRate = 0.0;
    double lastCutoffEccDeg = 0.0;
};

} // namespace detail

using detail::EncodeRequest;
using detail::StreamState;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Copy @p src into @p dst, reallocating only on geometry change. */
void
copyFrameInto(const ImageF &src, ImageF &dst)
{
    if (dst.width() != src.width() || dst.height() != src.height())
        dst = ImageF(src.width(), src.height());
    std::copy(src.pixels().begin(), src.pixels().end(),
              dst.pixels().begin());
}

/** Size the slot/ready rings once, at stream open. */
void
initStreamRings(StreamState &s, const ServiceParams &params)
{
    const int depth = params.streamDepth;
    s.slots.resize(static_cast<std::size_t>(depth));
    s.freeSlots.reserve(static_cast<std::size_t>(depth));
    for (int i = depth - 1; i >= 0; --i)
        s.freeSlots.push_back(i);  // slot 0 served first
    s.readyRing.assign(static_cast<std::size_t>(depth), -1);
}

} // namespace

const std::string &
StreamHandle::name() const
{
    static const std::string empty;
    return state_ ? state_->name : empty;
}

FrameLease::FrameLease(FrameLease &&other) noexcept
    : state_(other.state_), slot_(other.slot_), frame_(other.frame_)
{
    other.state_ = nullptr;
    other.slot_ = -1;
    other.frame_ = nullptr;
}

FrameLease &
FrameLease::operator=(FrameLease &&other) noexcept
{
    if (this != &other) {
        release();
        state_ = other.state_;
        slot_ = other.slot_;
        frame_ = other.frame_;
        other.state_ = nullptr;
        other.slot_ = -1;
        other.frame_ = nullptr;
    }
    return *this;
}

FrameLease::~FrameLease() { release(); }

void
FrameLease::release()
{
    if (state_ == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->freeSlots.push_back(slot_);
    }
    state_->slotFree.notify_one();
    state_ = nullptr;
    slot_ = -1;
    frame_ = nullptr;
}

/**
 * One dispatcher shard: a slice of the thread budget as its own pool,
 * an encoder bound to that slice, the dispatcher thread that drains
 * the shard's ring (and steals), and the shard's dispatch counters.
 * The counters are monotonic relaxed atomics: each is individually
 * exact; ShardStats documents that the set is not one instant's
 * snapshot.
 */
struct EncodeService::ShardRuntime
{
    int participants = 1;
    std::unique_ptr<ThreadPool> pool;  ///< null when participants == 1
    std::unique_ptr<PerceptualEncoder> encoder;
    std::atomic<std::uint64_t> framesEncoded{0};
    std::atomic<std::uint64_t> framesStolen{0};
    std::atomic<std::uint64_t> busyNanos{0};
    /**
     * Queue residency of frames *homed* here, whoever encoded them
     * ("shard/<i>/queue_residency_ms" in the registry; lock-free).
     * Home attribution makes this the rebalancing signal: a hot home
     * shard's residency grows even while thieves keep its throughput
     * level.
     */
    obs::LogHistogram *residency = nullptr;
    std::thread dispatcher;
};

std::size_t
EncodeService::shardForName(const std::string &name, std::size_t shards)
{
    return shards < 2 ? 0 : std::hash<std::string>{}(name) % shards;
}

ThreadPool *
EncodeService::pool(std::size_t shard) const
{
    return shards_.at(shard)->pool.get();
}

EncodeService::EncodeService(const DiscriminationModel &model,
                             const ServiceParams &params)
    : params_(params),
      queue_(params.shards < 1 ? 1 : params.shards,
             params.shards < 1 || params.queueCapacity < 1
                 ? 1
                 : (params.queueCapacity + params.shards - 1) /
                       params.shards),
      startTime_(Clock::now())
{
    if (params_.threads < 1)
        throw std::invalid_argument("EncodeService: threads < 1");
    if (params_.shards < 1)
        throw std::invalid_argument("EncodeService: shards < 1");
    if (params_.streamDepth < 1)
        throw std::invalid_argument("EncodeService: streamDepth < 1");
    if (params_.queueCapacity < 1)
        throw std::invalid_argument("EncodeService: queueCapacity < 1");

    // Split the thread budget across shards as evenly as possible
    // (earlier shards take the remainder, every shard at least one
    // participant). Each shard gets its own pool and encoder: a
    // shared pool would serialize concurrent dispatchers behind
    // ThreadPool's dispatch lock, re-creating exactly the cross-
    // stream serialization this refactor removes.
    const std::size_t n = params_.shards;
    const int base = params_.threads / static_cast<int>(n);
    const int extra = params_.threads % static_cast<int>(n);
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto rt = std::make_unique<ShardRuntime>();
        rt->participants = std::max(
            1, base + (static_cast<int>(i) < extra ? 1 : 0));
        if (rt->participants > 1)
            rt->pool =
                std::make_unique<ThreadPool>(rt->participants - 1);

        PipelineParams pipeline;
        pipeline.tileSize = params_.tileSize;
        pipeline.fovealCutoffDeg = params_.fovealCutoffDeg;
        pipeline.threads = rt->participants;
        pipeline.pool = rt->pool.get();
        rt->encoder =
            std::make_unique<PerceptualEncoder>(model, pipeline);
        rt->residency = &metrics_.histogram(
            "shard/" + std::to_string(i) + "/queue_residency_ms");
        shards_.push_back(std::move(rt));
    }
    for (std::size_t i = 0; i < n; ++i)
        shards_[i]->dispatcher =
            std::thread([this, i] { dispatchLoop(i); });
}

EncodeService::~EncodeService() { shutdown(); }

StreamHandle
EncodeService::openStream(std::string name, const EccentricityMap &ecc)
{
    if (!accepting_.load())
        throw std::runtime_error(
            "EncodeService::openStream: service is shut down");
    auto state = std::make_unique<StreamState>();
    state->name = std::move(name);
    state->shard = shardForName(state->name, params_.shards);
    state->ecc = &ecc;
    initStreamRings(*state, params_);
    state->latencyHist = &metrics_.histogram(
        "stream/" + state->name + "/queue_latency_ms");

    StreamState *raw = state.get();
    std::lock_guard<std::mutex> lock(streamsMutex_);
    state->obsId = static_cast<std::uint32_t>(streams_.size());
    streams_.push_back(std::move(state));
    return StreamHandle(raw);
}

StreamHandle
EncodeService::openGazeStream(std::string name,
                              const DisplayGeometry &geom,
                              const GazeStreamParams &gaze_params)
{
    if (!accepting_.load())
        throw std::runtime_error(
            "EncodeService::openGazeStream: service is shut down");
    // Fail at open time, not first submit: the incremental map's
    // exact band must cover this service's foveal cutoff (see
    // PerceptualEncoder::encodeFrameGazeInto).
    if (gaze_params.ecc.exactBandDeg <
        params_.fovealCutoffDeg +
            gaze_params.ecc.maxAccumulatedErrorDeg)
        throw std::invalid_argument(
            "EncodeService::openGazeStream: exactBandDeg < "
            "fovealCutoffDeg + maxAccumulatedErrorDeg");
    auto gaze = std::make_unique<GazeTrackedEccentricity>(
        geom, gaze_params.ecc, gaze_params.saccadeVelocityDegPerSec);
    // Sealed from birth: every refixate re-seals, and the dispatcher
    // verifies (and recovers) before each of this stream's encodes.
    if (params_.hardenIntegrity)
        gaze->sealState();
    auto state = std::make_unique<StreamState>();
    state->name = std::move(name);
    state->shard = shardForName(state->name, params_.shards);
    state->ecc = &gaze->map();
    state->gaze = std::move(gaze);
    initStreamRings(*state, params_);
    state->latencyHist = &metrics_.histogram(
        "stream/" + state->name + "/queue_latency_ms");

    StreamState *raw = state.get();
    std::lock_guard<std::mutex> lock(streamsMutex_);
    state->obsId = static_cast<std::uint32_t>(streams_.size());
    streams_.push_back(std::move(state));
    return StreamHandle(raw);
}

std::uint32_t
EncodeService::streamTraceId(StreamHandle handle) const
{
    if (!handle.valid())
        throw std::invalid_argument(
            "EncodeService::streamTraceId: invalid stream handle");
    return handle.state_->obsId;
}

void
EncodeService::submit(StreamHandle handle, const ImageF &frame)
{
    submitImpl(handle, frame, nullptr);
}

void
EncodeService::submit(StreamHandle handle, const ImageF &frame,
                      const GazeSample &gaze)
{
    submitImpl(handle, frame, &gaze);
}

void
EncodeService::submitImpl(StreamHandle handle, const ImageF &frame,
                          const GazeSample *gaze)
{
    if (!handle.valid())
        throw std::invalid_argument(
            "EncodeService::submit: invalid stream handle");
    StreamState &s = *handle.state_;
    if (gaze != nullptr && s.gaze == nullptr)
        throw std::invalid_argument(
            "EncodeService::submit: gaze sample on a static-fixation "
            "stream (openGazeStream it instead)");
    if (gaze == nullptr && s.gaze != nullptr)
        throw std::invalid_argument(
            "EncodeService::submit: gaze stream needs a gaze sample "
            "per frame");
    if (frame.width() != s.ecc->width() ||
        frame.height() != s.ecc->height())
        throw std::invalid_argument(
            "EncodeService::submit: frame does not match the stream's "
            "eccentricity map");

    // Frame-lifecycle trace, producer side: the submit span covers
    // slot backpressure, the input copy, and ring backpressure; the
    // queue-wait span recorded at dispatch begins inside it (at
    // submitTime), so the timeline stitches producer -> dispatcher.
    const bool tracing = obs::traceEnabled();
    const std::uint64_t submit_begin = tracing ? obs::traceNowNs() : 0;

    int slot = -1;
    std::uint64_t seq = 0;
    {
        std::unique_lock<std::mutex> lock(s.mutex);
        // Per-stream backpressure: wait for a free slot (bounded by
        // streamDepth), bailing out if the service shuts down first.
        s.slotFree.wait(lock, [&] {
            return !s.freeSlots.empty() || !accepting_.load();
        });
        if (!accepting_.load())
            throw std::runtime_error(
                "EncodeService::submit: service is shut down");
        slot = s.freeSlots.back();
        s.freeSlots.pop_back();
        seq = s.submitted;
        ++s.submitted;
    }

    // The slot is exclusively ours until the request is enqueued: copy
    // outside the lock so concurrent producers overlap their copies.
    StreamState::Slot &sl = s.slots[static_cast<std::size_t>(slot)];
    copyFrameInto(frame, sl.input);
    sl.error = nullptr;
    sl.hasGaze = gaze != nullptr;
    sl.frameIndex = seq;
    if (gaze != nullptr)
        sl.gazeSample = *gaze;
    // Checksum the copy we will encode from: anything that flips a bit
    // of it between here and the dispatcher's verify is detected.
    if (params_.hardenIntegrity)
        sl.inputHash = hash64(sl.input.pixels().data(),
                              sl.input.pixels().size() * sizeof(Vec3));

    EncodeRequest req;
    req.stream = &s;
    req.slot = slot;
    req.submitTime = Clock::now();
    // Per-shard backpressure: blocks while the stream's home ring is
    // full. The stream's address is its lane key — unique for the
    // stream's lifetime, and streams live as long as the service.
    // Peak-depth tracking (per shard and aggregate) happens inside
    // the queue, under its mutex, so the report's backlog watermark
    // is exact rather than a sampled race.
    if (!queue_.push(s.shard,
                     reinterpret_cast<std::uintptr_t>(&s), req)) {
        // Shut down while waiting: roll the submission back so drains
        // and collects never wait for a frame that will not arrive.
        {
            std::lock_guard<std::mutex> lock(s.mutex);
            s.freeSlots.push_back(slot);
            --s.submitted;
        }
        s.slotFree.notify_one();
        s.frameReady.notify_all();
        throw std::runtime_error(
            "EncodeService::submit: service shut down while enqueuing");
    }
    if (tracing)
        obs::recordSpan(
            "service/submit", submit_begin, obs::traceNowNs(),
            obs::TraceTag{seq, s.obsId,
                          static_cast<std::int32_t>(s.shard)});
}

void
EncodeService::submitStereo(StreamHandle handle, const StereoFrame &pair)
{
    // With one slot, submit(right) would wait for a slot only this
    // (blocked) caller's collect can free — fail loudly instead.
    if (params_.streamDepth < 2)
        throw std::logic_error(
            "EncodeService::submitStereo: needs streamDepth >= 2 to "
            "pipeline both eyes");
    submit(handle, pair.left);
    submit(handle, pair.right);
}

FrameLease
EncodeService::collect(StreamHandle handle)
{
    return collectImpl(handle, nullptr);
}

FrameLease
EncodeService::collectFor(StreamHandle handle,
                          std::chrono::milliseconds timeout)
{
    return collectImpl(handle, &timeout);
}

FrameLease
EncodeService::tryCollect(StreamHandle handle)
{
    if (!handle.valid())
        throw std::invalid_argument(
            "EncodeService::tryCollect: invalid stream handle");
    {
        StreamState &s = *handle.state_;
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.collected == s.submitted)
            return FrameLease();
    }
    const std::chrono::milliseconds zero{0};
    return collectImpl(handle, &zero);
}

FrameLease
EncodeService::collectImpl(StreamHandle handle,
                           const std::chrono::milliseconds *timeout)
{
    if (!handle.valid())
        throw std::invalid_argument(
            "EncodeService::collect: invalid stream handle");
    StreamState &s = *handle.state_;
    // Consumer side of the frame timeline: the collect span covers
    // the ready-ring wait and ends when the frame leaves the service.
    const bool tracing = obs::traceEnabled();
    const std::uint64_t collect_begin =
        tracing ? obs::traceNowNs() : 0;
    std::unique_lock<std::mutex> lock(s.mutex);
    if (s.collected == s.submitted)
        throw std::logic_error(
            "EncodeService::collect: no frame outstanding");
    // A rolled-back submit (shutdown race) can retract the frame we
    // are waiting for, so re-check the outstanding count on wake.
    auto ready = [&] {
        return s.readyCount > 0 || s.collected == s.submitted;
    };
    if (timeout) {
        if (!s.frameReady.wait_for(lock, *timeout, ready))
            return FrameLease();  // deadline expired, frame still owed
    } else {
        s.frameReady.wait(lock, ready);
    }
    if (s.readyCount == 0)
        throw std::runtime_error(
            "EncodeService::collect: stream drained by shutdown");
    const int slot = s.readyRing[s.readyHead];
    s.readyHead = (s.readyHead + 1) % s.readyRing.size();
    --s.readyCount;
    ++s.collected;
    StreamState::Slot &sl = s.slots[static_cast<std::size_t>(slot)];
    if (sl.error) {
        std::exception_ptr err = sl.error;
        sl.error = nullptr;
        s.freeSlots.push_back(slot);
        lock.unlock();
        s.slotFree.notify_one();
        std::rethrow_exception(err);
    }
    // Last line of defense: re-verify the seal written at encode time
    // before handing the frame out. A flip while the result sat in
    // its slot (or anywhere between seal and here) quarantines the
    // frame — with hardening on, a corrupt frame never crosses this
    // boundary undetected.
    if (params_.hardenIntegrity && !verifyFrameSeal(sl.frame)) {
        ++s.faultsDetected;
        ++s.framesQuarantined;
        s.freeSlots.push_back(slot);
        lock.unlock();
        s.slotFree.notify_one();
        throw FrameQuarantined(
            "EncodeService::collect: frame seal mismatch (frame "
            "quarantined)");
    }
    if (tracing)
        obs::recordSpan(
            "service/collect", collect_begin, obs::traceNowNs(),
            obs::TraceTag{sl.frameIndex, s.obsId, obs::kNoShard});
    return FrameLease(&s, slot, &sl.frame);
}

void
EncodeService::drain(StreamHandle handle)
{
    if (!handle.valid())
        throw std::invalid_argument(
            "EncodeService::drain: invalid stream handle");
    StreamState &s = *handle.state_;
    std::unique_lock<std::mutex> lock(s.mutex);
    s.frameReady.wait(lock, [&] { return s.encoded == s.submitted; });
}

void
EncodeService::drainAll()
{
    std::vector<StreamState *> states;
    {
        std::lock_guard<std::mutex> lock(streamsMutex_);
        states.reserve(streams_.size());
        for (const auto &s : streams_)
            states.push_back(s.get());
    }
    for (StreamState *s : states)
        drain(StreamHandle(s));
}

void
EncodeService::shutdown()
{
    accepting_.store(false);
    // close() refuses new pushes and wakes every waiter on every
    // shard: producers blocked on any ring's backpressure see the
    // refusal, and each dispatcher drains its remaining (own plus
    // stealable) requests before observing closed-and-empty.
    queue_.close();
    {
        // Wake producers blocked on per-stream backpressure so they
        // observe the shutdown instead of hanging. The accepting_
        // store above happened outside the stream mutexes the waiters
        // evaluate their predicates under, so acquire each mutex
        // (empty critical section) before notifying: any waiter is
        // then either pre-predicate (sees the store) or parked (gets
        // the notify) — never between the two.
        std::lock_guard<std::mutex> lock(streamsMutex_);
        for (const auto &s : streams_) {
            { std::lock_guard<std::mutex> g(s->mutex); }
            s->slotFree.notify_all();
            s->frameReady.notify_all();
        }
    }
    std::lock_guard<std::mutex> lock(streamsMutex_);
    for (const auto &rt : shards_)
        if (rt->dispatcher.joinable())
            rt->dispatcher.join();  // drains queued requests first
}

void
EncodeService::dispatchLoop(std::size_t shard)
{
    // One dispatcher per shard. popForShard serves this shard's ring
    // in FIFO order and steals from loaded shards when it runs dry;
    // the queue's lane exclusivity means that while this loop body
    // runs, no other dispatcher can hold a request of the same
    // stream — the slot, the gaze state, and the stats mirrors below
    // are effectively single-threaded per stream, handed between
    // dispatchers through the queue mutex. finishLane() at the very
    // end of the iteration (after the ready-ring publish) is what
    // releases the stream's next request, so per-stream FIFO holds
    // through the publish, not just the encode.
    ShardRuntime &rt = *shards_[shard];
    // Named lazily on the first traced frame so an untraced run never
    // allocates this thread's ring (~1.3 MB at the default capacity).
    bool traceNamed = false;
    while (auto req = queue_.popForShard(shard)) {
        StreamState &s = *req->value.stream;
        StreamState::Slot &sl =
            s.slots[static_cast<std::size_t>(req->value.slot)];
        const Clock::time_point start = Clock::now();
        const bool tracing = obs::traceEnabled();
        const obs::TraceTag traceTag{
            sl.frameIndex, s.obsId, static_cast<std::int32_t>(shard)};
        const std::uint64_t start_ns =
            tracing ? obs::traceToNs(start) : 0;
        std::optional<obs::TagScope> tagScope;
        if (tracing) {
            if (!traceNamed) {
                obs::Tracer::instance().nameThread(
                    "shard" + std::to_string(shard) + "/dispatcher");
                traceNamed = true;
            }
            // queue_wait ends on the exact timestamp dispatch begins
            // (both use start_ns), so the two spans stitch with no
            // gap; "stolen" marks a cross-shard hand-off.
            obs::recordSpan("service/queue_wait",
                            obs::traceToNs(req->value.submitTime),
                            start_ns, traceTag, "stolen",
                            req->stolen ? 1 : 0);
            // Nested spans (encode passes, seal, verify) inherit the
            // frame/stream/shard tag ambiently for the whole hold.
            tagScope.emplace(traceTag);
        }
        bool saccade = false;
        bool verified = false;
        bool corrupt = false;
        bool quarantined = false;
        bool gazeRecovered = false;
        bool gazeHeld = false;
        try {
            if (params_.preEncodeFaultHook)
                params_.preEncodeFaultHook(s.name, sl.frameIndex,
                                           sl.input);
            // Hardened dispatch: verify the input copy against its
            // submit-time checksum before spending an encode on it —
            // a flip while the request waited in the queue yields a
            // quarantined frame, not silently corrupt output.
            if (params_.hardenIntegrity &&
                hash64(sl.input.pixels().data(),
                       sl.input.pixels().size() * sizeof(Vec3)) !=
                    sl.inputHash)
                throw FrameQuarantined(
                    "EncodeService: input checksum mismatch at "
                    "dispatch (frame quarantined)");
            if (s.gaze != nullptr) {
                // Claim the gaze state for this lane hold. A failure
                // here means two dispatchers hold the same stream —
                // a steal-protocol bug, surfaced as a frame error
                // rather than silent state corruption.
                if (!s.gaze->tryBeginExclusive())
                    throw std::logic_error(
                        "EncodeService: gaze state already in use "
                        "(lane exclusivity violated)");
                gazeHeld = true;
            }
            // Gaze streams: the eccentricity state persisted across
            // frames, so verify (and recover) it before it steers
            // this frame's foveal decisions. Recovery rebuilds the
            // map exactly — the frame is still encoded and delivered.
            if (params_.hardenIntegrity && s.gaze != nullptr &&
                !s.gaze->verifyAndRecoverState())
                gazeRecovered = true;
            if (sl.hasGaze) {
                saccade = rt.encoder->encodeFrameGazeInto(
                              sl.input, *s.gaze, sl.gazeSample,
                              sl.frame) == GazePhase::Saccade;
            } else {
                rt.encoder->encodeFrameInto(sl.input, *s.ecc,
                                            sl.frame);
            }
            if (params_.verifyRoundTrip) {
                obs::TraceSpan span("service/verify_roundtrip");
                verified = true;
                try {
                    corrupt = !rt.encoder->verifyRoundTrip(sl.frame);
                } catch (...) {
                    // The stream failed decode validation outright:
                    // corruption, not an encode error.
                    corrupt = true;
                }
            }
            if (params_.hardenIntegrity) {
                obs::TraceSpan span("service/seal");
                sealFrame(sl.frame);
            }
            if (params_.postEncodeFaultHook)
                params_.postEncodeFaultHook(s.name, sl.frameIndex,
                                            sl.frame);
        } catch (const FrameQuarantined &) {
            sl.error = std::current_exception();
            quarantined = true;
        } catch (...) {
            sl.error = std::current_exception();
        }
        if (gazeHeld)
            s.gaze->endExclusive();
        const Clock::time_point end = Clock::now();
        if (tracing)
            obs::recordSpan("service/dispatch", start_ns,
                            obs::traceToNs(end), traceTag);
        rt.framesEncoded.fetch_add(1, std::memory_order_relaxed);
        if (req->stolen)
            rt.framesStolen.fetch_add(1, std::memory_order_relaxed);
        rt.busyNanos.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - start)
                    .count()),
            std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(s.mutex);
            ++s.encoded;
            if (req->stolen)
                ++s.framesStolen;
            if (!sl.error) {
                s.megapixels +=
                    static_cast<double>(sl.input.pixelCount()) / 1e6;
                s.encodeSeconds += secondsBetween(start, end);
            }
            if (verified) {
                ++s.framesVerified;
                if (corrupt)
                    ++s.corruptFrames;
            }
            if (saccade)
                ++s.saccadeFrames;
            if (quarantined) {
                ++s.faultsDetected;
                ++s.framesQuarantined;
            }
            if (gazeRecovered) {
                ++s.faultsDetected;
                ++s.gazeRecoveries;
            }
            if (s.gaze != nullptr) {
                s.refixations = s.gaze->refixations();
                s.fullRebuilds = s.gaze->fullRebuilds();
                s.deferredGazeUpdates = s.gaze->deferredUpdates();
            }
            const double wait_ms =
                secondsBetween(req->value.submitTime, start) * 1e3;
            // Queue latency: the stream's full-history histogram plus
            // the *home* shard's residency histogram — attributed to
            // the shard the frame was queued on even when a thief
            // encoded it, which is exactly the rebalancing signal.
            s.latencyHist->record(wait_ms);
            shards_[s.shard]->residency->record(wait_ms);
            s.readyRing[(s.readyHead + s.readyCount) %
                        s.readyRing.size()] = req->value.slot;
            ++s.readyCount;
        }
        s.frameReady.notify_all();
        // Only now may the stream's next request be handed out: the
        // result above is fully published, so the next holder (any
        // shard) sees a consistent slot ring and gaze state.
        queue_.finishLane(req->lane);
    }
}

void
EncodeService::recordDelivery(StreamHandle handle,
                              const DeliverySample &sample)
{
    if (!handle.valid())
        throw std::invalid_argument(
            "EncodeService::recordDelivery: invalid stream handle");
    StreamState &s = *handle.state_;
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.framesDelivered;
    if (sample.adaptiveRate)
        ++s.framesAdaptive;
    if (sample.fovealIntact)
        ++s.framesFovealIntact;
    if (sample.byteIdentical)
        ++s.framesByteIdentical;
    s.deliveryBytesSent += sample.bytesSent;
    s.deliveryShedBytes += sample.shedBytes;
    // The budget mean only covers adaptive frames: a non-adaptive
    // policy's SIZE_MAX "uncongested" sentinel is not a budget.
    if (sample.adaptiveRate)
        s.budgetBytesSum +=
            static_cast<double>(sample.budgetBytesPerRound);
    s.lastEstimatedLossRate = sample.estimatedLossRate;
    s.lastCutoffEccDeg = sample.cutoffEccDeg;
}

ServiceReport
EncodeService::report() const
{
    ServiceReport rep;
    rep.wallSeconds = secondsBetween(startTime_, Clock::now());
    rep.queuedRequests = queue_.size();
    rep.queuePeakDepth = queue_.aggregatePeakDepth();
    rep.queueCapacity = queue_.capacity();
    rep.shards.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const ShardRuntime &rt = *shards_[i];
        const auto qc = queue_.counters(i);
        ShardStats sh;
        sh.shard = i;
        sh.framesEncoded =
            rt.framesEncoded.load(std::memory_order_relaxed);
        sh.framesStolen =
            rt.framesStolen.load(std::memory_order_relaxed);
        sh.framesStolenFrom = qc.stolenFrom;
        sh.framesQueued = qc.pushes;
        sh.queueDepth = qc.depth;
        sh.queuePeakDepth = qc.peakDepth;
        sh.queueCapacity = queue_.capacityPerShard();
        sh.busySeconds =
            static_cast<double>(
                rt.busyNanos.load(std::memory_order_relaxed)) /
            1e9;
        sh.occupancy = rep.wallSeconds > 0.0
                           ? sh.busySeconds / rep.wallSeconds
                           : 0.0;
        sh.participants = rt.participants;
        sh.queueResidencyP50Ms = rt.residency->percentile(50.0);
        sh.queueResidencyP90Ms = rt.residency->percentile(90.0);
        sh.queueResidencyP99Ms = rt.residency->percentile(99.0);
        sh.residencySamples = rt.residency->count();
        if (rt.pool != nullptr) {
            sh.poolDispatches = rt.pool->dispatchCalls();
            sh.poolMeanParticipants =
                sh.poolDispatches > 0
                    ? static_cast<double>(rt.pool->participantSum()) /
                          static_cast<double>(sh.poolDispatches)
                    : 0.0;
        }
        rep.stolenFrames += sh.framesStolen;
        rep.shards.push_back(sh);
    }
    std::lock_guard<std::mutex> lock(streamsMutex_);
    rep.streams.reserve(streams_.size());
    for (const auto &sp : streams_) {
        const StreamState &s = *sp;
        StreamStats st;
        {
            // Only the snapshot happens under the stream lock the
            // dispatcher needs; the histogram reads below are
            // lock-free.
            std::lock_guard<std::mutex> slock(s.mutex);
            st.name = s.name;
            st.shard = s.shard;
            st.framesStolen = s.framesStolen;
            st.framesSubmitted = s.submitted;
            st.framesEncoded = s.encoded;
            st.framesCollected = s.collected;
            st.megapixels = s.megapixels;
            st.encodeSeconds = s.encodeSeconds;
            st.framesVerified = s.framesVerified;
            st.corruptFrames = s.corruptFrames;
            st.saccadeFrames = s.saccadeFrames;
            st.refixations = s.refixations;
            st.fullRebuilds = s.fullRebuilds;
            st.deferredGazeUpdates = s.deferredGazeUpdates;
            st.faultsDetected = s.faultsDetected;
            st.framesQuarantined = s.framesQuarantined;
            st.gazeRecoveries = s.gazeRecoveries;
            st.framesDelivered = s.framesDelivered;
            st.framesAdaptive = s.framesAdaptive;
            st.framesFovealIntact = s.framesFovealIntact;
            st.framesByteIdentical = s.framesByteIdentical;
            st.deliveryBytesSent = s.deliveryBytesSent;
            st.deliveryShedBytes = s.deliveryShedBytes;
            st.meanBudgetBytesPerRound =
                s.framesAdaptive > 0
                    ? s.budgetBytesSum /
                          static_cast<double>(s.framesAdaptive)
                    : 0.0;
            st.lastEstimatedLossRate = s.lastEstimatedLossRate;
            st.lastCutoffEccDeg = s.lastCutoffEccDeg;
        }
        st.encodeMps = st.encodeSeconds > 0.0
                           ? st.megapixels / st.encodeSeconds
                           : 0.0;
        // Full-history log-scale histogram (obs/metrics.hh) — within
        // one bucket of the old sorted-window exact values, with the
        // max kept exact.
        st.latencySamples = s.latencyHist->count();
        st.queueLatencyMaxMs = s.latencyHist->max();
        st.queueLatencyP50Ms = s.latencyHist->percentile(50.0);
        st.queueLatencyP90Ms = s.latencyHist->percentile(90.0);
        st.queueLatencyP99Ms = s.latencyHist->percentile(99.0);
        if (st.shard < rep.shards.size())
            ++rep.shards[st.shard].streamsHomed;
        rep.framesEncoded += st.framesEncoded;
        rep.megapixels += st.megapixels;
        rep.corruptFrames += st.corruptFrames;
        rep.faultsDetected += st.faultsDetected;
        rep.framesQuarantined += st.framesQuarantined;
        rep.gazeRecoveries += st.gazeRecoveries;
        rep.framesDelivered += st.framesDelivered;
        rep.framesFovealIntact += st.framesFovealIntact;
        rep.deliveryBytesSent += st.deliveryBytesSent;
        rep.deliveryShedBytes += st.deliveryShedBytes;
        rep.streams.push_back(std::move(st));
    }
    rep.aggregateMps = rep.wallSeconds > 0.0
                           ? rep.megapixels / rep.wallSeconds
                           : 0.0;
    return rep;
}

} // namespace pce

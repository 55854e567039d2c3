/**
 * @file
 * Allocation-free frame-lifecycle tracing: per-thread fixed-capacity
 * span rings with a steady-clock timebase and frame/stream/shard
 * tagging.
 *
 * The pipeline spans five concurrent layers — submit -> dispatch
 * (N dispatchers popping one queue) -> parallel encode passes ->
 * packetize -> round-based delivery — and aggregate counters cannot answer "where
 * did frame N of stream S spend its 14 ms". This layer records *spans*
 * (named begin/end intervals) and *instants* into per-thread ring
 * buffers so one frame's timeline stitches across the producer thread,
 * whichever dispatcher encoded it, and the delivery loop, at a cost
 * low enough to leave compiled in.
 *
 * ## Cost model
 *
 * - Disabled (the default): every instrumentation point is one relaxed
 *   atomic load and a branch. No time is read, nothing is written.
 * - Enabled: one steady_clock read per span edge plus one ring store
 *   under the recording thread's own (uncontended) mutex. The record
 *   path allocates nothing: rings are preallocated at each thread's
 *   first event, and names are string literals (`const char *` is
 *   stored, not copied — callers must pass literals or otherwise
 *   immortal strings).
 * - The per-recorder mutex exists for the cross-thread collect()/
 *   reset() merge, which makes the whole subsystem clean under
 *   ThreadSanitizer; in steady state only the owning thread takes it.
 *
 * ## Ring semantics
 *
 * Each thread's recorder holds a fixed ring of capacityPerThread()
 * events. Overflow overwrites the oldest events and *counts* the loss:
 * recorded() is the lifetime total, dropped() == max(0, recorded() -
 * capacity) — wraparound-safe, so a trace that lost its head says so
 * instead of silently lying. collect() merges every thread's retained
 * events sorted by begin time (ties: longer span first, so parents
 * precede their children; then record order).
 *
 * ## Tagging
 *
 * Events carry {frame, stream, shard} so a cross-thread timeline can
 * be filtered to one frame of one stream. The tag is either explicit
 * (per span) or ambient: TagScope pins a thread-local tag that every
 * span/instant recorded inside it inherits — the dispatcher sets it
 * once per request and the nested encode-pass spans tag themselves.
 *
 * Exporting: obs/trace_export.hh turns collect() into Chrome
 * trace-event JSON loadable in Perfetto (docs/OBSERVABILITY.md).
 */

#ifndef PCE_OBS_TRACE_HH
#define PCE_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pce::obs {

/** Tag sentinels: "this event is not frame/stream/shard-scoped". */
constexpr std::uint64_t kNoFrame = ~static_cast<std::uint64_t>(0);
constexpr std::uint32_t kNoStream = ~static_cast<std::uint32_t>(0);
constexpr std::int32_t kNoShard = -1;

/** Frame/stream/shard attribution carried by every event. */
struct TraceTag
{
    std::uint64_t frame = kNoFrame;   ///< stream-local frame index
    std::uint32_t stream = kNoStream; ///< EncodeService::streamTraceId
    std::int32_t shard = kNoShard;    ///< dispatcher shard (or none)
};

/** One recorded span or instant (see the file comment). */
struct TraceEvent
{
    const char *name = nullptr;     ///< literal; never owned
    const char *argName = nullptr;  ///< optional payload name (literal)
    std::uint64_t beginNs = 0;      ///< steady-clock ns since epoch
    std::uint64_t endNs = 0;        ///< == beginNs for instants
    std::uint64_t frame = kNoFrame;
    std::uint64_t arg = 0;          ///< payload (valid iff argName)
    std::uint64_t seq = 0;          ///< global record order (tiebreak)
    std::uint32_t stream = kNoStream;
    std::uint32_t tid = 0;          ///< recorder-assigned thread id
    std::int32_t shard = kNoShard;
    bool instant = false;
};

namespace detail {
/** The runtime switch; read via traceEnabled() (one relaxed load). */
extern std::atomic<bool> g_traceEnabled;
} // namespace detail

/** The disabled fast path every instrumentation point starts with. */
inline bool
traceEnabled()
{
    return detail::g_traceEnabled.load(std::memory_order_relaxed);
}

/** Flip tracing at runtime (any thread, any time). */
void setTraceEnabled(bool on);

/** Steady-clock ns since the process-wide trace epoch (static init,
 *  so it precedes any timestamp the service can capture). */
std::uint64_t traceNowNs();

/** Convert an already-captured steady_clock time to the trace
 *  timebase (e.g. a request's submitTime). */
std::uint64_t traceToNs(std::chrono::steady_clock::time_point tp);

/**
 * One thread's fixed-capacity event ring. Owned by the Tracer registry
 * (recorders outlive their threads so collect() after a producer
 * exits still sees its events); threads reach theirs through
 * Tracer::recorder(), cached in a thread_local.
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(std::uint32_t tid, std::size_t capacity);

    /** Append one event (ring overwrite on overflow; counted). */
    void record(TraceEvent e);

    std::uint32_t tid() const { return tid_; }
    /** Lifetime events recorded (including since-overwritten ones). */
    std::uint64_t recorded() const;
    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const;

  private:
    friend class Tracer;

    mutable std::mutex mutex_;
    std::vector<TraceEvent> ring_;  ///< fixed capacity, never resized
    std::uint64_t total_ = 0;       ///< ring[total_ % cap] is next
    std::uint32_t tid_ = 0;
    std::string threadName_;        ///< optional (nameThread)
};

/**
 * Process-wide recorder registry and merge point. A singleton: the
 * instrumentation macros-without-macros (TraceSpan, traceInstant)
 * need a zero-argument path to the current thread's ring.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** The calling thread's recorder (created on first use). */
    TraceRecorder &recorder();

    /** Name the calling thread for the exported trace ("shard0/
     *  dispatcher" beats "thread 3" in Perfetto). */
    void nameThread(std::string name);

    /**
     * Every thread's retained events, merged and sorted by begin time
     * (ties: longer span first so parents precede children, then
     * record order). Safe while recording continues — each ring is
     * snapshotted under its own mutex.
     */
    std::vector<TraceEvent> collect() const;

    /** {tid, name} for every thread that named itself. */
    std::vector<std::pair<std::uint32_t, std::string>>
    threadNames() const;

    /** Sum of recorded() / dropped() over all recorders. */
    std::uint64_t recordedEvents() const;
    std::uint64_t droppedEvents() const;

    /** Threads that have recorded (or been named) so far. */
    std::size_t threadCount() const;

    /**
     * Clear every recorder's ring and counters (recorders and their
     * tids survive — live threads keep their cached recorder). Not a
     * barrier: events recorded concurrently with reset() land in
     * either the old or the new trace.
     */
    void reset();

    /**
     * Resize every ring (existing recorders are cleared, future ones
     * created at the new capacity). Events, not bytes: one TraceEvent
     * is ~80 B, the 16384 default ~1.3 MB per recording thread.
     */
    void setCapacityPerThread(std::size_t capacity);
    std::size_t capacityPerThread() const;

  private:
    Tracer() = default;

    mutable std::mutex mutex_;  ///< guards recorders_ and capacity_
    std::vector<std::unique_ptr<TraceRecorder>> recorders_;
    std::size_t capacity_ = 16384;
};

/**
 * Ambient-tag scope: spans and instants recorded by this thread while
 * the scope lives inherit @p tag unless they carry an explicit one.
 * Nests (the previous tag is restored); cheap enough to leave
 * unconditional on paths that run once per frame.
 */
class TagScope
{
  public:
    explicit TagScope(const TraceTag &tag);
    ~TagScope();

    TagScope(const TagScope &) = delete;
    TagScope &operator=(const TagScope &) = delete;

    /** The calling thread's current ambient tag. */
    static const TraceTag &current();

  private:
    TraceTag saved_;
};

/**
 * RAII span: begins at construction, records at destruction (or an
 * explicit end()). When tracing is disabled at construction the span
 * is inert — one relaxed load, no clock read, nothing recorded.
 */
class TraceSpan
{
  public:
    /** Span with the thread's ambient tag (TagScope). */
    explicit TraceSpan(const char *name)
        : TraceSpan(name, TagScope::current())
    {}

    /** Span with an explicit tag. */
    TraceSpan(const char *name, const TraceTag &tag)
    {
        if (traceEnabled())
            begin(name, tag, traceNowNs());
    }

    /**
     * Span whose begin time was captured elsewhere — how the
     * queue-wait span ends exactly where the dispatch span begins
     * (both use the same captured now).
     */
    TraceSpan(const char *name, const TraceTag &tag,
              std::uint64_t beginNs)
    {
        if (traceEnabled())
            begin(name, tag, beginNs);
    }

    ~TraceSpan() { end(); }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a numeric payload (latched; recorded at end()). */
    void arg(const char *name, std::uint64_t value)
    {
        argName_ = name;
        arg_ = value;
    }

    /** Close the span now (idempotent; the destructor is then inert). */
    void end();

    /** The span is live and will record (tracing was on at begin). */
    bool active() const { return name_ != nullptr; }
    std::uint64_t beginNs() const { return beginNs_; }

  private:
    void begin(const char *name, const TraceTag &tag,
               std::uint64_t beginNs);

    const char *name_ = nullptr;
    const char *argName_ = nullptr;
    std::uint64_t arg_ = 0;
    std::uint64_t beginNs_ = 0;
    TraceTag tag_;
};

/** Record a completed span from explicitly captured begin/end times. */
void recordSpan(const char *name, std::uint64_t beginNs,
                std::uint64_t endNs, const TraceTag &tag,
                const char *argName = nullptr, std::uint64_t arg = 0);

/** Record an instant with the thread's ambient tag. */
void traceInstant(const char *name, const char *argName = nullptr,
                  std::uint64_t arg = 0);

/** Record an instant with an explicit tag. */
void traceInstant(const char *name, const TraceTag &tag,
                  const char *argName, std::uint64_t arg);

} // namespace pce::obs

#endif // PCE_OBS_TRACE_HH

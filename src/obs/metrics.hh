/**
 * @file
 * Unified metrics: counters, gauges, and fixed-bucket log-scale
 * histograms with percentile extraction, behind a name-keyed registry.
 *
 * The service layers each grew bespoke aggregate stats (StreamStats'
 * fixed-window queue-latency percentiles being the largest); this
 * header is the one primitive they migrate onto. Design constraints,
 * in order:
 *
 * - **Record is wait-free and allocation-free.** Counter/Gauge are one
 *   relaxed atomic op; LogHistogram::record is a handful of arithmetic
 *   ops plus three relaxed atomic increments and two CAS min/max
 *   updates, on storage allocated once at construction. Any thread may
 *   record while any other reads — no locks, TSan-clean.
 * - **Fixed memory, unbounded history.** A histogram retains *every*
 *   sample in O(buckets) memory, so percentiles cover the stream's
 *   full history instead of a sliding window, and recording can never
 *   reallocate mid-stream.
 *
 * ## The percentile accuracy contract (LogHistogram)
 *
 * Buckets are HdrHistogram-style: each power-of-two octave above
 * `minValue` is split into `subBucketsPerOctave` linear sub-buckets,
 * so relative bucket width is bounded by 1/subBucketsPerOctave (6.25%
 * at the default 16) at every magnitude. percentile(p) locates the
 * exact p-th sample (by the same nearest-rank rule the old
 * fixed-window sort used) in the cumulative bucket counts and reports
 * that bucket's upper bound, clamped to the exact observed maximum.
 * The reported value is therefore always **within one bucket of the
 * exact sample**: exact <= reported <= bucketUpperBound(exact's
 * bucket), i.e. relative error < 1/subBucketsPerOctave. min(), max(),
 * count(), and sum() are exact. tests/obs/test_metrics.cc pins this
 * contract against a sorted-window reference.
 */

#ifndef PCE_OBS_METRICS_HH
#define PCE_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pce::obs {

/** Monotonic event counter (relaxed; sum-consistent, not fenced). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-writer-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** LogHistogram shape (a namespace-scope struct so its defaults are
 *  usable in default arguments — nested-class NSDMIs are not until
 *  the enclosing class completes). */
struct LogHistogramParams
{
    /** Lower edge of the first octave; values below it land in
     *  the underflow bucket (reported as <= minValue). The
     *  default resolves queue latencies down to a microsecond. */
    double minValue = 1e-3;
    /** Linear sub-buckets per power-of-two octave: the accuracy
     *  knob (relative error < 1/subBucketsPerOctave). */
    int subBucketsPerOctave = 16;
    /** Octaves covered before overflow: 40 octaves above 1e-3
     *  spans ~12 orders of magnitude. */
    int octaves = 40;
};

/**
 * Fixed-bucket log-scale histogram (see the file comment for the
 * accuracy contract). Thread-safe for concurrent record() and reads.
 */
class LogHistogram
{
  public:
    using Params = LogHistogramParams;

    explicit LogHistogram(Params params = {});

    LogHistogram(const LogHistogram &) = delete;
    LogHistogram &operator=(const LogHistogram &) = delete;

    /** Record one sample (negative values clamp to 0). */
    void record(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const;
    /** Exact observed extrema (0 when empty). */
    double min() const;
    double max() const;

    /**
     * The p-th percentile (0..100) under the contract above: the
     * upper bound of the bucket holding the exact nearest-rank
     * sample, clamped to [min(), max()]. 0 when empty.
     */
    double percentile(double p) const;

    /** Bucket index a value lands in (0 = underflow). */
    std::size_t bucketIndexFor(double v) const;
    /** Value range covered by bucket @p i: [lower, upper). */
    double bucketLowerBound(std::size_t i) const;
    double bucketUpperBound(std::size_t i) const;
    std::size_t bucketCount() const { return nBuckets_; }

    const Params &params() const { return params_; }

    /** Zero every bucket and the count/sum/extrema. Not a barrier:
     *  concurrent record()s land before or after, never torn. */
    void reset();

  private:
    Params params_;
    std::size_t nBuckets_ = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Name-keyed metric registry. Lookup is mutex-guarded (do it once,
 * outside the hot path — the returned references are stable for the
 * registry's lifetime); the metrics themselves are lock-free.
 * Re-requesting a name returns the same instance, so independent
 * layers can share a metric by agreeing on its name. Naming
 * convention: "layer/instance/quantity_unit" (e.g.
 * "stream/left-eye/queue_latency_ms").
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @p params applies on first creation only. */
    LogHistogram &histogram(const std::string &name,
                            LogHistogram::Params params = {});

    /** One metric's point-in-time reading (snapshot()). */
    struct Reading
    {
        std::string name;
        enum class Kind { Counter, Gauge, Histogram } kind;
        double value = 0.0;          ///< counter/gauge value
        std::uint64_t count = 0;     ///< histogram samples
        double p50 = 0.0, p90 = 0.0, p99 = 0.0;
        double minValue = 0.0, maxValue = 0.0, sumValue = 0.0;
    };

    /** Every registered metric, name-sorted. */
    std::vector<Reading> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

} // namespace pce::obs

#endif // PCE_OBS_METRICS_HH

/**
 * @file
 * The benchmark's own arithmetic: nearest-rank percentiles with the
 * "at least ten samples beyond" rule, the open-loop due-time schedule,
 * and the frame ledger that times every frame from when it was due
 * and counts late, failed and quarantined frames as misses. Pure
 * functions of their inputs; selftest.cc pins each rule.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One nearest-rank percentile and how much of the sample lies past it. */
struct Percentile
{
    double value = 0.0;
    std::size_t rank = 0;    ///< 1-based rank of the reported sample
    std::size_t beyond = 0;  ///< samples ranked strictly above it
};

/** The ceil(percent/100 * n)-th smallest sample; {0, 0, 0} when empty. */
inline Percentile
nearestRank(std::vector<double> samples, unsigned percent)
{
    Percentile r;
    const std::size_t n = samples.size();
    if (n == 0)
        return r;
    r.rank = std::clamp<std::size_t>((percent * n + 99) / 100, 1, n);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<long>(r.rank - 1),
                     samples.end());
    r.value = samples[r.rank - 1];
    r.beyond = n - r.rank;
    return r;
}

/** Samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/** Smallest sample count whose @p percent percentile has kMinBeyond
 *  samples past it (1000 for p99, 20 for p50). */
inline std::size_t
minSamplesFor(unsigned percent)
{
    std::size_t n = 1;
    while (n - std::clamp<std::size_t>((percent * n + 99) / 100, 1, n) <
           kMinBeyond)
        ++n;
    return n;
}

/**
 * Open-loop schedule: frame k of stream s (of @p streams) is due at
 * start + (k + s / streams) * period. Streams are staggered evenly
 * inside a period so that equal-rate streams offer a uniform load.
 */
struct DueSchedule
{
    Clock::time_point start{};
    double periodMs = 0.0;
    int streams = 1;

    Clock::time_point due(std::size_t k, int s) const
    {
        const double ms =
            (static_cast<double>(k) + static_cast<double>(s) / streams) *
            periodMs;
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
    }
};

enum class Outcome
{
    Completed,
    Failed,       ///< the encode (or delivery) threw
    Quarantined,  ///< the service withheld a corrupt frame
};

/**
 * Per-frame accounting of one measured run. A frame is timed from
 * @p start, its due time, so that a stall is charged to every frame
 * queued behind it, to @p done. A frame that did not complete, or completed after the
 * deadline, is a miss.
 */
class FrameLedger
{
  public:
    explicit FrameLedger(double deadline_ms) : deadlineMs_(deadline_ms) {}

    void record(Clock::time_point start, Clock::time_point done,
                Outcome outcome)
    {
        ++attempted_;
        if (outcome != Outcome::Completed) {
            ++failed_;
            ++missed_;
            return;
        }
        const double ms = msBetween(start, done);
        latencies_.push_back(ms);
        if (ms > deadlineMs_)
            ++missed_;
    }

    std::size_t attempted() const { return attempted_; }
    /** Frames that failed or were quarantined (no output). */
    std::size_t failed() const { return failed_; }
    std::size_t missed() const { return missed_; }
    std::size_t completed() const { return latencies_.size(); }
    double deadlineMs() const { return deadlineMs_; }
    /** Share of attempted frames that completed within the deadline. */
    double metFraction() const
    {
        return attempted_ == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(missed_) /
                               static_cast<double>(attempted_);
    }
    /** Latencies of the completed frames, in record order. */
    const std::vector<double> &latenciesMs() const { return latencies_; }

  private:
    double deadlineMs_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t missed_ = 0;
    std::vector<double> latencies_;
};

/** Median of a sample set (0 when empty). */
inline double
median(const std::vector<double> &v)
{
    return nearestRank(v, 50).value;
}

/**
 * Median over @p windows consecutive, equal-count windows of the
 * per-window @p percent percentile: a noisy stretch of the run moves
 * one window, not the result.
 */
inline double
windowedPercentile(const std::vector<double> &v, unsigned percent,
                   std::size_t windows)
{
    const std::size_t per = v.size() / std::max<std::size_t>(windows, 1);
    if (per == 0)
        return nearestRank(v, percent).value;
    std::vector<double> each;
    for (std::size_t w = 0; w < windows; ++w)
        each.push_back(
            nearestRank(std::vector<double>(
                            v.begin() + static_cast<long>(w * per),
                            v.begin() + static_cast<long>((w + 1) * per)),
                        percent)
                .value);
    return median(each);
}

/**
 * Completions per second, as the median over @p windows consecutive
 * equal-count windows of the completions in time order. Window w holds
 * completions w*per+1 .. (w+1)*per and spans from the completion before
 * it (the start of measurement, for the first) to its last one, so a
 * stretch of host stalls slows one window, not the result. @p done_s
 * are completion times, seconds since measurement started.
 */
inline double
windowedRate(std::vector<double> done_s, std::size_t windows)
{
    std::sort(done_s.begin(), done_s.end());
    const std::size_t n = done_s.size();
    const std::size_t per = n / std::max<std::size_t>(windows, 1);
    if (per == 0)
        return n > 0 && done_s.back() > 0.0
                   ? static_cast<double>(n) / done_s.back()
                   : 0.0;
    std::vector<double> each;
    for (std::size_t w = 0; w < windows; ++w) {
        const double from = w == 0 ? 0.0 : done_s[w * per - 1];
        const double span = done_s[(w + 1) * per - 1] - from;
        each.push_back(static_cast<double>(per) / std::max(span, 1e-9));
    }
    return median(each);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH

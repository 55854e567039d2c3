/**
 * @file
 * Self-tests of the benchmark's own arithmetic (stats.hh), run by
 * `perfbench --self-test` before every measured run: a wrong
 * percentile or a miss that goes uncounted would make every number the
 * benchmark prints wrong in a way no output check can see.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hh"

namespace perfbench {

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-9;
}

Clock::time_point
at(double ms)
{
    return Clock::time_point{} +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(ms));
}

void
testNearestRank()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)  // 100 .. 1, unsorted on purpose
        v.push_back(i);
    check(near(nearestRank(v, 50).value, 50.0), "p50 of 1..100 is 50");
    check(near(nearestRank(v, 99).value, 99.0), "p99 of 1..100 is 99");
    check(near(nearestRank(v, 100).value, 100.0), "p100 is the maximum");
    check(near(nearestRank(v, 0).value, 1.0), "p0 clamps to the minimum");
    check(nearestRank(v, 99).beyond == 1, "one sample beyond p99 of 100");
    check(nearestRank({}, 50).rank == 0, "empty sample has no rank");
    check(near(nearestRank({7.0}, 99).value, 7.0), "single sample");
    // ceil, not round: rank ceil(0.5 * 5) = 3 -> third smallest.
    check(near(nearestRank({5, 1, 4, 2, 3}, 50).value, 3.0),
          "p50 of five samples is the third smallest");
    check(near(nearestRank({4, 1, 3, 2}, 50).value, 2.0),
          "p50 of four samples is the second smallest");
}

void
testTailRule()
{
    check(minSamplesFor(99) == 1000, "p99 needs 1000 samples");
    check(minSamplesFor(50) == 20, "p50 needs 20 samples");
    std::vector<double> v(999, 1.0);
    check(nearestRank(v, 99).beyond == 9, "999 samples leave 9 beyond p99");
    v.push_back(1.0);
    check(nearestRank(v, 99).beyond == kMinBeyond,
          "1000 samples leave 10 beyond p99");
}

void
testWindowedPercentile()
{
    // Ten windows of ten samples; one window is a noisy stretch.
    std::vector<double> v;
    for (int w = 0; w < 10; ++w)
        for (int i = 1; i <= 10; ++i)
            v.push_back(w == 3 ? 100.0 : i);
    check(near(windowedPercentile(v, 50, 10), 5.0),
          "a noisy window does not move the windowed median");
    check(near(nearestRank(v, 50).value, 6.0),
          "while it does move the plain median");
    check(near(windowedPercentile({3, 1, 2}, 50, 10), 2.0),
          "fewer samples than windows fall back to the plain median");
}

void
testWindowedRate()
{
    // 100 completions 10 ms apart, except a 500 ms stall before the
    // 35th: one window of ten runs slow, the other nine at 100/s.
    std::vector<double> done;
    double t = 0.0;
    for (int i = 1; i <= 100; ++i) {
        t += i == 35 ? 0.5 : 0.01;
        done.push_back(t);
    }
    check(near(windowedRate(done, 10), 100.0),
          "a stalled window does not move the windowed rate");
    check(100.0 / done.back() < 70.0,
          "while it does move the whole-run rate");
    check(near(windowedRate({0.5, 0.25}, 10), 4.0),
          "fewer completions than windows fall back to the whole run");
    check(windowedRate({}, 10) == 0.0, "no completions, no rate");
}

void
testDueTimeAccounting()
{
    // One stream, 10 ms period and deadline. The consumer stalls on
    // frame 3 for 35 ms, then drains the backlog 1 ms apart: frames
    // queued behind the stall are charged the wait from their own due
    // time, although each took 1 ms once it was served.
    const DueSchedule sched{at(0.0), 10.0, 1};
    FrameLedger ledger(10.0);
    const double done_ms[] = {2, 12, 22, 65, 66, 67, 68, 72};
    for (std::size_t k = 0; k < 8; ++k)
        ledger.record(sched.due(k, 0), at(done_ms[k]), Outcome::Completed);
    const std::vector<double> &lat = ledger.latenciesMs();
    check(near(lat[3], 35.0), "stalled frame timed from its due time");
    check(near(lat[4], 26.0) && near(lat[5], 17.0) && near(lat[6], 8.0),
          "frames behind the stall carry the backlog");
    check(ledger.missed() == 3, "the stall and two queued frames missed");
    check(near(ledger.metFraction(), 5.0 / 8.0), "met fraction 5/8");

    // Two streams are staggered half a period apart.
    const DueSchedule two{at(0.0), 10.0, 2};
    check(near(msBetween(at(0.0), two.due(3, 1)), 35.0),
          "stream 1 of 2 is due half a period after stream 0");
}

void
testFailuresAreMisses()
{
    FrameLedger ledger(10.0);
    ledger.record(at(0), at(1), Outcome::Completed);
    ledger.record(at(0), at(1), Outcome::Quarantined);
    ledger.record(at(0), at(1), Outcome::Failed);
    // A delivery that timed out goes out later, timed from its due time.
    ledger.record(at(0), at(31), Outcome::Completed);
    check(ledger.attempted() == 4, "four attempted");
    check(ledger.failed() == 2, "quarantine and failure fail");
    check(ledger.missed() == 3, "failures and the timed-out frame miss");
    check(ledger.completed() == 2, "only completed frames have latency");
    check(near(ledger.latenciesMs()[1], 31.0),
          "the timed-out frame carries its whole wait");
    check(near(ledger.metFraction(), 0.25), "met fraction 1/4");
}

} // namespace

int
runSelfTests()
{
    failures = 0;
    testNearestRank();
    testTailRule();
    testWindowedPercentile();
    testWindowedRate();
    testDueTimeAccounting();
    testFailuresAreMisses();
    if (failures == 0)
        std::printf("self-test: all checks passed\n");
    return failures;
}

} // namespace perfbench

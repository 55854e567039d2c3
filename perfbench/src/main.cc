/**
 * @file
 * perfbench: the repository benchmark (README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --self-test
 *
 * --trace 0 runs the workload with tracing off and prints every
 * end-to-end metric; --trace 1 runs it untraced and traced for half the
 * time each and replays its inputs layer by layer, printing every
 * per-layer metric. Either way the outputs are checked against a
 * serial single-shot encoder, a human-readable summary goes to stdout,
 * and the last stdout line is one JSON object. Exit status 1 on any
 * output mismatch, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "layers.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench {
int runSelfTests();
}

namespace {

using namespace perfbench;

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 31;
/** frame_p50_ms and throughput_mps are medians over this many
 *  consecutive windows, so that a stretch of host noise moves one
 *  window only. */
constexpr std::size_t kLatencyWindows = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n       perfbench --self-test\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val);
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (!findWorkload(a.workload))
        usage("unknown or missing --workload");
    if (!(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    return a;
}

/** Peak resident set (VmHWM) of this process, MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Correctness of one live run: inline errors plus the re-encode. */
struct Checked
{
    std::size_t failedFrames = 0;
    std::vector<std::string> errors;
    Verification verification;
};

Checked
check(const Inputs &in, const LiveResult &live)
{
    Checked c;
    c.verification = verifyRun(in, live);
    c.errors = live.errors;
    c.errors.insert(c.errors.end(), c.verification.errors.begin(),
                    c.verification.errors.end());
    c.failedFrames = live.ledger.failed() + c.verification.mismatched +
                     live.errors.size();
    return c;
}

void
printSummary(const Inputs &in, const LiveResult &live, const char *label)
{
    const FrameLedger &l = live.ledger;
    const Percentile p99 = nearestRank(l.latenciesMs(), 99);
    std::printf("%s %s: %zu frames attempted, %zu completed, %zu missed "
                "(limit %.1f ms), %zu failed; latency p50 %.3f ms (median "
                "of %zu windows %.3f ms), p99 %.3f ms (rank %zu of %zu, "
                "%zu beyond)\n",
                in.spec.name, label, l.attempted(), l.completed(),
                l.missed(), l.deadlineMs(), l.failed(),
                nearestRank(l.latenciesMs(), 50).value, kLatencyWindows,
                windowedPercentile(l.latenciesMs(), 50, kLatencyWindows),
                p99.value, p99.rank, l.completed(), p99.beyond);
    std::printf("%s %s: %.3f s of process CPU time over the measured "
                "frames, %.4f ms per frame due\n",
                in.spec.name, label, live.cpuSeconds,
                l.attempted() ? live.cpuSeconds * 1e3 /
                                    static_cast<double>(l.attempted())
                              : 0.0);
    if (!live.generatorLateMs.empty())
        std::printf("%s %s: generator late p50 %.3f ms, p99 %.3f ms, "
                    "max %.3f ms\n",
                    in.spec.name, label,
                    nearestRank(live.generatorLateMs, 50).value,
                    nearestRank(live.generatorLateMs, 99).value,
                    nearestRank(live.generatorLateMs, 100).value);
    if (!live.submitMs.empty())
        std::printf("%s %s: submit p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, "
                    "max %.3f ms\n",
                    in.spec.name, label, nearestRank(live.submitMs, 50).value,
                    nearestRank(live.submitMs, 90).value,
                    nearestRank(live.submitMs, 99).value,
                    nearestRank(live.submitMs, 100).value);
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

std::vector<Metric>
endToEnd(const Inputs &in, const LiveResult &live, const Checked &c)
{
    const WorkloadSpec &sp = in.spec;
    const FrameLedger &l = live.ledger;
    const DeliveryTotals &d = live.delivery;
    auto frac = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double completed = static_cast<double>(l.completed());
    std::vector<Metric> m;
    m.push_back({"cpu_ms_per_frame",
                 frac(live.cpuSeconds * 1e3,
                      static_cast<double>(l.attempted())),
                 "ms"});
    m.push_back({"deadline_met_frac", l.metFraction(), "ratio"});
    m.push_back({"throughput_mps",
                 static_cast<double>(sp.width) * sp.height / 1e6 *
                     windowedRate(live.doneSeconds, kLatencyWindows),
                 "MP/s"});
    m.push_back({"bits_per_pixel", c.verification.bitsPerPixel, "bit/px"});
    // Without the delivery tier a frame's wire cost is its BD stream;
    // a frame is intact and all its tiles arrive once it is collected
    // and matches the reference.
    const double intact =
        completed - static_cast<double>(c.verification.mismatched);
    m.push_back({"wire_bytes_per_frame",
                 sp.delivery ? frac(static_cast<double>(d.bytesSent),
                                    static_cast<double>(d.frames))
                             : c.verification.streamBytesPerFrame,
                 "B"});
    m.push_back({"foveal_intact_frac",
                 sp.delivery ? frac(static_cast<double>(d.fovealIntact),
                                    static_cast<double>(d.frames))
                             : frac(intact, completed),
                 "ratio"});
    m.push_back({"delivered_tile_frac",
                 sp.delivery ? frac(static_cast<double>(d.tilesDelivered),
                                    static_cast<double>(d.tilesDue))
                             : frac(intact,
                                    static_cast<double>(l.attempted())),
                 "ratio"});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--self-test")
        return runSelfTests() == 0 ? 0 : 1;
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec &spec = *findWorkload(args.workload);

    try {
        // Set-up, repeated: inputs from the seed, then the service
        // side built and torn down. The last inputs are the run's.
        // Timed in process CPU seconds, as cpu_ms_per_frame is, so that
        // the time the host's other guests take (steal) stays out.
        std::vector<double> setup_s;
        Inputs in;
        for (int i = 0; i < kSetupRepeats; ++i) {
            in = Inputs();  // one pool in memory at a time
            const double t0 = processCpuSeconds();
            in = makeInputs(spec, args.seed, args.seconds);
            constructAndDestroyRig(in);
            setup_s.push_back(processCpuSeconds() - t0);
        }

        std::size_t attempted = 0, failed = 0;
        std::vector<Metric> metrics;
        std::vector<std::string> errors;
        auto absorb = [&](const LiveResult &live, const Checked &c) {
            attempted += live.ledger.attempted();
            failed += c.failedFrames;
            errors.insert(errors.end(), c.errors.begin(), c.errors.end());
        };

        if (args.trace == 0) {
            const LiveResult live = runLive(in, args.seconds, false);
            // Before the check: its reference encoders are not part of
            // the system under test.
            const double rss_mb = peakRssMb();
            const Checked c = check(in, live);
            absorb(live, c);
            printSummary(in, live, "untraced");
            std::printf("%s: checked %zu collected frames against the "
                        "serial encoder, decoded %zu references\n",
                        spec.name, c.verification.checkedFrames,
                        c.verification.decodedFrames);
            metrics = endToEnd(in, live, c);
            metrics.push_back({"setup_s", median(setup_s), "s"});
            metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
        } else {
            const LiveResult plain = runLive(in, args.seconds / 2, false);
            const LiveResult traced = runLive(in, args.seconds / 2, true);
            for (const LiveResult *live : {&plain, &traced}) {
                const Checked c = check(in, *live);
                absorb(*live, c);
            }
            printSummary(in, plain, "untraced");
            printSummary(in, traced, "traced");
            LayerReport layers;
            replayLayers(in, layers);
            serviceLayers(traced, layers);
            errors.insert(errors.end(), layers.errors.begin(),
                          layers.errors.end());
            failed += layers.errors.size();
            layers.add("obs.trace_overhead",
                       median(traced.ledger.latenciesMs()) /
                           median(plain.ledger.latenciesMs()),
                       "x");
            layers.add("gen.late_ms.p99",
                       nearestRank(plain.generatorLateMs, 99).value, "ms");
            // Wall-clock latency follows the host's steal time, so it is
            // reported here and not gated (README.md, "Why CPU time per
            // frame is gated and latency is not").
            layers.add("frame_p50_ms",
                       windowedPercentile(plain.ledger.latenciesMs(), 50,
                                          kLatencyWindows),
                       "ms");
            // The tails, over both halves so that the p99 has ten
            // samples beyond it: reported, not gated (README.md, "Why
            // the tails are per-layer").
            auto both = [](std::vector<double> a,
                           const std::vector<double> &b) {
                a.insert(a.end(), b.begin(), b.end());
                return a;
            };
            const std::vector<double> latencies =
                both(plain.ledger.latenciesMs(), traced.ledger.latenciesMs());
            if (nearestRank(latencies, 99).beyond < kMinBeyond)
                std::fprintf(stderr,
                             "perfbench: warning: frame_p99_ms needs %zu "
                             "completed frames\n",
                             minSamplesFor(99));
            layers.add("frame_p99_ms", nearestRank(latencies, 99).value,
                       "ms");
            layers.add("submit_block_p99_ms",
                       nearestRank(both(plain.submitMs, traced.submitMs), 99)
                           .value,
                       "ms");
            for (const std::string &f : layers.flags)
                std::printf("FLAG %s: %s\n", spec.name, f.c_str());
            if (traced.droppedEvents)
                std::printf("%s traced: %llu trace events dropped to ring "
                            "wraparound\n",
                            spec.name,
                            static_cast<unsigned long long>(
                                traced.droppedEvents));
            metrics = std::move(layers.metrics);
        }

        const bool correct = errors.empty();
        for (const std::string &e : errors)
            std::fprintf(stderr, "perfbench: MISMATCH %s: %s\n", spec.name,
                         e.c_str());
        for (const Metric &m : metrics)
            std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::fflush(stdout);
        printJson(correct, attempted, failed, metrics);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", spec.name, e.what());
        return 1;
    }
}

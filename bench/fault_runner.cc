/**
 * @file
 * Fault-injection campaign runner: sweeps seeded single- and
 * multi-bit flips over every named surface of the encode pipeline
 * (src/fault/campaign.hh), baseline defenses versus the selective
 * integrity hardening, and appends a dated `"bench": "fault_campaign"`
 * record to BENCH_encoder.json (schema in docs/PERF.md) with
 * per-surface detection coverage and silent-corruption rates for both
 * configurations — the measured before/after of docs/FAULTS.md.
 *
 * Also measures what the hardening costs: a frame-encode loop with
 * and without the per-frame integrity work (input hash at submit,
 * seal at encode, seal verify at collect), reported as MP/s.
 *
 * Knobs (environment): PCE_BENCH_FAULT_WIDTH / PCE_BENCH_FAULT_HEIGHT
 * (campaign frame, default 128x128 — small on purpose: thousands of
 * trials each encode or decode a frame), PCE_BENCH_FAULT_TRIALS
 * (trials per surface/flip-count/configuration, default 400),
 * PCE_BENCH_THREADS, PCE_BENCH_REPEATS (best-of rounds for the
 * overhead measurement, default 3). Output path: argv[1] or
 * PCE_BENCH_OUT, default BENCH_encoder.json.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_record.hh"
#include "common/integrity.hh"
#include "fault/campaign.hh"

namespace {

using namespace pce;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct OverheadResult
{
    double baselineMps = 0.0;  ///< encode only
    double hardenedMps = 0.0;  ///< encode + hash + seal + verify
};

/**
 * The per-frame cost of the integrity work, isolated: the same encode
 * loop, with and without hash64 over the input, sealFrame after the
 * encode, and verifyFrameSeal before "delivery" — the exact checks
 * the hardened service runs per frame.
 */
OverheadResult
overheadBench(int w, int h, int threads, int frames, int repeats)
{
    const DisplayGeometry geom = bench::benchDisplay(w, h);
    const EccentricityMap ecc(geom);
    PipelineParams pp;
    pp.threads = threads;
    const PerceptualEncoder enc(bench::benchModel(), pp);
    const ImageF frame = renderScene(SceneId::Office, {w, h, 0, 0, 0});
    const double mp = static_cast<double>(frame.pixelCount()) / 1e6 *
                      frames;

    OverheadResult best;
    EncodedFrame out;
    enc.encodeFrameInto(frame, ecc, out);  // warm buffers
    for (int r = 0; r < repeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < frames; ++i) {
            enc.encodeFrameInto(frame, ecc, out);
            if (out.bdStream.empty())
                std::abort();
        }
        const double base_s = seconds(t0, Clock::now());

        const Clock::time_point t1 = Clock::now();
        for (int i = 0; i < frames; ++i) {
            const std::uint64_t in_hash =
                hash64(frame.pixels().data(),
                       frame.pixels().size() * sizeof(Vec3));
            enc.encodeFrameInto(frame, ecc, out);
            sealFrame(out);
            if (in_hash == 0 || !verifyFrameSeal(out))
                std::abort();
        }
        const double hard_s = seconds(t1, Clock::now());

        best.baselineMps = std::max(best.baselineMps, mp / base_s);
        best.hardenedMps = std::max(best.hardenedMps, mp / hard_s);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const int w =
        static_cast<int>(envInt("PCE_BENCH_FAULT_WIDTH", 128));
    const int h =
        static_cast<int>(envInt("PCE_BENCH_FAULT_HEIGHT", 128));
    const int threads = bench::benchThreads();
    const int trials =
        static_cast<int>(envInt("PCE_BENCH_FAULT_TRIALS", 400));
    const int repeats =
        static_cast<int>(envInt("PCE_BENCH_REPEATS", 3));
    if (w < 8 || h < 8 || trials < 1 || repeats < 1) {
        std::cerr << "fault_runner: frame must be >= 8x8, "
                     "PCE_BENCH_FAULT_TRIALS and PCE_BENCH_REPEATS "
                     ">= 1\n";
        return 1;
    }
    const std::string out_path = bench::benchOutPath(argc, argv);

    FaultCampaignConfig cfg;
    cfg.width = w;
    cfg.height = h;
    cfg.threads = threads;
    cfg.trialsPerSurface = trials;
    cfg.flipCounts = {1, 3};

    std::cout << "fault campaign: " << w << "x" << h << " frame, "
              << trials << " trials x {1,3} flips x "
              << kFaultSurfaceCount
              << " surfaces x {baseline, hardened}...\n";
    const Clock::time_point t0 = Clock::now();
    const FaultCampaignReport report = runFaultCampaign(cfg);
    const double campaign_s = seconds(t0, Clock::now());

    const OverheadResult overhead =
        overheadBench(w, h, threads, 48, repeats);

    const FaultSurface surfaces[] = {
        FaultSurface::TileScratch, FaultSurface::BdStream,
        FaultSurface::PngPayload,  FaultSurface::QueueSlot,
        FaultSurface::EccMap,      FaultSurface::FrameOutput,
        FaultSurface::NetPacket,
    };
    int max_flips = 0;
    for (const int f : cfg.flipCounts)
        max_flips = std::max(max_flips, f);
    const int total_flips =
        static_cast<int>(report.outcomes.size()) * trials;

    bench::Record rec("fault_campaign", threads);
    rec.num("width", w)
        .num("height", h)
        .num("repeats", trials)
        .num("total_trials", total_flips)
        .num("max_flips", max_flips)
        .num("campaign_seconds", campaign_s)
        .num("baseline_encode_mps", overhead.baselineMps)
        .num("hardened_encode_mps", overhead.hardenedMps);
    for (const FaultSurface s : surfaces) {
        const SurfaceOutcome base = report.aggregate(s, false);
        const SurfaceOutcome hard = report.aggregate(s, true);
        const std::string p = faultSurfaceName(s);
        rec.num(p + "_baseline_coverage", base.coverage())
            .num(p + "_hardened_coverage", hard.coverage())
            .num(p + "_baseline_silent_rate", base.silentRate())
            .num(p + "_hardened_silent_rate", hard.silentRate());
    }

    std::cout << "campaign finished in " << campaign_s << " s ("
              << total_flips << " trials)\n"
              << "surface                baseline cov / silent   "
                 "hardened cov / silent\n";
    for (const FaultSurface s : surfaces) {
        const SurfaceOutcome base = report.aggregate(s, false);
        const SurfaceOutcome hard = report.aggregate(s, true);
        std::printf("%-22s %8.3f / %-8.3f %10.3f / %-8.3f\n",
                    faultSurfaceName(s), base.coverage(),
                    base.silentRate(), hard.coverage(),
                    hard.silentRate());
    }
    std::cout << "integrity overhead: " << overhead.baselineMps
              << " MP/s baseline vs " << overhead.hardenedMps
              << " MP/s hardened\n";
    return rec.appendTo(out_path) ? 0 : 1;
}

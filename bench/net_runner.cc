/**
 * @file
 * Lossy-transport delivery bench: runs an animated scene sequence
 * through the full encode -> packetize -> lossy channel -> NACK/
 * retransmit -> deadline reassembly path (src/net) at a sweep of loss
 * rates {0%, 10%, 25%}, and appends a dated `"bench": "net_delivery"`
 * record to BENCH_encoder.json (fields: bench/bench_record.hh; what
 * each measures: docs/PERF.md). PSNR is of the degraded output against
 * the clean encode of the same frame, capped at 99 dB.
 *
 * At 0% loss the run aborts unless every frame reassembles
 * byte-identically (manifest CRC-32 proof) — the bench doubles as the
 * end-to-end transparency check.
 *
 * A second, adaptive sweep runs the step and burst time-varying loss
 * schedules (net/rate_control.hh) under a persistent RateController
 * and records, per schedule, how many frames after the loss ends
 * byte-identical delivery takes to return, the mean budget, and the
 * foveal-intact and delivered-tile rates.
 *
 * Knobs (environment): PCE_BENCH_WIDTH / PCE_BENCH_HEIGHT (default
 * 512x512), PCE_BENCH_NET_FRAMES (frames per loss point, default 12),
 * PCE_BENCH_THREADS. Output path: argv[1] or PCE_BENCH_OUT, default
 * BENCH_encoder.json.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_record.hh"
#include "net/delivery.hh"

namespace {

using namespace pce;

struct LossPointResult
{
    int lossPercent = 0;
    double deliveredTileFraction = 0.0;
    double fovealIntactRate = 0.0;
    double retransmitOverhead = 0.0;
    double effectivePsnrDb = 0.0;
};

struct ScheduleResult
{
    net::LossScheduleId schedule = net::LossScheduleId::Step;
    int frames = 0;
    /** Frames after the last lossy frame until full (byte-identical)
     *  delivery returned; 0 = the very next frame, -1 = never within
     *  the run. */
    int convergenceFrames = -1;
    double meanBudgetBytesPerRound = 0.0;
    double fovealIntactRate = 0.0;
    double deliveredTileFraction = 0.0;
};

/**
 * Adaptive sweep: one time-varying loss schedule (rate_control.hh)
 * over @p streams with a persistent RateController. The controller's
 * floor is provisioned at ~1.1x the clean-channel need, so the
 * schedule's clean head is transparent and convergence measures how
 * fast the estimator's derate decays after the loss ends.
 */
ScheduleResult
runSchedule(net::LossScheduleId schedule,
            const std::vector<std::vector<std::uint8_t>> &streams,
            const EccentricityMap &ecc, std::size_t max_wire_bytes)
{
    const int frames = static_cast<int>(streams.size());
    net::LossyChannelConfig ch;
    ch.seed = 0xada97 + static_cast<std::uint64_t>(schedule);
    net::LossyChannel channel(ch);

    net::SenderPolicy policy;
    policy.sessionId = 0x5e55;
    policy.streamId = 2;
    policy.adaptiveRate = true;
    policy.rateControl.minBudgetBytesPerRound =
        max_wire_bytes + max_wire_bytes / 10 +
        static_cast<std::size_t>(policy.deadlineRounds) * policy.mtuBytes;
    policy.rateControl.minBudgetBytesPerRound /=
        static_cast<std::size_t>(policy.deadlineRounds);
    policy.rateControl.initialBudgetBytesPerRound =
        policy.rateControl.minBudgetBytesPerRound;
    policy.rateControl.maxBudgetBytesPerRound = max_wire_bytes;
    policy.rateControl.additiveIncreaseBytes =
        std::max<std::size_t>(1200, max_wire_bytes / 64);
    policy.rateControl.multiplicativeDecrease = 0.9;

    net::ReassemblerParams rp;
    rp.sessionId = policy.sessionId;
    net::FrameReassembler rx(rp);
    net::RateController rate(policy.rateControl);

    ScheduleResult res;
    res.schedule = schedule;
    res.frames = frames;
    std::size_t tiles_total = 0, tiles_delivered = 0;
    int foveal_intact_frames = 0;
    double budget_sum = 0.0;
    int last_lossy = -1;
    int first_identical_after_loss = -1;

    ImageU8 delivered;
    for (int f = 0; f < frames; ++f) {
        const double drop =
            net::scheduledDropRate(schedule, f, frames);
        channel.setDropRate(drop);
        if (drop > 0.0) {
            last_lossy = f;
            first_identical_after_loss = -1;
        }
        const net::DeliveryReport rep = net::deliverFrame(
            streams[static_cast<std::size_t>(f)],
            static_cast<std::uint64_t>(f), &ecc, channel, rx,
            delivered, policy, &rate);
        tiles_total += rep.frame.totalTiles;
        tiles_delivered += rep.frame.deliveredTiles;
        if (rep.fovealIntact)
            ++foveal_intact_frames;
        budget_sum +=
            static_cast<double>(rep.budgetBytesPerRound);
        if (drop == 0.0 && last_lossy >= 0 &&
            first_identical_after_loss < 0 && rep.frame.byteIdentical)
            first_identical_after_loss = f;
    }
    res.convergenceFrames =
        last_lossy >= 0 && first_identical_after_loss >= 0
            ? first_identical_after_loss - last_lossy - 1
            : -1;
    res.meanBudgetBytesPerRound =
        frames ? budget_sum / frames : 0.0;
    res.fovealIntactRate =
        frames ? static_cast<double>(foveal_intact_frames) / frames
               : 1.0;
    res.deliveredTileFraction =
        tiles_total ? static_cast<double>(tiles_delivered) / tiles_total
                    : 1.0;
    return res;
}

LossPointResult
runLossPoint(const PerceptualEncoder &enc, const EccentricityMap &ecc,
             int loss_percent, int frames, int w, int h)
{
    net::LossyChannelConfig ch;
    ch.dropRate = loss_percent / 100.0;
    if (loss_percent > 0) {
        ch.duplicateRate = 0.02;
        ch.corruptRate = 0.02;
        ch.reorderRate = 0.10;
    }
    ch.seed = 0xbe7ce11 + static_cast<std::uint64_t>(loss_percent);
    net::LossyChannel channel(ch);

    net::SenderPolicy policy;
    policy.sessionId = 0x5e55;
    policy.streamId = 1;
    net::ReassemblerParams rp;
    rp.sessionId = policy.sessionId;
    net::FrameReassembler rx(rp);

    LossPointResult res;
    res.lossPercent = loss_percent;
    std::size_t tiles_total = 0, tiles_delivered = 0;
    std::size_t bytes_sent = 0, bytes_retx = 0;
    int foveal_intact_frames = 0;
    double psnr_sum = 0.0;

    EncodedFrame encoded;
    ImageU8 delivered;
    for (int i = 0; i < frames; ++i) {
        RenderOptions opt;
        opt.width = w;
        opt.height = h;
        opt.time = 20.0 * i / frames;
        const ImageF frame = renderScene(SceneId::Skyline, opt);
        enc.encodeFrameInto(frame, ecc, encoded);

        const net::DeliveryReport rep = net::deliverFrame(
            encoded.bdStream, static_cast<std::uint64_t>(i), &ecc,
            channel, rx, delivered, policy);
        tiles_total += rep.frame.totalTiles;
        tiles_delivered += rep.frame.deliveredTiles;
        bytes_sent += rep.bytesSent;
        bytes_retx += rep.retransmittedBytes;
        if (rep.fovealIntact)
            ++foveal_intact_frames;
        psnr_sum += std::min(
            99.0, psnr(delivered, encoded.adjustedSrgb));

        if (loss_percent == 0 && !rep.frame.byteIdentical) {
            std::cerr << "net_runner: frame " << i
                      << " not byte-identical over a clean channel\n";
            std::abort();
        }
    }
    res.deliveredTileFraction =
        tiles_total ? static_cast<double>(tiles_delivered) / tiles_total
                    : 1.0;
    res.fovealIntactRate =
        frames ? static_cast<double>(foveal_intact_frames) / frames
               : 1.0;
    res.retransmitOverhead =
        bytes_sent ? static_cast<double>(bytes_retx) / bytes_sent : 0.0;
    res.effectivePsnrDb = frames ? psnr_sum / frames : 0.0;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const int w = bench::benchWidth();
    const int h = bench::benchHeight();
    const int threads = bench::benchThreads();
    const int frames =
        static_cast<int>(envInt("PCE_BENCH_NET_FRAMES", 12));
    if (w < 8 || h < 8 || frames < 1) {
        std::cerr << "net_runner: frame must be >= 8x8 and "
                     "PCE_BENCH_NET_FRAMES >= 1\n";
        return 1;
    }
    const std::string out_path = bench::benchOutPath(argc, argv);

    const DisplayGeometry geom = bench::benchDisplay(w, h);
    const EccentricityMap ecc(geom);
    PipelineParams pp;
    pp.threads = threads;
    const PerceptualEncoder enc(bench::benchModel(), pp);

    std::cout << "net delivery: " << w << "x" << h << ", " << frames
              << " frames per loss point, loss sweep {0, 10, 25}%...\n";
    std::vector<LossPointResult> results;
    for (const int loss : {0, 10, 25})
        results.push_back(runLossPoint(enc, ecc, loss, frames, w, h));

    // Adaptive rate-control sweep over time-varying schedules. The
    // content is encoded once and replayed per schedule so the two
    // runs differ only in channel history.
    const int adaptive_frames = std::max(24, frames);
    std::cout << "adaptive sweep: {step, burst} schedules, "
              << adaptive_frames << " frames each...\n";
    std::vector<std::vector<std::uint8_t>> streams;
    std::size_t max_wire = 0;
    {
        EncodedFrame encoded;
        net::PacketizerParams pkp;
        for (int i = 0; i < adaptive_frames; ++i) {
            RenderOptions opt;
            opt.width = w;
            opt.height = h;
            opt.time = 20.0 * i / adaptive_frames;
            enc.encodeFrameInto(renderScene(SceneId::Skyline, opt),
                                ecc, encoded);
            streams.push_back(encoded.bdStream);
            max_wire = std::max(
                max_wire,
                net::packetizeFrame(encoded.bdStream,
                                    static_cast<std::uint64_t>(i),
                                    &ecc, pkp)
                    .wireBytes);
        }
    }
    std::vector<ScheduleResult> schedules;
    for (const net::LossScheduleId id :
         {net::LossScheduleId::Step, net::LossScheduleId::Burst})
        schedules.push_back(runSchedule(id, streams, ecc, max_wire));

    bench::Record rec("net_delivery", threads);
    rec.num("width", w)
        .num("height", h)
        .num("repeats", frames)
        .num("frames_per_loss_point", frames);
    for (const LossPointResult &r : results) {
        const std::string p = "loss" + std::to_string(r.lossPercent);
        rec.num(p + "_delivered_tile_fraction", r.deliveredTileFraction)
            .num(p + "_foveal_intact_rate", r.fovealIntactRate)
            .num(p + "_retransmit_overhead", r.retransmitOverhead)
            .num(p + "_effective_psnr_db", r.effectivePsnrDb);
    }
    // Presence gate for the adaptive fields (records predating the
    // rate controller lack them).
    std::string names;
    for (const ScheduleResult &r : schedules)
        names.append(names.empty() ? "" : ",")
            .append(net::lossScheduleName(r.schedule));
    rec.str("adaptive_loss_schedules", names)
        .num("adaptive_frames", adaptive_frames);
    for (const ScheduleResult &r : schedules) {
        const std::string p =
            std::string("adaptive_") + net::lossScheduleName(r.schedule);
        rec.num(p + "_convergence_frames", r.convergenceFrames)
            .num(p + "_mean_budget_bytes_per_round",
                 r.meanBudgetBytesPerRound)
            .num(p + "_foveal_intact_rate", r.fovealIntactRate)
            .num(p + "_delivered_tile_fraction", r.deliveredTileFraction);
    }

    std::cout << "loss   delivered  foveal-intact  retx-overhead  "
                 "psnr\n";
    for (const LossPointResult &r : results)
        std::printf("%3d%%   %8.4f   %12.4f   %12.4f   %6.2f dB\n",
                    r.lossPercent, r.deliveredTileFraction,
                    r.fovealIntactRate, r.retransmitOverhead,
                    r.effectivePsnrDb);
    std::cout << "sched  converge  mean-budget  foveal-intact  "
                 "delivered\n";
    for (const ScheduleResult &r : schedules)
        std::printf("%-5s  %8d   %10.0f   %12.4f   %8.4f\n",
                    net::lossScheduleName(r.schedule),
                    r.convergenceFrames, r.meanBudgetBytesPerRound,
                    r.fovealIntactRate, r.deliveredTileFraction);
    return rec.appendTo(out_path) ? 0 : 1;
}

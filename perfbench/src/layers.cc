#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "core/pipeline.hh"
#include "net/delivery.hh"

namespace perfbench {

using namespace pce;

namespace {

template <class F>
double
timeMs(F &&f)
{
    const Clock::time_point t0 = Clock::now();
    f();
    return msBetween(t0, Clock::now());
}

/** Durations (ms) of every span named @p name. */
std::vector<double>
spanMs(const std::vector<obs::TraceEvent> &events, const char *name)
{
    std::vector<double> v;
    for (const obs::TraceEvent &e : events)
        if (!e.instant && std::strcmp(e.name, name) == 0)
            v.push_back(static_cast<double>(e.endNs - e.beginNs) / 1e6);
    return v;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-participant-count samples of one replayed stage. */
using StageSamples = std::map<int, std::vector<double>>;

void
replayGaze(const Inputs &in, LayerReport &out)
{
    GazeTrackedEccentricity gaze(in.geom);
    const std::size_t n = std::min<std::size_t>(in.scanpath.size(), 400);
    std::vector<double> update_ms;
    std::size_t saccades = 0;
    for (std::size_t k = 0; k < n; ++k) {
        GazePhase phase = GazePhase::Fixation;
        update_ms.push_back(
            timeMs([&] { phase = gaze.update(in.scanpath.samples[k]); }));
        saccades += phase == GazePhase::Saccade ? 1 : 0;
    }
    // Mean, not median: the cost is bimodal (shift vs full rebuild).
    out.add("gaze.update_ms", mean(update_ms), "ms");
    out.add("gaze.rebuild_frac",
            ratio(static_cast<double>(gaze.fullRebuilds()),
                  static_cast<double>(gaze.refixations())),
            "ratio");
    out.add("gaze.saccade_frac",
            ratio(static_cast<double>(saccades), static_cast<double>(n)),
            "ratio");
}

void
replayNet(const Inputs &in,
          const std::vector<std::vector<std::uint8_t>> &streams,
          LayerReport &out)
{
    // The lossy_delivery sender over the step schedule, whatever the
    // workload: a seeded, round-based replay, so its counts repeat.
    constexpr std::size_t kFrames = 48;
    WorkloadSpec spec = in.spec;
    if (spec.provisionBitsPerPixel <= 0.0)
        spec.provisionBitsPerPixel = 8.0;
    const net::SenderPolicy policy = deliveryPolicy(spec, 0, 0);
    net::ReassemblerParams rp;
    rp.sessionId = policy.sessionId;
    net::FrameReassembler rx(rp);
    net::RateController rate(policy.rateControl);
    net::PacketizerParams pk;
    pk.mtuBytes = policy.mtuBytes;
    pk.sessionId = policy.sessionId;
    pk.streamId = policy.streamId;
    const std::uint64_t seed = in.channelSeeds.front();
    net::LossyChannel channel(channelConfig(seed, false));

    ImageU8 delivered;
    std::vector<double> pack_ms, deliver_ms;
    std::size_t rounds = 0, sent = 0, retx = 0, shed = 0;
    bool was_lossy = false;
    for (std::size_t k = 0; k < kFrames; ++k) {
        const std::vector<std::uint8_t> &stream = streams[k % streams.size()];
        const bool lossy = lossyPhase(k, kFrames);
        if (lossy != was_lossy)
            channel = net::LossyChannel(
                channelConfig(seed + 0x9e3779b97f4a7c15ULL * k, lossy));
        was_lossy = lossy;
        pack_ms.push_back(timeMs([&] {
            const net::PacketizedFrame pf =
                net::packetizeFrame(stream, k, in.ecc.get(), pk);
            if (pf.packets.empty())
                out.errors.push_back("packetizeFrame produced no packets");
        }));
        net::DeliveryReport rep;
        deliver_ms.push_back(timeMs([&] {
            rep = net::deliverFrame(stream, k, in.ecc.get(), channel, rx,
                                    delivered, policy, &rate);
        }));
        rounds += static_cast<std::size_t>(rep.roundsUsed);
        sent += rep.bytesSent;
        retx += rep.retransmittedBytes;
        shed += rep.shedBytes;
    }
    const double n = static_cast<double>(kFrames);
    out.add("net.packetize_ms", median(pack_ms), "ms");
    out.add("net.deliver_ms", median(deliver_ms), "ms");
    out.add("net.rounds_per_frame", static_cast<double>(rounds) / n,
            "rounds/frame");
    out.add("net.retx_byte_frac",
            ratio(static_cast<double>(retx), static_cast<double>(sent)),
            "ratio");
    out.add("net.shed_byte_frac",
            ratio(static_cast<double>(shed),
                  static_cast<double>(sent + shed)),
            "ratio");
    out.add("net.rejected_per_frame",
            static_cast<double>(rx.rejectedPackets()) / n, "packets/frame");
}

/** Self time of every span named @p name: its duration minus the part
 *  of it that spans nested inside it on the same thread cover, in ms. */
std::vector<double>
spanSelfMs(const std::vector<obs::TraceEvent> &events, const char *name)
{
    std::vector<double> self;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::TraceEvent &e = events[i];
        if (e.instant || std::strcmp(e.name, name) != 0)
            continue;
        // Union of the same-thread spans nested inside e.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> inner;
        for (std::size_t j = 0; j < events.size(); ++j) {
            const obs::TraceEvent &c = events[j];
            if (j != i && !c.instant && c.tid == e.tid &&
                c.beginNs >= e.beginNs && c.endNs <= e.endNs)
                inner.emplace_back(c.beginNs, c.endNs);
        }
        std::sort(inner.begin(), inner.end());
        std::uint64_t covered = 0, reach = e.beginNs;
        for (const auto &[b, en] : inner) {
            const std::uint64_t from = std::max(b, reach);
            if (en > from) {
                covered += en - from;
                reach = en;
            }
        }
        self.push_back(
            static_cast<double>(e.endNs - e.beginNs - covered) / 1e6);
    }
    return self;
}

} // namespace

void
replayLayers(const Inputs &in, LayerReport &out)
{
    const WorkloadSpec &sp = in.spec;
    const std::size_t frames = std::min<std::size_t>(8, in.cycle[0].size());
    const int reps = 12;

    // The frames' eccentricity maps: the static map, or, on the gaze
    // workload, a map fixated where the scanpath looks at that frame.
    std::vector<std::unique_ptr<EccentricityMap>> gaze_maps;
    std::vector<const EccentricityMap *> ecc;
    for (std::size_t i = 0; i < frames; ++i) {
        if (!sp.gaze) {
            ecc.push_back(in.ecc.get());
            continue;
        }
        DisplayGeometry g = in.geom;
        const GazeSample &s = in.scanpath.samples[(5 * i) %
                                                  in.scanpath.size()];
        g.fixationX = s.x;
        g.fixationY = s.y;
        gaze_maps.push_back(std::make_unique<EccentricityMap>(g));
        ecc.push_back(gaze_maps.back().get());
    }

    StageSamples adjust, quantize, bd, encode, decode;
    std::vector<std::vector<std::uint8_t>> streams(frames);
    std::vector<ImageU8> srgbs(frames);
    for (const int t : {1, 2, 4}) {
        PipelineParams pp;
        pp.threads = t;
        const PerceptualEncoder enc(benchModel(), pp);
        const BdCodec codec(pp.tileSize);
        ImageF linear;
        ImageU8 srgb, decoded;
        std::vector<std::uint8_t> stream;
        BdEncodeScratch enc_scratch;
        BdDecodeScratch dec_scratch;
        BdFrameStats stats;
        EncodedFrame whole;
        // rep -1 warms caches and pools and is not recorded.
        for (int rep = -1; rep < reps; ++rep)
            for (std::size_t i = 0; i < frames; ++i) {
                const ImageF &frame = in.frame(0, i);
                const double a = timeMs(
                    [&] { enc.adjustFrameInto(frame, *ecc[i], linear); });
                const double q = timeMs([&] { toSrgb8Into(linear, srgb); });
                const double b = timeMs([&] {
                    codec.encodeInto(srgb, &stats, stream, &enc_scratch,
                                     enc.pool(), t);
                });
                const double e = timeMs(
                    [&] { enc.encodeFrameInto(frame, *ecc[i], whole); });
                if (whole.bdStream != stream)
                    out.errors.push_back(
                        "adjustFrameInto -> toSrgb8Into -> encodeInto "
                        "differs from encodeFrameInto at " +
                        std::to_string(t) + " participants");
                double d = 0.0;
                if (t != 2) {
                    d = timeMs([&] {
                        BdCodec::decodeInto(stream, decoded, &dec_scratch,
                                            enc.pool(), t);
                    });
                    if (!(decoded == srgb))
                        out.errors.push_back(
                            "decodeInto does not reproduce the encoded "
                            "image at " + std::to_string(t) +
                            " participants");
                }
                if (rep < 0) {
                    if (t == 1) {
                        streams[i] = stream;
                        srgbs[i] = srgb;
                    }
                    continue;
                }
                adjust[t].push_back(a);
                quantize[t].push_back(q);
                bd[t].push_back(b);
                encode[t].push_back(e);
                if (t != 2)
                    decode[t].push_back(d);
            }

        if (t == 2)
            continue;
        // The bd/* spans' self times: the only use of the tracer here.
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.reset();
        obs::setTraceEnabled(true);
        for (int rep = 0; rep < reps; ++rep)
            for (std::size_t i = 0; i < frames; ++i)
                codec.encodeInto(srgbs[i], &stats, stream, &enc_scratch,
                                 enc.pool(), t);
        obs::setTraceEnabled(false);
        const std::vector<obs::TraceEvent> events = tracer.collect();
        tracer.reset();
        const std::string suffix = "_ms.t" + std::to_string(t);
        for (const char *span : {"bd/stats", "bd/prefix", "bd/emit"}) {
            const std::vector<double> self = spanSelfMs(events, span);
            if (self.empty())
                out.errors.push_back(std::string("no ") + span + " spans");
            out.add(std::string("bd.") + (span + 3) + suffix, median(self),
                    "ms");
        }

        if (t != 1)
            continue;
        std::vector<double> seal_ms, verify_ms;
        for (int rep = 0; rep < reps; ++rep)
            for (std::size_t i = 0; i < frames; ++i) {
                enc.encodeFrameInto(in.frame(0, i), *ecc[i], whole);
                seal_ms.push_back(timeMs([&] { sealFrame(whole); }));
                bool ok = false;
                verify_ms.push_back(
                    timeMs([&] { ok = verifyFrameSeal(whole); }));
                if (!ok)
                    out.errors.push_back("verifyFrameSeal rejected a "
                                         "freshly sealed frame");
            }
        out.add("integrity.seal_ms", median(seal_ms), "ms");
        out.add("integrity.verify_ms", median(verify_ms), "ms");
    }

    struct Stage
    {
        const char *name;
        StageSamples *samples;
    };
    for (const Stage &st : {Stage{"core.adjust", &adjust},
                            Stage{"color.quantize", &quantize},
                            Stage{"bd.encode", &bd},
                            Stage{"core.encode", &encode},
                            Stage{"bd.decode", &decode}}) {
        for (const auto &[t, samples] : *st.samples)
            out.add(std::string(st.name) + "_ms.t" + std::to_string(t),
                    median(samples), "ms");
        const double scaling = ratio(median((*st.samples)[1]),
                                     median((*st.samples)[4]));
        out.add(std::string(st.name) + ".scaling_t4", scaling, "x");
        if (scaling < 1.0)
            out.flags.push_back(std::string(st.name) + ".scaling_t4 = " +
                                std::to_string(scaling) +
                                " < 1: slower at 4 participants than at 1");
    }

    replayGaze(in, out);
    replayNet(in, streams, out);
}

void
serviceLayers(const LiveResult &traced, LayerReport &out)
{
    const std::vector<obs::TraceEvent> &ev = traced.events;
    const std::vector<double> submit = spanMs(ev, "service/submit");
    const std::vector<double> queue = spanMs(ev, "service/queue_wait");
    out.add("service.submit_ms.p50", nearestRank(submit, 50).value, "ms");
    out.add("service.submit_ms.p99", nearestRank(submit, 99).value, "ms");
    out.add("service.queue_wait_ms.p50", nearestRank(queue, 50).value, "ms");
    out.add("service.queue_wait_ms.p99", nearestRank(queue, 99).value, "ms");
    out.add("service.collect_wait_ms.p50",
            median(spanMs(ev, "service/collect")), "ms");
    out.add("service.dispatch_ms", median(spanMs(ev, "service/dispatch")),
            "ms");

    const ServiceReport &a = traced.before;
    const ServiceReport &b = traced.after;
    const double wall = b.wallSeconds - a.wallSeconds;
    double busy = 0.0, weighted = 0.0, calls = 0.0;
    for (std::size_t i = 0; i < b.shards.size(); ++i) {
        const ShardStats &x = a.shards[i];
        const ShardStats &y = b.shards[i];
        busy += y.busySeconds - x.busySeconds;
        const double n =
            static_cast<double>(y.poolDispatches - x.poolDispatches);
        if (y.participants > 1 && n > 0.0) {
            const double sum =
                y.poolMeanParticipants *
                    static_cast<double>(y.poolDispatches) -
                x.poolMeanParticipants *
                    static_cast<double>(x.poolDispatches);
            weighted += sum / y.participants;
            calls += n;
        }
    }
    const double encoded =
        static_cast<double>(b.framesEncoded - a.framesEncoded);
    out.add("service.occupancy",
            ratio(busy, wall * static_cast<double>(b.shards.size())),
            "ratio");
    out.add("service.steal_frac",
            ratio(static_cast<double>(b.stolenFrames - a.stolenFrames),
                  encoded),
            "ratio");
    out.add("service.queue_peak_depth",
            static_cast<double>(b.queuePeakDepth), "count");
    // Only a shard with more than one participant has a pool (hmd_gaze);
    // elsewhere every encode runs on its one participant and there is
    // nothing to report.
    if (calls > 0.0)
        out.add("pool.participation", weighted / calls, "ratio");

    // The service's numbers against the benchmark's own timing: a
    // frame waits in the queue inside the interval its latency covers.
    const double frame_p50 = median(traced.ledger.latenciesMs());
    if (!queue.empty() && nearestRank(queue, 50).value > frame_p50)
        out.errors.push_back("service queue wait p50 exceeds the frame "
                             "latency p50 the benchmark measured");
    // ...and the service's metrics registry against its own spans: the
    // longest queue wait must read the same in both.
    if (traced.droppedEvents == 0 && !queue.empty() &&
        std::abs(*std::max_element(queue.begin(), queue.end()) -
                 traced.histogramQueueMaxMs) > 0.01)
        out.errors.push_back("queue-latency histogram max disagrees with "
                             "the longest service/queue_wait span");
    if (traced.droppedEvents == 0 && traced.ledger.failed() == 0 &&
        static_cast<double>(queue.size()) != encoded)
        out.errors.push_back(
            "service/queue_wait spans (" + std::to_string(queue.size()) +
            ") disagree with ServiceReport frames encoded (" +
            std::to_string(static_cast<std::size_t>(encoded)) + ")");
}

} // namespace perfbench

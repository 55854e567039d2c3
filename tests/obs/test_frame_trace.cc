/**
 * @file
 * End-to-end frame-lifecycle trace: a seeded two-gaze-stream workload
 * on a sharded service, delivered over a seeded lossy channel, must
 * produce a trace whose per-name event counts equal values derived
 * from the service and delivery reports (deterministic under the
 * seeds), and whose spans stitch one frame's timeline contiguously:
 * submit -> queue_wait -> dispatch (with the encode passes nested
 * inside) -> collect -> deliver_frame (with packetize/rounds/finalize
 * nested inside). The exported JSON for the same run must pass the
 * strict structural check. Runs under ThreadSanitizer via
 * scripts/check.sh: producer, two dispatchers, and the delivery loop
 * all record concurrently.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../support/json_test_util.hh"
#include "net/delivery.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"
#include "service/encode_service.hh"

namespace pce {
namespace {

using namespace std::chrono_literals;

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

DisplayGeometry
geometry(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return g;
}

struct Workload
{
    std::vector<ImageF> frames;
    std::vector<GazeSample> gaze;
};

/** Seeded clip + scanpath with one saccade-speed jump at frame 3. */
Workload
workload(SceneId scene, int n, int frame_count, double phase)
{
    Workload w;
    double t = 0.0;
    for (int i = 0; i < frame_count; ++i) {
        w.frames.push_back(
            renderScene(scene, {n, n, 0, 0.2 * i + phase, 0}));
        t += (i == 3) ? 0.004 : 1.0;
        const double x = n / 2.0 + (i % 4) + (i == 3 ? n / 3.0 : 0.0);
        const double y = n / 2.0 + ((i * 2) % 5);
        w.gaze.push_back({t, x, y});
    }
    return w;
}

struct TraceIndex
{
    std::map<std::string, std::vector<obs::TraceEvent>> byName;

    explicit TraceIndex(const std::vector<obs::TraceEvent> &events)
    {
        for (const obs::TraceEvent &e : events)
            byName[e.name].push_back(e);
    }

    std::size_t count(const std::string &name) const
    {
        const auto it = byName.find(name);
        return it == byName.end() ? 0 : it->second.size();
    }

    /** Events of @p name tagged with {stream, frame}. */
    std::vector<obs::TraceEvent>
    tagged(const std::string &name, std::uint32_t stream,
           std::uint64_t frame) const
    {
        std::vector<obs::TraceEvent> out;
        const auto it = byName.find(name);
        if (it == byName.end())
            return out;
        for (const obs::TraceEvent &e : it->second)
            if (e.stream == stream && e.frame == frame)
                out.push_back(e);
        return out;
    }
};

TEST(FrameTrace, SeededRunPinsEventCountsAndStitchesOneFrame)
{
    obs::setTraceEnabled(false);
    obs::Tracer::instance().setCapacityPerThread(16384);
    obs::Tracer::instance().reset();

    const int n = 64;
    constexpr int kFrames = 8;
    const DisplayGeometry geom = geometry(n, n);
    const Workload wa = workload(SceneId::Office, n, kFrames, 0.0);
    const Workload wb = workload(SceneId::Thai, n, kFrames, 0.7);
    const EccentricityMap ecc(geom);

    ServiceParams sp;
    sp.shards = 2;
    sp.verifyRoundTrip = true;
    sp.hardenIntegrity = true;
    EncodeService svc(model(), sp);
    const StreamHandle ha = svc.openGazeStream("trace-a", geom);
    const StreamHandle hb = svc.openGazeStream("trace-b", geom);
    const std::uint32_t ida = svc.streamTraceId(ha);
    const std::uint32_t idb = svc.streamTraceId(hb);
    ASSERT_NE(ida, idb);

    // Seeded lossy channels: drops force NACK rounds and
    // retransmissions; the seeds make every count below a pure
    // function of this workload.
    net::LossyChannelConfig cc;
    cc.dropRate = 0.25;
    cc.seed = 0xace0fba5e;
    net::LossyChannel cha(cc);
    cc.seed = 0xdecafbad;
    net::LossyChannel chb(cc);

    net::SenderPolicy pa;
    pa.sessionId = 0xa;
    pa.streamId = ida;  // the stitch key: delivery tags == encode tags
    net::SenderPolicy pb;
    pb.sessionId = 0xb;
    pb.streamId = idb;
    net::DeliverySession sa(svc, ha, cha, pa, &ecc);
    net::DeliverySession sb(svc, hb, chb, pb, &ecc);

    obs::setTraceEnabled(true);
    std::uint64_t total_rounds = 0;
    std::uint64_t frames_with_shed = 0;
    std::uint64_t frames_with_retx = 0;
    for (int i = 0; i < kFrames; ++i) {
        svc.submit(ha, wa.frames[i], wa.gaze[i]);
        svc.submit(hb, wb.frames[i], wb.gaze[i]);
        for (net::DeliverySession *s : {&sa, &sb}) {
            ImageU8 out;
            const net::DeliveryReport rep =
                s->deliverNext(out, 30000ms);
            ASSERT_FALSE(rep.encodeTimedOut);
            total_rounds += static_cast<std::uint64_t>(rep.roundsUsed);
            if (rep.shedPackets > 0)
                ++frames_with_shed;
            if (rep.retransmittedPackets > 0)
                ++frames_with_retx;
        }
    }
    svc.drainAll();
    obs::setTraceEnabled(false);

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.streams.size(), 2u);
    std::uint64_t saccades = 0;
    for (const StreamStats &st : rep.streams) {
        EXPECT_EQ(st.framesEncoded, static_cast<std::uint64_t>(kFrames));
        saccades += st.saccadeFrames;
    }
    EXPECT_EQ(saccades, 2u);  // one scripted jump per stream

    ASSERT_EQ(obs::Tracer::instance().droppedEvents(), 0u)
        << "pinned counts require a loss-free trace";
    const std::vector<obs::TraceEvent> events =
        obs::Tracer::instance().collect();
    const TraceIndex idx(events);

    // Count contract: every count is derived from the reports, which
    // are themselves deterministic under the workload + channel seeds.
    const std::uint64_t F = 2 * kFrames;
    EXPECT_EQ(idx.count("service/submit"), F);
    EXPECT_EQ(idx.count("service/queue_wait"), F);
    EXPECT_EQ(idx.count("service/dispatch"), F);
    EXPECT_EQ(idx.count("service/collect"), F);
    EXPECT_EQ(idx.count("encode/gaze_update"), F);
    EXPECT_EQ(idx.count("encode/saccade_bypass"), saccades);
    EXPECT_EQ(idx.count("encode/adjust"), F - saccades);
    // The tile loop quantizes and collects the BD stats itself.
    EXPECT_EQ(idx.count("encode/quantize"), 0u);
    EXPECT_EQ(idx.count("encode/bd"), F);
    EXPECT_EQ(idx.count("bd/stats"), 0u);
    EXPECT_EQ(idx.count("bd/prefix"), F);
    EXPECT_EQ(idx.count("bd/emit"), F);
    EXPECT_EQ(idx.count("service/verify_roundtrip"), F);
    EXPECT_EQ(idx.count("service/seal"), F);
    EXPECT_EQ(idx.count("net/deliver_frame"), F);
    EXPECT_EQ(idx.count("net/packetize"), F);
    EXPECT_EQ(idx.count("net/finalize"), F);
    EXPECT_EQ(idx.count("net/round"), total_rounds);
    EXPECT_EQ(idx.count("net/shed"), frames_with_shed);
    // 25% drop over 8 deadline rounds: the seeded run must actually
    // exercise the NACK path, and every NACK instant sits in a round.
    EXPECT_GT(frames_with_retx, 0u);
    EXPECT_GE(idx.count("net/nack"), frames_with_retx);
    EXPECT_LT(idx.count("net/nack"), total_rounds);

    // Stitch contract for one fixation frame of stream a: the spans
    // chain contiguously across producer, dispatcher, delivery loop.
    const std::uint64_t frame = 2;
    const auto submit = idx.tagged("service/submit", ida, frame);
    const auto wait = idx.tagged("service/queue_wait", ida, frame);
    const auto dispatch = idx.tagged("service/dispatch", ida, frame);
    const auto collect = idx.tagged("service/collect", ida, frame);
    const auto deliver = idx.tagged("net/deliver_frame", ida, frame);
    ASSERT_EQ(submit.size(), 1u);
    ASSERT_EQ(wait.size(), 1u);
    ASSERT_EQ(dispatch.size(), 1u);
    ASSERT_EQ(collect.size(), 1u);
    ASSERT_EQ(deliver.size(), 1u);

    EXPECT_LE(submit[0].beginNs, wait[0].beginNs);
    // Exact contiguity: the queue-wait span ends on the *same*
    // captured timestamp the dispatch span begins on.
    EXPECT_EQ(wait[0].endNs, dispatch[0].beginNs);
    EXPECT_LE(dispatch[0].endNs, collect[0].endNs);
    EXPECT_LE(collect[0].endNs, deliver[0].beginNs);

    // Encode passes nest inside the dispatch span and inherit its tag
    // through the ambient TagScope.
    for (const char *name :
         {"encode/gaze_update", "encode/adjust", "encode/bd",
          "bd/prefix", "bd/emit",
          "service/verify_roundtrip", "service/seal"}) {
        const auto nested = idx.tagged(name, ida, frame);
        ASSERT_EQ(nested.size(), 1u) << name;
        EXPECT_GE(nested[0].beginNs, dispatch[0].beginNs) << name;
        EXPECT_LE(nested[0].endNs, dispatch[0].endNs) << name;
        EXPECT_EQ(nested[0].tid, dispatch[0].tid) << name;
    }

    // Delivery-side nesting, same tag, delivery-loop thread.
    for (const char *name : {"net/packetize", "net/finalize"}) {
        const auto nested = idx.tagged(name, ida, frame);
        ASSERT_EQ(nested.size(), 1u) << name;
        EXPECT_GE(nested[0].beginNs, deliver[0].beginNs) << name;
        EXPECT_LE(nested[0].endNs, deliver[0].endNs) << name;
    }
    const auto rounds = idx.tagged("net/round", ida, frame);
    ASSERT_GE(rounds.size(), 1u);
    for (const obs::TraceEvent &r : rounds) {
        EXPECT_GE(r.beginNs, deliver[0].beginNs);
        EXPECT_LE(r.endNs, deliver[0].endNs);
    }

    // The same trace must export as a structurally valid Chrome
    // trace: every event carries pid/tid/ts/ph/name (the strict
    // parser enforces well-formedness).
    std::ostringstream os;
    obs::writeChromeTrace(os);
    testjson::JsonValue doc;
    ASSERT_NO_THROW(doc = testjson::JsonParser(os.str()).parse());
    const testjson::JsonValue *exported = doc.find("traceEvents");
    ASSERT_NE(exported, nullptr);
    // Spans + the dispatcher thread_name metadata events (only
    // dispatchers that encoded at least one traced frame are named).
    EXPECT_GE(exported->array.size(), events.size());
    for (std::size_t i = 0; i < exported->array.size(); ++i) {
        const testjson::JsonValue &e = exported->array[i];
        for (const char *key : {"pid", "tid", "ts"})
            EXPECT_NE(e.find(key), nullptr)
                << "event " << i << " missing " << key;
        EXPECT_NE(e.find("ph"), nullptr) << "event " << i;
        EXPECT_NE(e.find("name"), nullptr) << "event " << i;
    }

    obs::Tracer::instance().reset();
}

TEST(FrameTrace, DisabledRunRecordsNothing)
{
    obs::setTraceEnabled(false);
    obs::Tracer::instance().reset();

    const int n = 32;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    ServiceParams sp;
    EncodeService svc(model(), sp);
    const StreamHandle h = svc.openStream("untraced", ecc);
    net::LossyChannel ch;
    net::SenderPolicy policy;
    policy.streamId = svc.streamTraceId(h);
    net::DeliverySession session(svc, h, ch, policy, &ecc);
    for (int i = 0; i < 3; ++i) {
        session.submit(renderScene(SceneId::Office, {n, n, 0, 0.1 * i, 0}));
        ImageU8 out;
        const net::DeliveryReport rep = session.deliverNext(out, 30000ms);
        EXPECT_FALSE(rep.encodeTimedOut);
    }
    svc.shutdown();
    EXPECT_EQ(obs::Tracer::instance().recordedEvents(), 0u);
}

} // namespace
} // namespace pce

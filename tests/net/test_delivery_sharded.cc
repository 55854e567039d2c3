/**
 * @file
 * DeliverySession over multi-dispatcher collect: per-frame delivery
 * deadlines must compose with several dispatchers popping one queue.
 * Concurrent sessions stay byte-identical at 0% loss while their
 * frames hop between dispatchers, and a session whose stream is stuck
 * behind a parked dispatcher degrades on its deadline while a
 * neighbouring session keeps delivering through the idle one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "net/delivery.hh"
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

EccentricityMap
centeredMap(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return EccentricityMap(g);
}

TEST(DeliverySharded, ConcurrentSessionsDeliverByteIdenticalFrames)
{
    // Two sessions on a 4-dispatcher service: their interleaved
    // encodes land on any mix of dispatchers, and every frame must
    // still arrive byte-identical over a clean channel.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);

    ServiceParams sp;
    sp.shards = 4;
    sp.streamDepth = 2;
    EncodeService svc(model(), sp);
    const std::vector<std::string> names = {"net-0", "net-1"};

    std::vector<net::LossyChannel> channels(2);  // clean
    std::vector<net::DeliverySession> sessions;
    sessions.reserve(2);
    std::vector<StreamHandle> handles;
    handles.reserve(2);
    for (int s = 0; s < 2; ++s) {
        handles.push_back(svc.openStream(names[s], ecc));
        net::SenderPolicy policy;
        policy.sessionId = 0xd00d + s;
        policy.streamId = static_cast<std::uint32_t>(s);
        sessions.emplace_back(svc, handles.back(), channels[s],
                              policy, &ecc);
    }

    constexpr int kFrames = 4;
    for (int i = 0; i < kFrames; ++i) {
        // Interleave submissions so both streams are queued at once
        // before either delivery collects.
        for (int s = 0; s < 2; ++s)
            sessions[s].submit(renderScene(
                SceneId::Office, {n, n, s, 0.1 * i + 0.3 * s, 0}));
        for (int s = 0; s < 2; ++s) {
            ImageU8 out;
            const net::DeliveryReport rep =
                sessions[s].deliverNext(out, 30000ms);
            EXPECT_FALSE(rep.encodeTimedOut);
            EXPECT_TRUE(rep.frame.byteIdentical)
                << "session " << s << ", frame " << i;
            EXPECT_TRUE(rep.fovealIntact);
        }
    }
    for (int s = 0; s < 2; ++s)
        EXPECT_EQ(sessions[s].framesDelivered(),
                  static_cast<std::uint64_t>(kFrames));
}

TEST(DeliverySharded, ParkedDispatcherDegradesOneSessionNotItsNeighbor)
{
    // Stream A's first encode parks its dispatcher. A's session must
    // degrade on its encode deadline (whole-frame hold), while B's —
    // queued behind A — still delivers intact within a bounded
    // deadline because the other dispatcher takes it. This is the
    // multi-dispatcher collect contract the delivery tier depends on:
    // one stalled stream cannot wedge a neighbor's delivery loop.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);

    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;

    ServiceParams sp;
    sp.shards = 2;
    sp.streamDepth = 2;
    const std::vector<std::string> names = {"net-0", "net-1"};
    const std::string gatedName = names[0];
    sp.preEncodeFaultHook = [&](const std::string &name, std::uint64_t,
                                ImageF &) {
        if (name != gatedName)
            return;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    EncodeService svc(model(), sp);

    StreamHandle a = svc.openStream(names[0], ecc);
    StreamHandle b = svc.openStream(names[1], ecc);
    net::LossyChannel chA, chB;  // clean
    net::SenderPolicy polA, polB;
    polA.sessionId = 0xa;
    polB.sessionId = 0xb;
    polB.streamId = 1;
    net::DeliverySession sesA(svc, a, chA, polA, &ecc);
    net::DeliverySession sesB(svc, b, chB, polB, &ecc);

    const ImageF frameA =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const ImageF frameB =
        renderScene(SceneId::Monkey, {n, n, 0, 0.5, 0});
    sesA.submit(frameA);  // parks whichever dispatcher takes it
    sesB.submit(frameB);

    ImageU8 outB;
    net::DeliveryReport repB = sesB.deliverNext(outB, 30000ms);
    EXPECT_FALSE(repB.encodeTimedOut)
        << "stream starved behind the parked dispatcher";
    EXPECT_TRUE(repB.frame.byteIdentical);

    ImageU8 outA;
    net::DeliveryReport repA = sesA.deliverNext(outA, 30ms);
    EXPECT_TRUE(repA.encodeTimedOut) << "A's encode is parked";
    EXPECT_FALSE(repA.frame.manifestReceived);

    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    repA = sesA.deliverNext(outA, 30000ms);
    EXPECT_FALSE(repA.encodeTimedOut);
    EXPECT_TRUE(repA.frame.byteIdentical)
        << "late frame delivers under the next id, intact";
}

} // namespace
} // namespace pce

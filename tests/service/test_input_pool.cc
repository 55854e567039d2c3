/**
 * @file
 * EncodeService's shared input pool under concurrent producers: streams
 * of two geometries (64x64 and 96x96) fed by three producer threads
 * stay byte-identical to single-shot encodes, the pool never owns more
 * copies of a geometry than that geometry's sum of streamDepth, it
 * reaches exactly that bound when every slot is in flight at once, and
 * later frames add no copy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "service/encode_service.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

EccentricityMap
centeredMap(int n)
{
    DisplayGeometry g;
    g.width = n;
    g.height = n;
    g.horizontalFovDeg = 100.0;
    g.fixationX = n / 2.0;
    g.fixationY = n / 2.0;
    return EccentricityMap(g);
}

/** Holds dispatch (in the pre-encode hook) while closed. */
class Gate
{
  public:
    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return open_; });
    }
    void set(bool open)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = open;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = true;
};

constexpr int kSmall = 64;
constexpr int kLarge = 96;
constexpr int kProducers = 3;
constexpr int kStreams = 2 * kProducers;  // one of each geometry each
constexpr int kDepth = 2;
constexpr int kFrames = 6;
/** Sum of streamDepth over the streams of one geometry. */
constexpr std::uint64_t kBoundPerGeometry = kProducers * kDepth;

int
sizeOf(int stream)
{
    return stream % 2 == 0 ? kSmall : kLarge;
}

/** ServiceReport's input copies split by geometry: the counts of the
 *  two geometries follow from the total count and the total bytes. */
struct CopiesByGeometry
{
    std::uint64_t small = 0;
    std::uint64_t large = 0;
};

CopiesByGeometry
splitCopies(const ServiceReport &rep)
{
    const std::uint64_t px_small = kSmall * kSmall;
    const std::uint64_t px_large = kLarge * kLarge;
    EXPECT_EQ(rep.inputCopyBytes % sizeof(Vec3), 0u);
    const std::uint64_t px = rep.inputCopyBytes / sizeof(Vec3);
    EXPECT_GE(px, rep.inputCopies * px_small);
    const std::uint64_t extra = px - rep.inputCopies * px_small;
    EXPECT_EQ(extra % (px_large - px_small), 0u);
    CopiesByGeometry c;
    c.large = extra / (px_large - px_small);
    c.small = rep.inputCopies - c.large;
    return c;
}

TEST(InputPool, ConcurrentProducersOverTwoGeometries)
{
    const EccentricityMap ecc_small = centeredMap(kSmall);
    const EccentricityMap ecc_large = centeredMap(kLarge);
    const SceneId scenes[kStreams] = {SceneId::Office,  SceneId::Fortnite,
                                      SceneId::Monkey,  SceneId::Skyline,
                                      SceneId::Dumbo,   SceneId::Thai};

    std::vector<std::vector<ImageF>> frames(kStreams);
    std::vector<std::vector<std::vector<uint8_t>>> reference(kStreams);
    {
        const PerceptualEncoder enc(model(), {});
        EncodedFrame out;
        for (int s = 0; s < kStreams; ++s) {
            const int n = sizeOf(s);
            for (int i = 0; i < kFrames; ++i) {
                frames[s].push_back(renderScene(
                    scenes[s], {n, n, 0, 0.1 * i + 0.05 * s, 0}));
                enc.encodeFrameInto(frames[s].back(),
                                    n == kSmall ? ecc_small : ecc_large,
                                    out);
                reference[s].push_back(out.bdStream);
            }
        }
    }

    Gate gate;  // outlives the service: the hook waits on it
    ServiceParams sp;
    sp.threads = 2;
    sp.shards = 2;
    sp.streamDepth = kDepth;
    // Small enough that queue backpressure engages, large enough for
    // every slot of every stream to be in flight while both
    // dispatchers are held in the hook.
    sp.queueCapacity = kStreams * kDepth - sp.shards;
    sp.preEncodeFaultHook = [&gate](const std::string &, std::uint64_t,
                                    ImageF &) { gate.wait(); };
    EncodeService svc(model(), sp);
    std::vector<StreamHandle> handles;
    for (int s = 0; s < kStreams; ++s)
        handles.push_back(svc.openStream(
            "stream-" + std::to_string(s),
            sizeOf(s) == kSmall ? ecc_small : ecc_large));

    std::atomic<int> mismatches{0};
    auto check = [&](int s, int i) {
        const FrameLease lease = svc.collect(handles[s]);
        if (lease->bdStream != reference[s][i])
            mismatches.fetch_add(1);
    };
    // Each producer pipelines its two streams (one per geometry), at
    // most kDepth frames outstanding per stream.
    auto runProducers = [&] {
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                const int mine[2] = {2 * p, 2 * p + 1};
                int collected = 0;
                for (int i = 0; i < kFrames; ++i) {
                    for (const int s : mine)
                        svc.submit(handles[s], frames[s][i]);
                    if (i - collected >= 1) {
                        for (const int s : mine)
                            check(s, collected);
                        ++collected;
                    }
                }
                for (; collected < kFrames; ++collected)
                    for (const int s : mine)
                        check(s, collected);
            });
        }
        for (auto &t : producers)
            t.join();
    };

    // Phase 1: free-running producers. However the frames interleave,
    // a geometry never has more frames in flight than its slots.
    runProducers();
    EXPECT_EQ(mismatches.load(), 0);
    CopiesByGeometry c = splitCopies(svc.report());
    EXPECT_GE(c.small, 1u);
    EXPECT_GE(c.large, 1u);
    EXPECT_LE(c.small, kBoundPerGeometry);
    EXPECT_LE(c.large, kBoundPerGeometry);

    // Phase 2: every slot of every stream in flight at once (dispatch
    // held in the hook until all submits have returned): the pool must
    // own exactly the bound, reusing what phase 1 allocated.
    gate.set(false);
    for (int s = 0; s < kStreams; ++s)
        for (int i = 0; i < kDepth; ++i)
            svc.submit(handles[s], frames[s][i]);
    c = splitCopies(svc.report());
    EXPECT_EQ(c.small, kBoundPerGeometry);
    EXPECT_EQ(c.large, kBoundPerGeometry);
    gate.set(true);
    for (int s = 0; s < kStreams; ++s)
        for (int i = 0; i < kDepth; ++i)
            check(s, i);
    EXPECT_EQ(mismatches.load(), 0);

    // Phase 3: more frames from all producers add no copy.
    const ServiceReport before = svc.report();
    runProducers();
    const ServiceReport after = svc.report();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(after.inputCopies, before.inputCopies);
    EXPECT_EQ(after.inputCopyBytes, before.inputCopyBytes);
    EXPECT_EQ(after.framesEncoded,
              static_cast<std::uint64_t>(kStreams) *
                  (2 * kFrames + kDepth));
}

} // namespace
} // namespace pce

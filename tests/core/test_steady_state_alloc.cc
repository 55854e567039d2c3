/**
 * @file
 * The steady state of a frame stream allocates nothing: after warm-up,
 * a same-geometry encodeFrameInto followed by verifyRoundTrip makes no
 * heap allocation on any thread, serial or on the pool. A counting
 * global operator new sees every allocation of the process, so this
 * covers the encoder's workspace, the pool hand-off and the BD passes
 * alike.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/pipeline.hh"
#include "render/scenes.hh"

namespace {

std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace pce {
namespace {

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

TEST(SteadyStateAlloc, EncodeAndVerifyAllocateNothing)
{
    // 256x256 at tile 4 is 4096 tiles: enough for the BD stats, emit
    // and decode passes to run on the pool at 2 and 4 participants.
    const int n = 256;
    const AnalyticDiscriminationModel model;
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    for (const int participants : {1, 2, 4}) {
        PipelineParams p;
        p.threads = participants;
        const PerceptualEncoder enc(model, p);
        EncodedFrame out;
        // Warm-up: the result, the workspace and the pool's slots
        // grow to this geometry.
        for (int i = 0; i < 2; ++i) {
            enc.encodeFrameInto(frame, ecc, out);
            ASSERT_TRUE(enc.verifyRoundTrip(out));
        }

        constexpr int kFrames = 3;
        bool verified = true;
        const std::size_t before =
            g_allocations.load(std::memory_order_relaxed);
        for (int i = 0; i < kFrames; ++i) {
            enc.encodeFrameInto(frame, ecc, out);
            verified = enc.verifyRoundTrip(out) && verified;
        }
        const std::size_t allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
        EXPECT_TRUE(verified) << participants << " participants";
        EXPECT_EQ(allocations, 0u)
            << participants << " participants, " << kFrames << " frames";
    }
}

TEST(SteadyStateAlloc, AdjustFrameIntoAllocatesNothing)
{
    const int n = 256;
    const AnalyticDiscriminationModel model;
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    for (const int participants : {1, 2, 4}) {
        PipelineParams p;
        p.threads = participants;
        const PerceptualEncoder enc(model, p);
        ImageF out;
        PipelineStats stats;
        enc.adjustFrameInto(frame, ecc, out, &stats);

        const std::size_t before =
            g_allocations.load(std::memory_order_relaxed);
        enc.adjustFrameInto(frame, ecc, out, &stats);
        EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before,
                  0u)
            << participants << " participants";
    }
}

} // namespace
} // namespace pce

/**
 * @file
 * The receiver's memory is bounded by what it accepts, not by what a
 * datagram claims. A counting global operator new records the largest
 * request and refuses any above 64 MB, so a forged manifest whose
 * fields break the BD framing rules and still makes the receiver size
 * a buffer fails here with std::bad_alloc instead of touching
 * gigabytes. The same counters show that an accepted manifest commits
 * its stream and a byte or two per tile, nothing per tile rect; that a
 * rejected packet leaves no state behind; that finalizing a frame frees
 * every earlier frame of its stream; and that the record of finalized
 * frames stays a fixed size however many frames a stream finalizes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bd/bd_codec.hh"
#include "net/reassembler.hh"
#include "net/wire_format.hh"

namespace {

constexpr std::size_t kRefuseAbove = std::size_t(64) << 20;

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};
std::atomic<std::size_t> g_requested{0};  ///< bytes asked for
std::atomic<std::ptrdiff_t> g_live{0};    ///< allocations not yet freed

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_requested.fetch_add(size, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed))
    {}
    if (size > kRefuseAbove)
        throw std::bad_alloc();
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        g_live.fetch_add(1, std::memory_order_relaxed);
        return p;
    }
    throw std::bad_alloc();
}

void
countedFree(void *p) noexcept
{
    if (p != nullptr)
        g_live.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace pce::net {
namespace {

constexpr std::uint64_t kSession = 9;
constexpr std::uint32_t kStream = 2;

ReassemblerParams
rxParams()
{
    ReassemblerParams p;
    p.sessionId = kSession;
    return p;
}

/** A CRC-valid manifest datagram for frame @p frame_id. */
std::vector<std::uint8_t>
manifestPacket(const FrameManifest &m, std::uint64_t frame_id)
{
    PacketHeader h;
    h.sessionId = kSession;
    h.streamId = kStream;
    h.frameId = frame_id;
    h.type = PacketType::Manifest;
    return buildManifestPacket(h, m);
}

/**
 * A manifest whose fields agree with each other (tile count of the
 * geometry, one data packet, stream length of the payload) but whose
 * payload lies outside what the geometry can hold.
 */
FrameManifest
forgedManifest(std::uint32_t width, std::uint32_t height,
               std::uint32_t tile_size, std::uint32_t stream_bytes)
{
    FrameManifest m;
    m.width = width;
    m.height = height;
    m.tileSize = tile_size;
    m.tileCount = ((width + tile_size - 1) / tile_size) *
                  ((height + tile_size - 1) / tile_size);
    m.packetCount = 1;
    m.payloadBits =
        (std::uint64_t(stream_bytes) - kBdStreamHeaderBits / 8) * 8;
    m.streamBytes = stream_bytes;
    return m;
}

/** The manifest of a 4x4 frame: one flat tile, one data packet. */
FrameManifest
smallManifest()
{
    FrameManifest m;
    m.width = 4;
    m.height = 4;
    m.tileSize = 4;
    m.tileCount = 1;
    m.packetCount = 1;
    m.payloadBits = 36;
    m.streamBytes = 13;
    return m;
}

/** accept() of @p pkt, recording the largest allocation it asked for. */
AcceptResult
acceptMeasured(FrameReassembler &rx, const std::vector<std::uint8_t> &pkt,
               std::size_t &largest)
{
    g_largest.store(0);
    const AcceptResult r = rx.accept(pkt);
    largest = g_largest.load();
    return r;
}

TEST(ManifestBounds, PayloadBeyondTheGeometryIsRejectedUnallocated)
{
    // 256x256 holds at most ~215 KB of BD stream; this one claims 4 GB.
    const FrameManifest m = forgedManifest(256, 256, 4, 0xFFFFFFFFu);
    FrameReassembler rx(rxParams());
    std::size_t largest = 0;
    EXPECT_EQ(acceptMeasured(rx, manifestPacket(m, 0), largest),
              AcceptResult::RejectedMalformed);
    EXPECT_LE(largest, std::size_t(1) << 20);
    EXPECT_EQ(rx.rejectedMalformed(), 1u);
}

TEST(ManifestBounds, TileCountBeyondThePayloadIsRejectedUngridded)
{
    // 2^26 one-pixel tiles (inside the pixel cap) in a 1000-byte
    // stream: far below the payload floor, so nothing is sized.
    const FrameManifest m = forgedManifest(8192, 8192, 1, 1000);
    ASSERT_EQ(m.tileCount, 8192u * 8192u);
    FrameReassembler rx(rxParams());
    std::size_t largest = 0;
    EXPECT_EQ(acceptMeasured(rx, manifestPacket(m, 0), largest),
              AcceptResult::RejectedMalformed);
    EXPECT_LE(largest, std::size_t(1) << 20);
    EXPECT_EQ(rx.rejectedMalformed(), 1u);
}

TEST(ManifestBounds, AcceptedManifestCommitsItsStreamNotATileGrid)
{
    // 2^22 tiles of 4x4 at the payload floor: the receiver sizes the
    // stream buffer and a byte per tile (delivered mask) and per packet
    // (sequence mask); tile rects are computed, never stored.
    const TileGrid grid{8192, 8192, 4};
    FrameManifest m;
    m.width = 8192;
    m.height = 8192;
    m.tileSize = 4;
    m.tileCount = static_cast<std::uint32_t>(grid.count());
    m.packetCount = 1;
    m.payloadBits = bdPayloadBounds(grid).minBits;
    m.streamBytes = static_cast<std::uint32_t>(bdStreamBytes(m.payloadBits));
    const std::vector<std::uint8_t> pkt = manifestPacket(m, 0);
    FrameReassembler rx(rxParams());

    g_requested.store(0);
    EXPECT_EQ(rx.accept(pkt), AcceptResult::Accepted);
    EXPECT_LE(g_requested.load(),
              m.streamBytes + 2 * grid.count() + (std::size_t(64) << 10));
}

TEST(ManifestBounds, RejectedManifestsLeaveNoState)
{
    // A malformed (0x0) manifest for each of 100k future frames: every
    // one is rejected, and none may leave a frame entry behind.
    const FrameManifest m = forgedManifest(0, 0, 4, 13);
    FrameReassembler rx(rxParams());
    const std::ptrdiff_t before = g_live.load();
    for (std::uint64_t id = 1; id <= 100000; ++id)
        ASSERT_EQ(rx.accept(manifestPacket(m, id)),
                  AcceptResult::RejectedMalformed);
    EXPECT_EQ(g_live.load(), before);
}

TEST(ManifestBounds, FinalizeFreesEveryEarlierFrame)
{
    // Finalizing frame 6 retires every frame up to 6, so frame 5's
    // manifest state (stream buffer, masks) must go with it; finalizing
    // 8 likewise frees frame 7's parked data.
    FrameReassembler rx(rxParams());
    ImageU8 out;
    rx.finalizeFrame(kStream, 0, out);  // the stream's one record
    const std::ptrdiff_t before = g_live.load();

    ASSERT_EQ(rx.accept(manifestPacket(smallManifest(), 5)),
              AcceptResult::Accepted);
    PacketHeader h;
    h.sessionId = kSession;
    h.streamId = kStream;
    h.frameId = 7;
    h.type = PacketType::TileData;
    h.sequence = 1;
    h.tileCount = 1;
    const std::uint8_t payload[5] = {};
    ASSERT_EQ(rx.accept(buildPacket(h, payload, sizeof payload)),
              AcceptResult::Accepted);  // parked: no manifest yet
    EXPECT_GT(g_live.load(), before);

    rx.finalizeFrame(kStream, 6, out);
    rx.finalizeFrame(kStream, 8, out);
    EXPECT_EQ(g_live.load(), before);
}

TEST(ManifestBounds, FinalizedFrameRecordStaysBounded)
{
    FrameReassembler rx(rxParams());
    ImageU8 out;
    rx.finalizeFrame(kStream, 0, out);  // the stream's one record

    const std::size_t before = g_allocations.load();
    for (std::uint64_t id = 1; id <= 100000; ++id)
        rx.finalizeFrame(kStream, id, out);
    EXPECT_EQ(g_allocations.load() - before, 0u);

    // Every frame up to the newest finalized one is retired; the frame
    // after it is not.
    const FrameManifest m = smallManifest();
    EXPECT_EQ(rx.accept(manifestPacket(m, 0)), AcceptResult::Stale);
    EXPECT_EQ(rx.accept(manifestPacket(m, 100000)), AcceptResult::Stale);
    EXPECT_TRUE(rx.missingSequences(kStream, 0).empty());
    EXPECT_EQ(rx.accept(manifestPacket(m, 100001)),
              AcceptResult::Accepted);
}

} // namespace
} // namespace pce::net

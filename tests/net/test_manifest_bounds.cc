/**
 * @file
 * The receiver's memory is bounded by what it accepts, not by what a
 * datagram claims. A counting global operator new records the largest
 * request and refuses any above 64 MB, so a forged manifest whose
 * fields break the BD framing rules and still makes the receiver size
 * a buffer or tile grid fails here with std::bad_alloc instead of
 * touching gigabytes. The same counter
 * shows that the record of finalized frames stays a fixed size however
 * many frames a stream finalizes.
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

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed))
    {}
    if (size > kRefuseAbove)
        throw std::bad_alloc();
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

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
    // stream: far below the payload floor, so no tile grid is built.
    const FrameManifest m = forgedManifest(8192, 8192, 1, 1000);
    ASSERT_EQ(m.tileCount, 8192u * 8192u);
    FrameReassembler rx(rxParams());
    std::size_t largest = 0;
    EXPECT_EQ(acceptMeasured(rx, manifestPacket(m, 0), largest),
              AcceptResult::RejectedMalformed);
    EXPECT_LE(largest, std::size_t(1) << 20);
    EXPECT_EQ(rx.rejectedMalformed(), 1u);
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

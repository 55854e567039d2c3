/**
 * @file
 * Packetizer unit tests: tile-aligned splitting must cover every tile
 * exactly once within the MTU budget, payload slices must carry the
 * stream's own bytes (shared boundary bytes identical between
 * neighbors, so reassembly copies are order-free), and foveal-priority
 * scheduling must order the send schedule by eccentricity.
 */

#include <gtest/gtest.h>

#include "bd/bd_codec.hh"
#include "common/rng.hh"
#include "net/packetizer.hh"
#include "perception/display.hh"

namespace pce::net {
namespace {

ImageU8
noisyImage(int w, int h, std::uint64_t seed)
{
    ImageU8 img(w, h);
    Rng rng(seed);
    for (auto &b : img.data())
        b = static_cast<std::uint8_t>(rng.next());
    return img;
}

std::vector<std::uint8_t>
encodeStream(const ImageU8 &img, int tile = 4)
{
    return BdCodec(tile).encode(img);
}

TEST(Packetizer, CoversEveryTileExactlyOnceInOrder)
{
    const std::vector<std::uint8_t> stream =
        encodeStream(noisyImage(64, 48, 1));
    PacketizerParams params;
    params.mtuBytes = 256;
    const PacketizedFrame pf = packetizeFrame(stream, 0, nullptr,
                                              params);

    ASSERT_GE(pf.packets.size(), 2u);
    EXPECT_EQ(pf.packets[0].header.type, PacketType::Manifest);
    EXPECT_EQ(pf.packets[0].header.sequence, 0u);
    EXPECT_EQ(pf.manifest.tileCount, 16u * 12u);
    EXPECT_EQ(pf.manifest.packetCount, pf.packets.size() - 1);

    std::uint32_t next_tile = 0;
    for (std::size_t i = 1; i < pf.packets.size(); ++i) {
        const PacketHeader &h = pf.packets[i].header;
        EXPECT_EQ(h.type, PacketType::TileData);
        EXPECT_EQ(h.sequence, i);
        EXPECT_EQ(h.tileBegin, next_tile) << "gap or overlap";
        EXPECT_GE(h.tileCount, 1u);
        next_tile += h.tileCount;
        EXPECT_LE(pf.packets[i].bytes.size(), params.mtuBytes);
        EXPECT_TRUE(verifyPacketCrc(pf.packets[i].bytes.data(),
                                    pf.packets[i].bytes.size()));
    }
    EXPECT_EQ(next_tile, pf.manifest.tileCount);
}

TEST(Packetizer, PayloadSlicesCarryTheStreamBytes)
{
    const std::vector<std::uint8_t> stream =
        encodeStream(noisyImage(32, 32, 2));
    PacketizerParams params;
    params.mtuBytes = 200;
    const PacketizedFrame pf = packetizeFrame(stream, 0, nullptr,
                                              params);

    for (std::size_t i = 1; i < pf.packets.size(); ++i) {
        const PacketHeader &h = pf.packets[i].header;
        const std::size_t start =
            static_cast<std::size_t>(
                (kBdStreamHeaderBits + h.payloadBitBegin) / 8);
        ASSERT_LE(start + h.payloadBytes, stream.size());
        // The payload is literally the stream's bytes: adjacent
        // packets may share a boundary byte, but both copies carry
        // identical source bytes, which is what makes reassembly
        // copies idempotent in any arrival order.
        EXPECT_TRUE(std::equal(
            pf.packets[i].bytes.begin() + kPacketHeaderBytes,
            pf.packets[i].bytes.end(), stream.begin() + start));
    }
}

TEST(Packetizer, ManifestAccountsForTheWholeStream)
{
    const std::vector<std::uint8_t> stream =
        encodeStream(noisyImage(40, 24, 3));
    const PacketizedFrame pf = packetizeFrame(stream, 9, nullptr, {});
    EXPECT_EQ(pf.manifest.width, 40u);
    EXPECT_EQ(pf.manifest.height, 24u);
    EXPECT_EQ(pf.manifest.tileSize, 4u);
    EXPECT_EQ(pf.manifest.streamBytes, stream.size());
    EXPECT_EQ(
        (kBdStreamHeaderBits + pf.manifest.payloadBits + 7) / 8,
        stream.size());
    for (const Packet &p : pf.packets)
        EXPECT_EQ(p.header.frameId, 9u);
}

TEST(Packetizer, FovealPacketsLeadTheSendOrder)
{
    DisplayGeometry geom;
    geom.width = 64;
    geom.height = 64;
    geom.horizontalFovDeg = 100.0;
    geom.fixationX = 32.0;
    geom.fixationY = 32.0;
    const EccentricityMap ecc(geom);
    const std::vector<std::uint8_t> stream =
        encodeStream(noisyImage(64, 64, 4));
    PacketizerParams params;
    params.mtuBytes = 200;
    const PacketizedFrame pf = packetizeFrame(stream, 0, &ecc, params);

    ASSERT_GE(pf.sendOrder.size(), 3u);
    EXPECT_EQ(pf.sendOrder[0], 0u) << "manifest must go first";
    double prev = -1.0;
    for (std::size_t i = 1; i < pf.sendOrder.size(); ++i) {
        const double e = pf.packets[pf.sendOrder[i]].minEccDeg;
        EXPECT_GE(e, prev) << "send order not foveal-first at " << i;
        prev = e;
    }
    // And it is a permutation of all packets.
    std::vector<std::uint32_t> sorted(pf.sendOrder);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);

    // Each tile's minimum eccentricity is the map's, and a packet's is
    // the minimum over the tiles it carries.
    const TileGrid grid{64, 64, 4};
    ASSERT_EQ(pf.tileMinEccDeg.size(), grid.count());
    for (std::size_t t = 0; t < grid.count(); ++t)
        EXPECT_EQ(pf.tileMinEccDeg[t], ecc.minInRect(grid.rect(t))) << t;
    for (std::size_t i = 1; i < pf.packets.size(); ++i) {
        const PacketHeader &h = pf.packets[i].header;
        double lowest = pf.tileMinEccDeg[h.tileBegin];
        for (std::size_t t = h.tileBegin; t < h.tileBegin + h.tileCount; ++t)
            lowest = std::min(lowest, pf.tileMinEccDeg[t]);
        EXPECT_EQ(pf.packets[i].minEccDeg, lowest) << i;
    }
    EXPECT_TRUE(packetizeFrame(stream, 0, nullptr, params)
                    .tileMinEccDeg.empty());
}

TEST(Packetizer, RejectsNonsense)
{
    const std::vector<std::uint8_t> stream =
        encodeStream(noisyImage(16, 16, 5));
    PacketizerParams params;
    params.mtuBytes = kPacketHeaderBytes;  // no room for any payload
    EXPECT_THROW(packetizeFrame(stream, 0, nullptr, params),
                 std::invalid_argument);

    std::vector<std::uint8_t> bad = stream;
    bad[0] ^= 0xff;  // break the BD magic
    EXPECT_THROW(packetizeFrame(bad, 0, nullptr, {}),
                 std::runtime_error);

    bad = stream;
    bad.push_back(0);  // trailing garbage
    EXPECT_THROW(packetizeFrame(bad, 0, nullptr, {}),
                 std::runtime_error);

    // A padding bit set: the decoder refuses the stream, so the
    // packetizer must too (a 1x1 frame's flat tile leaves 36 payload
    // bits, so the last byte holds 4 padding bits).
    bad = encodeStream(ImageU8(1, 1));
    ASSERT_EQ((kBdStreamHeaderBits + 36 + 7) / 8, bad.size());
    bad.back() |= 0x01;
    EXPECT_THROW(BdCodec::decode(bad), std::runtime_error);
    EXPECT_THROW(packetizeFrame(bad, 0, nullptr, {}),
                 std::runtime_error);

    // A 16-byte stream claiming a 0xFFFF x 0xFFFF frame of 1-pixel
    // tiles: refused from the header alone, before a ~2^32-entry tile
    // grid is sized from it.
    bad.assign(16, 0);
    bdWriteStreamHeader(bad.data(), 0xFFFF, 0xFFFF, 1);
    EXPECT_THROW(packetizeFrame(bad, 0, nullptr, {}),
                 std::runtime_error);
}

TEST(Packetizer, DeterministicAcrossCalls)
{
    const std::vector<std::uint8_t> stream =
        encodeStream(noisyImage(48, 32, 6));
    PacketizerParams params;
    params.mtuBytes = 300;
    const PacketizedFrame a = packetizeFrame(stream, 5, nullptr,
                                             params);
    const PacketizedFrame b = packetizeFrame(stream, 5, nullptr,
                                             params);
    ASSERT_EQ(a.packets.size(), b.packets.size());
    for (std::size_t i = 0; i < a.packets.size(); ++i)
        EXPECT_EQ(a.packets[i].bytes, b.packets[i].bytes);
    EXPECT_EQ(a.sendOrder, b.sendOrder);
}

} // namespace
} // namespace pce::net

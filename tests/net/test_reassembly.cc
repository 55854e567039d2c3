/**
 * @file
 * Reassembly edge cases: everything a hostile-or-unlucky transport can
 * do — reorder, duplication, corruption (CRC-caught and CRC-forged),
 * stale and foreign datagrams, zero-tile manifests — must either be
 * absorbed or rejected with the right counter, and never corrupt a
 * neighboring tile's bytes. These run under the sanitizer jobs of
 * scripts/check.sh.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bd/bd_codec.hh"
#include "common/rng.hh"
#include "net/packetizer.hh"
#include "net/reassembler.hh"

namespace pce::net {
namespace {

constexpr std::uint64_t kSession = 77;
constexpr std::uint32_t kStream = 3;

ImageU8
noisyImage(int w, int h, std::uint64_t seed)
{
    ImageU8 img(w, h);
    Rng rng(seed);
    for (auto &b : img.data())
        b = static_cast<std::uint8_t>(rng.next());
    return img;
}

struct Fixture
{
    ImageU8 image;
    std::vector<std::uint8_t> stream;
    PacketizedFrame pf;

    explicit Fixture(std::uint64_t seed = 1, int w = 48, int h = 32,
                     std::size_t mtu = 200)
        : image(noisyImage(w, h, seed))
    {
        stream = BdCodec(4).encode(image);
        PacketizerParams params;
        params.mtuBytes = mtu;
        params.sessionId = kSession;
        params.streamId = kStream;
        pf = packetizeFrame(stream, 0, nullptr, params);
    }
};

ReassemblerParams
rxParams()
{
    ReassemblerParams p;
    p.sessionId = kSession;
    return p;
}

/** Re-CRC a tampered datagram so only post-CRC defenses see it. */
std::vector<std::uint8_t>
forgeCrc(std::vector<std::uint8_t> pkt)
{
    PacketHeader h;
    EXPECT_TRUE(parsePacketHeader(pkt.data(), pkt.size(), h));
    return buildPacket(h, pkt.data() + kPacketHeaderBytes,
                       pkt.size() - kPacketHeaderBytes);
}

TEST(Reassembly, ReorderedAndDuplicatedPacketsReassembleByteIdentical)
{
    Fixture fx;
    FrameReassembler rx(rxParams());

    // Deliver in reverse, with every packet sent twice and the
    // manifest arriving dead last (tile data must be parked).
    std::vector<std::size_t> order(fx.pf.packets.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = order.size() - 1 - i;
    for (const std::size_t i : order) {
        EXPECT_EQ(rx.accept(fx.pf.packets[i].bytes),
                  AcceptResult::Accepted);
        rx.accept(fx.pf.packets[i].bytes);  // duplicate copy
    }
    EXPECT_TRUE(rx.frameComplete(kStream, 0));
    EXPECT_TRUE(rx.missingSequences(kStream, 0).empty());

    ImageU8 out;
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 0, out);
    EXPECT_TRUE(rep.complete);
    EXPECT_TRUE(rep.byteIdentical);
    EXPECT_EQ(rep.deliveredTiles, rep.totalTiles);
    EXPECT_EQ(out, fx.image);
    EXPECT_GT(rx.duplicatePackets(), 0u);
    EXPECT_EQ(rx.rejectedPackets(), 0u);
}

TEST(Reassembly, CrcRejectsCorruptPacketAndTileDegrades)
{
    Fixture fx;
    FrameReassembler rx(rxParams());
    Rng rng(9);

    for (std::size_t i = 0; i < fx.pf.packets.size(); ++i) {
        if (i != 2) {
            rx.accept(fx.pf.packets[i].bytes);
            continue;
        }
        std::vector<std::uint8_t> corrupt = fx.pf.packets[i].bytes;
        const std::uint64_t bit = rng.uniformInt(corrupt.size() * 8);
        corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_EQ(rx.accept(corrupt), AcceptResult::RejectedCrc);
    }
    EXPECT_EQ(rx.rejectedCrc(), 1u);
    EXPECT_FALSE(rx.frameComplete(kStream, 0));
    const std::vector<std::uint32_t> missing =
        rx.missingSequences(kStream, 0);
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0], fx.pf.packets[2].header.sequence);

    ImageU8 out;
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 0, out);
    EXPECT_FALSE(rep.complete);
    EXPECT_FALSE(rep.byteIdentical);
    // No previous frame: the missing range is flat-filled and flagged.
    EXPECT_EQ(rep.filledTiles, fx.pf.packets[2].header.tileCount);
    EXPECT_EQ(rep.deliveredTiles + rep.filledTiles, rep.totalTiles);
    // Every tile the report claims delivered is pixel-exact.
    const TileGrid grid{48, 32, 4};
    for (std::size_t t = 0; t < grid.count(); ++t) {
        if (!rep.tileDelivered[t])
            continue;
        const TileRect r = grid.rect(t);
        for (int y = r.y0; y < r.y0 + r.h; ++y)
            for (int x = r.x0; x < r.x0 + r.w; ++x)
                for (int c = 0; c < 3; ++c)
                    ASSERT_EQ(out.channel(x, y, c),
                              fx.image.channel(x, y, c));
    }
}

TEST(Reassembly, MissingTilesFallBackToPreviousFrame)
{
    Fixture first(1), second(2);
    FrameReassembler rx(rxParams());

    // Frame 0 lands complete; it becomes the stream's hold source.
    for (const Packet &p : first.pf.packets)
        rx.accept(p.bytes);
    ImageU8 out;
    ASSERT_TRUE(rx.finalizeFrame(kStream, 0, out).byteIdentical);

    // Frame 1 loses packet 1.
    PacketizerParams params;
    params.mtuBytes = 200;
    params.sessionId = kSession;
    params.streamId = kStream;
    const PacketizedFrame pf1 =
        packetizeFrame(second.stream, 1, nullptr, params);
    for (std::size_t i = 0; i < pf1.packets.size(); ++i)
        if (i != 1)
            rx.accept(pf1.packets[i].bytes);
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 1, out);
    EXPECT_FALSE(rep.complete);
    EXPECT_EQ(rep.fallbackTiles, pf1.packets[1].header.tileCount);
    EXPECT_EQ(rep.filledTiles, 0u);

    // Fallback tiles hold frame 0's pixels; delivered tiles are
    // frame 1's.
    const TileGrid grid{48, 32, 4};
    for (std::size_t t = 0; t < grid.count(); ++t) {
        const ImageU8 &want =
            rep.tileDelivered[t] ? second.image : first.image;
        const TileRect r = grid.rect(t);
        for (int y = r.y0; y < r.y0 + r.h; ++y)
            for (int x = r.x0; x < r.x0 + r.w; ++x)
                for (int c = 0; c < 3; ++c)
                    ASSERT_EQ(out.channel(x, y, c),
                              want.channel(x, y, c))
                        << "tile " << t;
    }
}

TEST(Reassembly, DuplicateManifestIsIgnored)
{
    Fixture fx;
    FrameReassembler rx(rxParams());
    EXPECT_EQ(rx.accept(fx.pf.packets[0].bytes),
              AcceptResult::Accepted);
    EXPECT_EQ(rx.accept(fx.pf.packets[0].bytes),
              AcceptResult::Duplicate);
    for (std::size_t i = 1; i < fx.pf.packets.size(); ++i)
        rx.accept(fx.pf.packets[i].bytes);
    ImageU8 out;
    EXPECT_TRUE(rx.finalizeFrame(kStream, 0, out).byteIdentical);
}

TEST(Reassembly, PacketForFinalizedFrameIsStale)
{
    Fixture fx;
    FrameReassembler rx(rxParams());
    for (const Packet &p : fx.pf.packets)
        rx.accept(p.bytes);
    ImageU8 out;
    rx.finalizeFrame(kStream, 0, out);

    EXPECT_EQ(rx.accept(fx.pf.packets[1].bytes), AcceptResult::Stale);
    EXPECT_EQ(rx.accept(fx.pf.packets[0].bytes), AcceptResult::Stale);
    EXPECT_EQ(rx.stalePackets(), 2u);
    EXPECT_TRUE(rx.missingSequences(kStream, 0).empty());
}

TEST(Reassembly, SessionMismatchIsRejected)
{
    Fixture fx;
    ReassemblerParams params;
    params.sessionId = kSession + 1;  // receiver expects another session
    FrameReassembler rx(params);
    for (const Packet &p : fx.pf.packets)
        EXPECT_EQ(rx.accept(p.bytes), AcceptResult::RejectedSession);
    EXPECT_EQ(rx.rejectedSession(), fx.pf.packets.size());
    ImageU8 out;
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 0, out);
    EXPECT_FALSE(rep.manifestReceived);
}

TEST(Reassembly, ForgedCrcWithCorruptPrefixRestoresNeighborBytes)
{
    Fixture fx;
    FrameReassembler rx(rxParams());
    rx.accept(fx.pf.packets[0].bytes);

    // Tamper with packet 1's first payload byte — the 4-bit delta
    // width field of its first tile record — and forge a fresh CRC so
    // only the per-packet prefix walk stands between the damage and
    // the buffer. Width 15 > 8 cannot walk.
    std::vector<std::uint8_t> evil = fx.pf.packets[1].bytes;
    evil[kPacketHeaderBytes] = 0xff;
    evil = forgeCrc(std::move(evil));
    ASSERT_TRUE(verifyPacketCrc(evil.data(), evil.size()));
    EXPECT_EQ(rx.accept(evil), AcceptResult::RejectedMalformed);
    EXPECT_EQ(rx.rejectedMalformed(), 1u);

    // The rejection must have restored the spliced bytes: the genuine
    // packet (which shares a boundary byte with packet 2's span)
    // still lands, and the frame still proves byte-identical.
    for (std::size_t i = 1; i < fx.pf.packets.size(); ++i)
        EXPECT_EQ(rx.accept(fx.pf.packets[i].bytes),
                  AcceptResult::Accepted);
    ImageU8 out;
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 0, out);
    EXPECT_TRUE(rep.complete);
    EXPECT_TRUE(rep.byteIdentical);
    EXPECT_EQ(out, fx.image);
}

TEST(Reassembly, ZeroTileManifestIsMalformed)
{
    // A 0x0 frame breaks the BD geometry rule, so no sender can emit
    // one (bdWriteStreamHeader refuses it): its manifest is rejected
    // whether or not it claims data packets.
    PacketHeader h;
    h.sessionId = kSession;
    h.streamId = kStream;
    h.frameId = 5;
    h.type = PacketType::Manifest;
    FrameManifest empty;  // no tiles, no data packets
    FrameManifest claims;
    claims.packetCount = 3;

    FrameReassembler rx(rxParams());
    EXPECT_EQ(rx.accept(buildManifestPacket(h, empty)),
              AcceptResult::RejectedMalformed);
    h.frameId = 6;
    EXPECT_EQ(rx.accept(buildManifestPacket(h, claims)),
              AcceptResult::RejectedMalformed);
    EXPECT_EQ(rx.rejectedMalformed(), 2u);
    EXPECT_EQ(rx.missingSequences(kStream, 5),
              std::vector<std::uint32_t>{0});
    EXPECT_FALSE(rx.frameComplete(kStream, 5));
    ImageU8 out(4, 4);
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 5, out);
    EXPECT_FALSE(rep.manifestReceived);
    EXPECT_EQ(out.width(), 4);
}

TEST(Reassembly, ManifestNeverArrivesDegradesWholeFrame)
{
    Fixture fx;
    FrameReassembler rx(rxParams());

    // Frame 0 complete (the hold source), frame 1 all data, no
    // manifest.
    for (const Packet &p : fx.pf.packets)
        rx.accept(p.bytes);
    ImageU8 out;
    rx.finalizeFrame(kStream, 0, out);

    PacketizerParams params;
    params.mtuBytes = 200;
    params.sessionId = kSession;
    params.streamId = kStream;
    const PacketizedFrame pf1 =
        packetizeFrame(fx.stream, 1, nullptr, params);
    for (std::size_t i = 1; i < pf1.packets.size(); ++i)
        rx.accept(pf1.packets[i].bytes);
    EXPECT_FALSE(rx.frameComplete(kStream, 1));
    EXPECT_EQ(rx.missingSequences(kStream, 1),
              std::vector<std::uint32_t>{0});

    ImageU8 held;
    const FrameDeliveryReport rep = rx.finalizeFrame(kStream, 1, held);
    EXPECT_FALSE(rep.manifestReceived);
    EXPECT_EQ(rep.deliveredTiles, 0u);
    EXPECT_EQ(held, fx.image) << "whole-frame hold from frame 0";
}

TEST(Reassembly, UnknownFrameNacksTheManifest)
{
    FrameReassembler rx(rxParams());
    EXPECT_EQ(rx.missingSequences(kStream, 123),
              std::vector<std::uint32_t>{0});
    EXPECT_FALSE(rx.frameComplete(kStream, 123));
}

TEST(Reassembly, MalformedDatagramsAreCounted)
{
    FrameReassembler rx(rxParams());
    const std::vector<std::uint8_t> junk(100, 0xab);
    EXPECT_EQ(rx.accept(junk), AcceptResult::RejectedMalformed);
    EXPECT_EQ(rx.accept(junk.data(), 3), AcceptResult::RejectedMalformed);
    EXPECT_EQ(rx.rejectedMalformed(), 2u);
}

} // namespace
} // namespace pce::net

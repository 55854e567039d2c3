#include "net/packetizer.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "bd/bd_codec.hh"
#include "common/integrity.hh"
#include "image/image.hh"
#include "perception/display.hh"

namespace pce::net {

PacketizedFrame
packetizeFrame(const std::vector<std::uint8_t> &bd_stream,
               std::uint64_t frame_id, const EccentricityMap *ecc,
               const PacketizerParams &params)
{
    if (params.mtuBytes <= kPacketHeaderBytes)
        throw std::invalid_argument(
            "packetizeFrame: MTU does not fit the packet header");

    // The shared header reader bounds the tile count by the stream size
    // before the offsets are sized (pixel cap and tile-count floor).
    const TileGrid grid =
        bdReadStreamHeader(bd_stream.data(), bd_stream.size());
    const std::size_t n_tiles = grid.count();
    std::vector<std::size_t> offsets(n_tiles + 1);
    BdCodec::walkTileRange(bd_stream.data(), bd_stream.size(), grid, 0,
                           n_tiles, 0, offsets.data());
    bdCheckStreamEnd(bd_stream.data(), bd_stream.size(), offsets[n_tiles]);

    // Byte span of the stream containing payload bits [0, offsets[t]).
    auto startByteOf = [&](std::size_t t) {
        return (kBdStreamHeaderBits + offsets[t]) / 8;
    };
    auto endByteOf = [&](std::size_t t) {
        return (kBdStreamHeaderBits + offsets[t] + 7) / 8;
    };

    // Greedy tile-aligned split under the MTU payload budget.
    const std::size_t max_payload =
        params.mtuBytes - kPacketHeaderBytes;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t t0 = 0; t0 < n_tiles;) {
        std::size_t t1 = t0 + 1;
        while (t1 < n_tiles &&
               endByteOf(t1 + 1) - startByteOf(t0) <= max_payload)
            ++t1;
        ranges.emplace_back(t0, t1);
        t0 = t1;
    }

    PacketizedFrame pf;
    if (ecc) {
        pf.tileMinEccDeg.resize(n_tiles);
        TileRect rect = grid.rect(0);
        for (std::size_t t = 0; t < n_tiles; ++t, rect = grid.next(rect))
            pf.tileMinEccDeg[t] = ecc->minInRect(rect);
    }
    pf.manifest.width = static_cast<std::uint32_t>(grid.width);
    pf.manifest.height = static_cast<std::uint32_t>(grid.height);
    pf.manifest.tileSize = static_cast<std::uint32_t>(grid.tileSize);
    pf.manifest.tileCount = static_cast<std::uint32_t>(n_tiles);
    pf.manifest.packetCount = static_cast<std::uint32_t>(ranges.size());
    pf.manifest.payloadBits = offsets[n_tiles];
    pf.manifest.streamBytes =
        static_cast<std::uint32_t>(bd_stream.size());
    pf.manifest.streamCrc = crc32(bd_stream.data(), bd_stream.size());

    PacketHeader base;
    base.sessionId = params.sessionId;
    base.streamId = params.streamId;
    base.frameId = frame_id;

    pf.packets.reserve(ranges.size() + 1);
    Packet manifest_pkt;
    manifest_pkt.header = base;
    manifest_pkt.header.type = PacketType::Manifest;
    manifest_pkt.header.sequence = 0;
    manifest_pkt.header.payloadBytes = kManifestPayloadBytes;
    manifest_pkt.bytes =
        buildManifestPacket(manifest_pkt.header, pf.manifest);
    pf.wireBytes += manifest_pkt.bytes.size();
    pf.packets.push_back(std::move(manifest_pkt));

    std::uint32_t seq = 1;
    for (const auto &[t0, t1] : ranges) {
        Packet pkt;
        pkt.header = base;
        pkt.header.type = PacketType::TileData;
        pkt.header.sequence = seq++;
        pkt.header.tileBegin = static_cast<std::uint32_t>(t0);
        pkt.header.tileCount = static_cast<std::uint32_t>(t1 - t0);
        pkt.header.payloadBitBegin = offsets[t0];
        const std::size_t sb = startByteOf(t0);
        const std::size_t eb = endByteOf(t1);
        pkt.header.payloadBytes =
            static_cast<std::uint32_t>(eb - sb);
        pkt.bytes =
            buildPacket(pkt.header, bd_stream.data() + sb, eb - sb);
        if (ecc)
            pkt.minEccDeg = *std::min_element(pf.tileMinEccDeg.begin() + t0,
                                              pf.tileMinEccDeg.begin() + t1);
        pf.wireBytes += pkt.bytes.size();
        pf.packets.push_back(std::move(pkt));
    }

    // Priority order: manifest, then foveal-out (stable: equal
    // eccentricities keep tile order, so the no-map schedule is plain
    // tile order).
    pf.sendOrder.resize(pf.packets.size());
    std::iota(pf.sendOrder.begin(), pf.sendOrder.end(), 0u);
    std::stable_sort(pf.sendOrder.begin() + 1, pf.sendOrder.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return pf.packets[a].minEccDeg <
                                pf.packets[b].minEccDeg;
                     });
    return pf;
}

} // namespace pce::net

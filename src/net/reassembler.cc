#include "net/reassembler.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/integrity.hh"

namespace pce::net {

namespace {

/**
 * Parked tile-data packets per frame awaiting their manifest. Bounds
 * receiver memory against a sender (or attacker) that streams data
 * for a manifest that never comes; overflow rejects the newest packet
 * rather than evicting validated state.
 */
constexpr std::size_t kMaxPendingPackets = 4096;

/** Flat fill value for tiles with no fallback source (mid-gray). */
constexpr std::uint8_t kFillValue = 128;

} // namespace

FrameReassembler::FrameReassembler(const ReassemblerParams &params)
    : params_(params)
{}

bool
FrameReassembler::isFinalized(std::uint32_t stream_id,
                              std::uint64_t frame_id) const
{
    const auto fin = finalized_.find(stream_id);
    return fin != finalized_.end() && frame_id <= fin->second;
}

AcceptResult
FrameReassembler::accept(const std::uint8_t *data, std::size_t n)
{
    PacketHeader header;
    if (!parsePacketHeader(data, n, header)) {
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    if (params_.verifyCrc && !verifyPacketCrc(data, n)) {
        ++rejectedCrc_;
        return AcceptResult::RejectedCrc;
    }
    if (header.sessionId != params_.sessionId) {
        ++rejectedSession_;
        return AcceptResult::RejectedSession;
    }
    if (isFinalized(header.streamId, header.frameId)) {
        ++stale_;
        return AcceptResult::Stale;
    }
    FrameState &st = frames_[FrameKey{header.streamId, header.frameId}];
    const std::uint8_t *payload = data + kPacketHeaderBytes;
    if (header.type == PacketType::Manifest)
        return processManifest(st, header, payload);
    if (!st.haveManifest) {
        // Reorder tolerance: data outran its manifest. Park the raw
        // datagram (it already passed CRC + session) and replay it
        // when the manifest lands.
        if (st.pending.size() >= kMaxPendingPackets) {
            ++rejectedMalformed_;
            return AcceptResult::RejectedMalformed;
        }
        st.pending.emplace_back(data, data + n);
        return AcceptResult::Accepted;
    }
    return processTileData(st, header, payload);
}

AcceptResult
FrameReassembler::processManifest(FrameState &st,
                                  const PacketHeader &header,
                                  const std::uint8_t *payload)
{
    FrameManifest m;
    if (!parseManifestPayload(payload, header.payloadBytes, m)) {
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    if (st.haveManifest) {
        ++st.duplicates;
        ++duplicates_;
        return AcceptResult::Duplicate;
    }
    // The manifest must describe a stream the BD framing rules allow
    // before a single buffer byte is sized from its attacker-influenced
    // fields. g is read only once the geometry rule holds, so its
    // narrowing is exact by then.
    const bool geometry_ok =
        bdGeometryValid(m.width, m.height, m.tileSize, params_.maxPixels);
    const BdStreamHeader g{static_cast<int>(m.width),
                           static_cast<int>(m.height),
                           static_cast<int>(m.tileSize)};
    if (!geometry_ok || m.tileCount != bdTileCount(g) ||
        m.packetCount < 1 || m.packetCount > m.tileCount ||
        m.payloadBits < bdPayloadBounds(g).minBits ||
        m.payloadBits > bdPayloadBounds(g).maxBits ||
        m.streamBytes != bdStreamBytes(m.payloadBits)) {
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    st.manifest = m;
    st.haveManifest = true;
    st.tiles = tileGrid(g.width, g.height, g.tileSize);
    st.buffer.assign(m.streamBytes, 0);
    bdWriteStreamHeader(st.buffer.data(), g.width, g.height,
                        g.tileSize);
    st.tileHave.assign(m.tileCount, 0);
    st.seqHave.assign(m.packetCount + 1, 0);
    st.seqHave[0] = 1;
    ++accepted_;

    // Replay everything that was parked waiting for this manifest.
    std::vector<std::vector<std::uint8_t>> pending =
        std::move(st.pending);
    st.pending.clear();
    for (const std::vector<std::uint8_t> &pkt : pending) {
        PacketHeader ph;
        if (parsePacketHeader(pkt.data(), pkt.size(), ph))
            processTileData(st, ph, pkt.data() + kPacketHeaderBytes);
    }
    return AcceptResult::Accepted;
}

AcceptResult
FrameReassembler::processTileData(FrameState &st,
                                  const PacketHeader &header,
                                  const std::uint8_t *payload)
{
    const FrameManifest &m = st.manifest;
    if (header.sequence == 0 || header.sequence > m.packetCount) {
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    if (st.seqHave[header.sequence]) {
        ++st.duplicates;
        ++duplicates_;
        return AcceptResult::Duplicate;
    }
    if (header.tileCount < 1 ||
        static_cast<std::uint64_t>(header.tileBegin) +
                header.tileCount >
            m.tileCount ||
        header.payloadBitBegin > m.payloadBits ||
        header.payloadBytes < 1) {
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    const std::size_t start_byte = static_cast<std::size_t>(
        (kBdStreamHeaderBits + header.payloadBitBegin) / 8);
    if (start_byte + header.payloadBytes > st.buffer.size()) {
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    // Splice the slice in, then prove it: the per-packet prefix walk
    // must validate every covered record and land the range's end bit
    // exactly on the packet's byte span. Failure restores the previous
    // bytes — a bad packet must not damage a neighbor's shared
    // boundary byte.
    std::vector<std::uint8_t> saved(
        st.buffer.begin() + static_cast<std::ptrdiff_t>(start_byte),
        st.buffer.begin() +
            static_cast<std::ptrdiff_t>(start_byte +
                                        header.payloadBytes));
    std::copy(payload, payload + header.payloadBytes,
              st.buffer.begin() +
                  static_cast<std::ptrdiff_t>(start_byte));
    bool ok = false;
    std::uint64_t end_bit = 0;
    try {
        end_bit = BdCodec::walkTileRange(
            st.buffer.data(), st.buffer.size(), st.tiles,
            header.tileBegin, header.tileBegin + header.tileCount,
            header.payloadBitBegin);
        const std::size_t end_byte = static_cast<std::size_t>(
            (kBdStreamHeaderBits + end_bit + 7) / 8);
        ok = end_bit <= m.payloadBits &&
             end_byte - start_byte == header.payloadBytes;
    } catch (const std::runtime_error &) {
        ok = false;
    }
    if (!ok) {
        std::copy(saved.begin(), saved.end(),
                  st.buffer.begin() +
                      static_cast<std::ptrdiff_t>(start_byte));
        ++rejectedMalformed_;
        return AcceptResult::RejectedMalformed;
    }
    st.seqHave[header.sequence] = 1;
    std::fill(st.tileHave.begin() + header.tileBegin,
              st.tileHave.begin() + header.tileBegin + header.tileCount,
              std::uint8_t(1));
    st.ranges.push_back(FrameState::Range{header.tileBegin,
                                          header.tileCount,
                                          header.payloadBitBegin});
    ++st.accepted;
    ++accepted_;
    return AcceptResult::Accepted;
}

std::vector<std::uint32_t>
FrameReassembler::missingSequences(std::uint32_t stream_id,
                                   std::uint64_t frame_id) const
{
    if (isFinalized(stream_id, frame_id))
        return {};
    const auto it = frames_.find(FrameKey{stream_id, frame_id});
    if (it == frames_.end() || !it->second.haveManifest)
        return {0};  // everything starts with the manifest
    const FrameState &st = it->second;
    std::vector<std::uint32_t> missing;
    for (std::uint32_t seq = 1; seq <= st.manifest.packetCount; ++seq)
        if (!st.seqHave[seq])
            missing.push_back(seq);
    return missing;
}

bool
FrameReassembler::frameComplete(std::uint32_t stream_id,
                                std::uint64_t frame_id) const
{
    const auto it = frames_.find(FrameKey{stream_id, frame_id});
    if (it == frames_.end() || !it->second.haveManifest)
        return false;
    return it->second.accepted == it->second.manifest.packetCount;
}

FrameDeliveryReport
FrameReassembler::finalizeFrame(std::uint32_t stream_id,
                                std::uint64_t frame_id, ImageU8 &out)
{
    FrameDeliveryReport rep;
    rep.streamId = stream_id;
    rep.frameId = frame_id;
    const auto [fin, first] = finalized_.try_emplace(stream_id, frame_id);
    if (!first)
        fin->second = std::max(fin->second, frame_id);

    const auto it = frames_.find(FrameKey{stream_id, frame_id});
    if (it == frames_.end() || !it->second.haveManifest) {
        // Nothing decodable arrived: whole-frame temporal hold.
        const auto prev = lastFinalized_.find(stream_id);
        if (prev != lastFinalized_.end() &&
            prev->second.width() > 0)
            out = prev->second;
        if (it != frames_.end())
            frames_.erase(it);
        return rep;
    }

    FrameState &st = it->second;
    const FrameManifest &m = st.manifest;
    rep.manifestReceived = true;
    rep.totalTiles = m.tileCount;
    rep.packetsExpected = m.packetCount;
    rep.packetsAccepted = st.accepted;
    rep.duplicatePackets = st.duplicates;
    rep.complete = st.accepted == m.packetCount;

    if (out.width() != static_cast<int>(m.width) ||
        out.height() != static_cast<int>(m.height))
        out = ImageU8(static_cast<int>(m.width),
                      static_cast<int>(m.height));

    // Present tiles: prefix-seek decode per accepted range.
    for (const FrameState::Range &r : st.ranges)
        BdCodec::decodeTileRangeInto(st.buffer.data(),
                                     st.buffer.size(), st.tiles,
                                     r.tileBegin,
                                     r.tileBegin + r.tileCount,
                                     r.bitBegin, out);

    // Missing tiles: previous finalized frame if the geometry still
    // matches (temporal hold), else the flagged flat fill.
    const auto prev = lastFinalized_.find(stream_id);
    const ImageU8 *hold = nullptr;
    if (prev != lastFinalized_.end() &&
        prev->second.width() == out.width() &&
        prev->second.height() == out.height())
        hold = &prev->second;
    for (std::size_t t = 0; t < st.tiles.size(); ++t) {
        if (st.tileHave[t]) {
            ++rep.deliveredTiles;
            continue;
        }
        const TileRect &rect = st.tiles[t];
        for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
            std::uint8_t *row = out.pixel(rect.x0, y);
            if (hold) {
                const std::uint8_t *src = hold->pixel(rect.x0, y);
                std::copy(src, src + 3 * rect.w, row);
            } else {
                std::fill(row, row + 3 * rect.w, kFillValue);
            }
        }
        if (hold)
            ++rep.fallbackTiles;
        else
            ++rep.filledTiles;
    }
    rep.byteIdentical =
        rep.complete &&
        crc32(st.buffer.data(), st.buffer.size()) == m.streamCrc;
    rep.tileDelivered.assign(st.tileHave.begin(), st.tileHave.end());

    lastFinalized_[stream_id] = out;
    frames_.erase(it);
    return rep;
}

} // namespace pce::net

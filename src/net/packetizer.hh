/**
 * @file
 * Sender-side packetization: a BD bitstream into MTU-budgeted,
 * tile-aligned wire packets with a foveal-first send schedule.
 *
 * Packets are cut on per-tile bit-offset prefix boundaries (the
 * decoder's walk, BdCodec::walkTileRange): each tile-data packet
 * covers a contiguous run of whole tiles, its payload being the byte
 * span of the stream that contains those tiles' bits. Adjacent packets
 * share at most one boundary byte (tile records are bit-granular);
 * since both carry that byte from the same source stream, reassembly
 * copies are idempotent and order-free. Greedy accumulation packs as
 * many tiles as fit the MTU minus the header; a single tile larger
 * than the MTU gets its own oversize packet rather than being split —
 * splitting below tile granularity would break the
 * every-packet-decodes-alone property that loss resilience rests on.
 *
 * The send order is the eccentricity map turned into a QoS policy:
 * manifest first (nothing reassembles without it), then data packets
 * by ascending minimum eccentricity over their tile range, so the
 * foveal region crosses the wire before any peripheral byte and a
 * congestion budget cutting the tail sheds strictly peripheral-first.
 */

#ifndef PCE_NET_PACKETIZER_HH
#define PCE_NET_PACKETIZER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/wire_format.hh"

namespace pce {

class EccentricityMap;

namespace net {

/** One packetized datagram plus its scheduling metadata. */
struct Packet
{
    PacketHeader header;
    std::vector<std::uint8_t> bytes;  ///< serialized datagram (CRC set)
    /** Minimum eccentricity over the covered tiles, degrees; 0 for the
     *  manifest (it outranks everything). */
    double minEccDeg = 0.0;
};

struct PacketizerParams
{
    /** Total datagram budget, header included. Must exceed
     *  kPacketHeaderBytes; 1200 clears every real-world UDP path. */
    std::size_t mtuBytes = 1200;
    std::uint64_t sessionId = 0;
    std::uint32_t streamId = 0;
};

/** A frame cut into wire packets, in sequence order. */
struct PacketizedFrame
{
    FrameManifest manifest;
    /** packets[0] is the manifest; packets[seq] is sequence seq. */
    std::vector<Packet> packets;
    /** Indices into packets in send priority order: manifest, then
     *  data by ascending minEccDeg (ties in tile order). */
    std::vector<std::uint32_t> sendOrder;
    /** Sum of all datagram bytes (one transmission of everything). */
    std::size_t wireBytes = 0;
    /** Per tile, in tile order: the minimum eccentricity over the
     *  tile, degrees (EccentricityMap::minInRect); empty without a
     *  map. The packets' minEccDeg and the sender's foveal accounting
     *  both read it. */
    std::vector<double> tileMinEccDeg;
};

/**
 * Packetize one encoded frame's BD stream. Validates the stream with
 * the BD framing rules first — bdReadStreamHeader, the full prefix
 * walk, bdCheckStreamEnd — so it refuses exactly what
 * BdCodec::decodeInto refuses (throws std::runtime_error on a
 * malformed or over-cap stream,
 * std::invalid_argument on an unusable MTU); @p ecc null
 * degrades the schedule to plain tile order.
 */
PacketizedFrame packetizeFrame(const std::vector<std::uint8_t> &bd_stream,
                               std::uint64_t frame_id,
                               const EccentricityMap *ecc,
                               const PacketizerParams &params);

} // namespace net
} // namespace pce

#endif // PCE_NET_PACKETIZER_HH

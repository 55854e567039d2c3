/**
 * @file
 * Deadline-driven frame reassembly with graceful foveal-priority
 * degradation.
 *
 * FrameReassembler is the receiver half of the delivery tier: packets
 * arrive in any order, duplicated, corrupted, or not at all, and at
 * the frame's deadline the caller takes whatever frame can be proven
 * correct. The acceptance ladder per datagram:
 *
 *   1. structural header parse (magic/version/length)  -> rejected
 *   2. CRC-32 over the whole datagram                  -> rejected
 *   3. session id check                                -> rejected
 *   4. frame at or before the stream's newest          -> stale
 *      finalized one
 *   5. duplicate sequence / duplicate manifest         -> ignored
 *   6. per-packet prefix walk (BdCodec::walkTileRange) -> rejected,
 *      buffer bytes restored — a CRC-valid packet whose tile records
 *      are structurally inconsistent never marks tiles present
 *
 * Only step-6 survivors contribute tiles. Tile-data that outruns its
 * manifest is parked and replayed when the manifest lands (reorder
 * tolerance); a frame finalized without a manifest degrades whole.
 *
 * finalizeFrame is the deadline: present tile runs decode via the
 * prefix seek path (BdCodec::decodeTileRangeInto) straight into the
 * output image; each missing tile falls back to the previous finalized
 * frame's pixels (temporal hold) or, with no usable previous frame, a
 * flagged flat fill — and the FrameDeliveryReport says exactly which
 * tiles took which path, so a caller can distinguish "perfect", "stale
 * periphery", and "hole". Byte identity of a complete frame is proven
 * end-to-end by the manifest's whole-stream CRC-32, not assumed.
 *
 * Determinism: the reassembler is a pure function of the packet
 * sequence; no timers, no threads. Deadlines belong to the caller's
 * round loop (delivery.hh).
 */

#ifndef PCE_NET_REASSEMBLER_HH
#define PCE_NET_REASSEMBLER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "bd/bd_codec.hh"
#include "image/image.hh"
#include "net/wire_format.hh"

namespace pce::net {

struct ReassemblerParams
{
    /** Expected session; datagrams for any other are rejected. */
    std::uint64_t sessionId = 0;
    /**
     * Verify the per-packet CRC-32 before anything else. On is the
     * product configuration; off exists solely as the baseline arm of
     * the fault-injection campaign (src/fault, net_packet surface),
     * which measures exactly what the CRC buys.
     */
    bool verifyCrc = true;
    /** Decompression-bomb guard on manifest geometry (see src/bd). */
    std::uint64_t maxPixels = kBdDefaultMaxDecodePixels;
};

/** Outcome of feeding one datagram to accept(). */
enum class AcceptResult : std::uint8_t
{
    Accepted,           ///< new data, tiles (or manifest) recorded
    Duplicate,          ///< already had this sequence; ignored
    Stale,              ///< frame at or before the newest finalized
                        ///< one of its stream; ignored
    RejectedCrc,        ///< CRC mismatch (bit flips in transit)
    RejectedSession,    ///< wrong session id
    RejectedMalformed,  ///< structural parse or prefix-walk failure
};

/** What finalizeFrame delivered, tile by tile. */
struct FrameDeliveryReport
{
    std::uint32_t streamId = 0;
    std::uint64_t frameId = 0;
    bool manifestReceived = false;
    std::size_t totalTiles = 0;
    /** Tiles decoded from received packets. */
    std::size_t deliveredTiles = 0;
    /** Missing tiles substituted from the previous finalized frame. */
    std::size_t fallbackTiles = 0;
    /** Missing tiles flat-filled (no usable previous frame). */
    std::size_t filledTiles = 0;
    /** Data packets the manifest promised (sequences 1..N). */
    std::size_t packetsExpected = 0;
    /** Distinct data packets accepted for this frame. */
    std::size_t packetsAccepted = 0;
    /** Duplicate datagrams observed for this frame. */
    std::size_t duplicatePackets = 0;
    /** Every promised packet arrived. */
    bool complete = false;
    /** complete and the reassembled stream's CRC-32 matches the
     *  manifest's — the end-to-end proof of lossless delivery. */
    bool byteIdentical = false;
    /** Per-tile delivery mask (totalTiles entries, 1 = from wire). */
    std::vector<std::uint8_t> tileDelivered;
};

class FrameReassembler
{
  public:
    explicit FrameReassembler(const ReassemblerParams &params = {});

    /** Feed one datagram (see the acceptance ladder above). */
    AcceptResult accept(const std::uint8_t *data, std::size_t n);
    AcceptResult accept(const std::vector<std::uint8_t> &packet)
    { return accept(packet.data(), packet.size()); }

    /**
     * Sequence numbers the frame still needs — the NACK list. {0}
     * (the manifest) for a frame we know nothing about, empty for a
     * finalized frame. Without a manifest the data sequences cannot be
     * enumerated yet, so the list grows once the manifest lands.
     */
    std::vector<std::uint32_t> missingSequences(
        std::uint32_t stream_id, std::uint64_t frame_id) const;

    /** True when every promised packet of the frame has arrived. */
    bool frameComplete(std::uint32_t stream_id,
                       std::uint64_t frame_id) const;

    /**
     * Deadline: decode what is present, degrade what is not (see the
     * file comment), retire the frame and every earlier frame of the
     * stream (their later packets are Stale, so finalize a stream's
     * frames in increasing order), and remember the output as the
     * stream's fallback source. @p out is sized to the frame geometry;
     * a frame with no manifest leaves @p out holding the previous
     * finalized frame (whole-frame hold) or untouched when there is
     * none.
     */
    FrameDeliveryReport finalizeFrame(std::uint32_t stream_id,
                                      std::uint64_t frame_id,
                                      ImageU8 &out);

    // Receiver-lifetime accounting, across all frames and streams.
    std::size_t packetsAccepted() const { return accepted_; }
    std::size_t duplicatePackets() const { return duplicates_; }
    std::size_t rejectedCrc() const { return rejectedCrc_; }
    std::size_t rejectedSession() const { return rejectedSession_; }
    std::size_t rejectedMalformed() const { return rejectedMalformed_; }
    std::size_t stalePackets() const { return stale_; }
    /** Sum of every rejection class. */
    std::size_t rejectedPackets() const
    { return rejectedCrc_ + rejectedSession_ + rejectedMalformed_; }

  private:
    /** Per-in-flight-frame reassembly state. */
    struct FrameState
    {
        bool haveManifest = false;
        FrameManifest manifest;
        std::vector<std::uint8_t> buffer;  ///< full-stream bytes
        std::vector<TileRect> tiles;
        std::vector<std::uint8_t> tileHave;
        std::vector<std::uint8_t> seqHave;  ///< packetCount + 1 entries
        /** Accepted ranges: {tileBegin, tileCount, payloadBitBegin}. */
        struct Range
        {
            std::uint32_t tileBegin;
            std::uint32_t tileCount;
            std::uint64_t bitBegin;
        };
        std::vector<Range> ranges;
        std::size_t accepted = 0;
        std::size_t duplicates = 0;
        /** Tile-data parked until the manifest arrives. */
        std::vector<std::vector<std::uint8_t>> pending;
    };

    using FrameKey = std::pair<std::uint32_t, std::uint64_t>;

    /** True when @p frame_id is at or before @p stream_id's newest
     *  finalized frame. */
    bool isFinalized(std::uint32_t stream_id,
                     std::uint64_t frame_id) const;

    AcceptResult processManifest(FrameState &st,
                                 const PacketHeader &header,
                                 const std::uint8_t *payload);
    AcceptResult processTileData(FrameState &st,
                                 const PacketHeader &header,
                                 const std::uint8_t *payload);

    ReassemblerParams params_;
    std::map<FrameKey, FrameState> frames_;
    /**
     * Newest finalized frame id per stream. Frames are finalized in
     * increasing order, so every id at or below it is retired, and the
     * record stays one entry per stream however long the stream runs.
     */
    std::map<std::uint32_t, std::uint64_t> finalized_;
    /** Last finalized output per stream: the degradation source. */
    std::map<std::uint32_t, ImageU8> lastFinalized_;
    std::size_t accepted_ = 0;
    std::size_t duplicates_ = 0;
    std::size_t rejectedCrc_ = 0;
    std::size_t rejectedSession_ = 0;
    std::size_t rejectedMalformed_ = 0;
    std::size_t stale_ = 0;
};

} // namespace pce::net

#endif // PCE_NET_REASSEMBLER_HH

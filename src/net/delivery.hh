/**
 * @file
 * Deadline-driven delivery loop: the sender policy that ties the
 * packetizer, the lossy channel, and the reassembler together.
 *
 * deliverFrame runs one frame through a fixed number of NACK rounds:
 *
 *   round r:  transmit every eligible packet in foveal-priority order
 *             under the round's congestion budget
 *             -> channel.ready() delivers this round's arrivals
 *             -> receiver NACKs the still-missing sequences (the
 *                back-channel is modeled reliable)
 *             -> lost packets become eligible again after an
 *                exponential backoff (1, 2, 4, ... rounds)
 *
 * until either nothing is missing or the frame deadline
 * (deadlineRounds) expires — at which point the receiver finalizes
 * whatever it can prove and degrades the rest (reassembler.hh). The
 * QoS invariant this loop exists for: when bandwidth or the deadline
 * forces a choice, peripheral tiles are shed first, because the
 * foveal-first send order means foveal packets get their initial
 * transmission *and* every retransmission attempt before peripheral
 * packets see the budget.
 *
 * Determinism: rounds, not wall clock. The same stream, seed, and
 * policy replay the same delivery bit-for-bit, which is what makes
 * loss scenarios testable (lossy_channel.hh).
 *
 * DeliverySession composes this with the encode service: collectFor
 * bounds the wait for the encoder, so a stalled encode degrades that
 * frame (whole-frame temporal hold) instead of wedging the delivery
 * loop.
 */

#ifndef PCE_NET_DELIVERY_HH
#define PCE_NET_DELIVERY_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <optional>

#include "net/lossy_channel.hh"
#include "net/packetizer.hh"
#include "net/rate_control.hh"
#include "net/reassembler.hh"
#include "service/encode_service.hh"

namespace pce {
class EccentricityMap;
class ImageU8;
} // namespace pce

namespace pce::net {

/** Per-frame sender policy. */
struct SenderPolicy
{
    /** Datagram budget per packet, header included. */
    std::size_t mtuBytes = 1200;
    /**
     * Congestion budget: bytes the sender may put on the wire per
     * round. Foveal packets spend it first; what does not fit waits,
     * and what never fits before the deadline is shed. SIZE_MAX =
     * uncongested.
     */
    std::size_t budgetBytesPerRound = static_cast<std::size_t>(-1);
    /** Tiles at or below this eccentricity are the foveal region. */
    double fovealCutoffDeg = 5.0;
    /** NACK rounds before the frame is finalized as-is. */
    int deadlineRounds = 8;
    /** Retransmissions per packet beyond the initial send. */
    int maxRetransmitAttempts = 4;
    std::uint64_t sessionId = 0;
    std::uint32_t streamId = 0;
    /**
     * Adaptive rate control (net/rate_control.hh): DeliverySession
     * owns a persistent RateController tuned by `rateControl`, the
     * per-round budget is derived from delivery feedback instead of
     * `budgetBytesPerRound`, and shedding becomes the continuous
     * foveal cutoff. Free-standing deliverFrame callers opt in by
     * passing their own controller.
     */
    bool adaptiveRate = false;
    RateControlParams rateControl;
};

/** Everything one frame's delivery did, sender and receiver side. */
struct DeliveryReport
{
    /** Receiver-side outcome (finalizeFrame). */
    FrameDeliveryReport frame;
    /** Datagrams put on the wire, retransmissions included. */
    std::size_t packetsSent = 0;
    std::size_t bytesSent = 0;
    /** Of those, NACK-driven retransmissions. */
    std::size_t retransmittedPackets = 0;
    std::size_t retransmittedBytes = 0;
    /** Packets never transmitted at all (congestion shed). */
    std::size_t shedPackets = 0;
    /** Tiles those shed packets carried. */
    std::size_t shedTiles = 0;
    /** Wire bytes those shed packets would have cost. */
    std::size_t shedBytes = 0;
    /** The frame ran under a RateController-derived budget. This
     *  and the fields below are the sender's rate-control state; the
     *  defaults describe a non-adaptive sender. */
    bool adaptiveRate = false;
    /** Congestion budget the frame's rounds spent, bytes per round
     *  (the policy constant when not adaptive). */
    std::size_t budgetBytesPerRound = 0;
    /** Controller's EWMA loss-rate estimate after this frame. */
    double estimatedLossRate = 0.0;
    /** Controller's EWMA delivery-RTT estimate, rounds. */
    double estimatedRttRounds = 0.0;
    /** Continuous foveal shed radius: tiles at eccentricities above
     *  this were shed before transmission. Infinity = nothing shed
     *  proactively (every packet admitted). */
    double cutoffEccDeg = std::numeric_limits<double>::infinity();
    /**
     * Smallest tile eccentricity among shed packets, degrees;
     * infinity when nothing was shed. Planned shedding starts at
     * cutoffEccDeg and moves outward; when the loss estimate
     * underruns the channel, admitted packets can additionally
     * starve on retransmission pressure and shed *inside* the
     * cutoff. The invariants the soak harness holds this to: the
     * foveal region is never shed (foveal-first transmit order
     * spends the budget there first), and on frames without
     * retransmission pressure nothing inside the cutoff is shed.
     */
    double minShedEccDeg = std::numeric_limits<double>::infinity();
    /** NACK rounds the delivery used (<= deadlineRounds). */
    int roundsUsed = 0;
    /** Tiles within fovealCutoffDeg (0 without an eccentricity map). */
    std::size_t fovealTiles = 0;
    /** Of those, delivered from the wire. */
    std::size_t fovealDelivered = 0;
    /**
     * The QoS headline: the manifest arrived and every foveal tile was
     * delivered from the wire (vacuously requires manifestReceived;
     * with no eccentricity map there are no foveal tiles and this just
     * reports manifest arrival).
     */
    bool fovealIntact = false;
    /** DeliverySession only: the encoder missed its collect deadline. */
    bool encodeTimedOut = false;
};

/**
 * Deliver one encoded frame over @p channel into @p receiver (see the
 * file comment for the round loop), finalize it at the deadline, and
 * leave the degraded-or-perfect result in @p out. @p ecc (borrowed,
 * may be null) drives both the send priority and the foveal
 * accounting; its dimensions must match the encoded frame's.
 *
 * @p rate (borrowed, may be null) switches the frame to adaptive
 * rate control: the round budget comes from the controller, packets
 * beyond the continuous foveal cutoff are shed before transmission,
 * and the frame's feedback is folded back into the controller so the
 * next frame adapts. The returned report's rate-control fields
 * record exactly what the frame ran under.
 */
DeliveryReport deliverFrame(const std::vector<std::uint8_t> &bd_stream,
                            std::uint64_t frame_id,
                            const EccentricityMap *ecc,
                            LossyChannel &channel,
                            FrameReassembler &receiver, ImageU8 &out,
                            const SenderPolicy &policy = {},
                            RateController *rate = nullptr);

/**
 * Per-stream delivery loop over an EncodeService stream: collect each
 * encoded frame with a deadline (collectFor) and deliver it through
 * one shared channel/receiver pair. An encode that misses its
 * deadline finalizes the frame id anyway — whole-frame temporal hold,
 * encodeTimedOut set — and the late result, collected on a later
 * call, delivers under the *next* frame id (late content, never a
 * wedged loop, never a dropped result). Frame ids are assigned here,
 * consecutively from 0.
 */
class DeliverySession
{
  public:
    /**
     * @p service and @p channel are borrowed and must outlive the
     * session; @p ecc may be null (no foveal prioritization). The
     * receiver is owned and configured from @p policy's session id.
     */
    DeliverySession(EncodeService &service, StreamHandle handle,
                    LossyChannel &channel,
                    const SenderPolicy &policy = {},
                    const EccentricityMap *ecc = nullptr);

    /** Submit a frame to the underlying encode stream. */
    void submit(const ImageF &frame)
    { service_.submit(handle_, frame); }

    /**
     * Collect the next encoded frame (waiting at most
     * @p encode_timeout) and deliver it. Rethrows what collectFor
     * throws for a ready-but-bad frame (encode error,
     * FrameQuarantined).
     */
    DeliveryReport deliverNext(ImageU8 &out,
                               std::chrono::milliseconds encode_timeout);

    /** Receiver-side lifetime counters. */
    const FrameReassembler &receiver() const { return receiver_; }
    /** Frame ids consumed so far (delivered or timed out). */
    std::uint64_t framesDelivered() const { return nextFrame_; }
    /** The session's persistent controller (null without
     *  SenderPolicy::adaptiveRate). */
    const RateController *rateController() const
    { return rate_ ? &*rate_ : nullptr; }

  private:
    EncodeService &service_;
    StreamHandle handle_;
    LossyChannel &channel_;
    SenderPolicy policy_;
    const EccentricityMap *ecc_;
    FrameReassembler receiver_;
    /** Persistent per-session AIMD state (adaptiveRate only). */
    std::optional<RateController> rate_;
    std::uint64_t nextFrame_ = 0;
};

} // namespace pce::net

#endif // PCE_NET_DELIVERY_HH

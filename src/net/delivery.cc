#include "net/delivery.hh"

#include <algorithm>
#include <limits>
#include <set>

#include "image/image.hh"
#include "obs/trace.hh"

namespace pce::net {

namespace {

/** Per-packet transmission state for the round loop. */
struct TxState
{
    int transmissions = 0;
    int eligibleRound = 0;
    bool delivered = false;
    bool gaveUp = false;
};

} // namespace

DeliveryReport
deliverFrame(const std::vector<std::uint8_t> &bd_stream,
             std::uint64_t frame_id, const EccentricityMap *ecc,
             LossyChannel &channel, FrameReassembler &receiver,
             ImageU8 &out, const SenderPolicy &policy,
             RateController *rate)
{
    // Every span and instant below inherits this frame's tag, so the
    // delivery rounds stitch onto the encode-side timeline when
    // policy.streamId is EncodeService::streamTraceId(handle).
    const obs::TraceTag traceTag{frame_id, policy.streamId,
                                 obs::kNoShard};
    obs::TagScope tagScope(traceTag);
    obs::TraceSpan deliverSpan("net/deliver_frame");

    PacketizerParams pp;
    pp.mtuBytes = policy.mtuBytes;
    pp.sessionId = policy.sessionId;
    pp.streamId = policy.streamId;
    obs::TraceSpan packSpan("net/packetize");
    const PacketizedFrame pf =
        packetizeFrame(bd_stream, frame_id, ecc, pp);
    packSpan.end();

    DeliveryReport rep;
    std::vector<TxState> tx(pf.packets.size());
    const int deadline = std::max(policy.deadlineRounds, 1);

    // Adaptive rate control: the controller supplies the round
    // budget, and the continuous foveal cutoff decides up front which
    // sendOrder prefix this frame attempts at all — everything past
    // the cutoff radius is shed before its first transmission, so
    // retransmission budget is never wasted on packets that cannot
    // complete before the deadline anyway.
    std::size_t round_budget = policy.budgetBytesPerRound;
    FovealCutoff cut;
    cut.admittedPackets = pf.packets.size();
    cut.admittedBytes = pf.wireBytes;
    cut.cutoffEccDeg = std::numeric_limits<double>::infinity();
    if (rate != nullptr) {
        round_budget = rate->budgetBytesPerRound();
        cut = continuousFovealCutoff(pf, round_budget, deadline,
                                     rate->estimator().lossRate(),
                                     rate->params());
        for (std::size_t i = cut.admittedPackets;
             i < pf.sendOrder.size(); ++i)
            tx[pf.sendOrder[i]].gaveUp = true;
    }

    for (int round = 0; round < deadline; ++round) {
        obs::TraceSpan roundSpan("net/round");
        const std::uint64_t round_bytes_before = rep.bytesSent;
        std::uint64_t backed_off = 0;
        rep.roundsUsed = round + 1;
        // Transmit in foveal-priority order under the round budget:
        // a foveal retransmission outranks a peripheral first send.
        std::size_t budget = round_budget;
        for (const std::uint32_t idx : pf.sendOrder) {
            TxState &t = tx[idx];
            if (t.delivered || t.gaveUp)
                continue;
            if (t.eligibleRound > round) {
                ++backed_off;
                continue;
            }
            const std::vector<std::uint8_t> &bytes =
                pf.packets[idx].bytes;
            if (bytes.size() > budget)
                continue;  // over budget this round; waits, then sheds
            budget -= bytes.size();
            channel.send(bytes);
            ++rep.packetsSent;
            rep.bytesSent += bytes.size();
            if (t.transmissions > 0) {
                ++rep.retransmittedPackets;
                rep.retransmittedBytes += bytes.size();
            }
            ++t.transmissions;
            // Exponential backoff before the next attempt: 1, 2, 4,
            // ... rounds (the deadline is the hard cutoff).
            t.eligibleRound =
                round +
                (1 << std::min(t.transmissions - 1, 8));
        }
        roundSpan.arg("bytes", rep.bytesSent - round_bytes_before);
        if (backed_off > 0)
            obs::traceInstant("net/backoff", "deferred", backed_off);

        // This round's arrivals, then the (reliable) NACK.
        for (const std::vector<std::uint8_t> &pkt : channel.ready())
            receiver.accept(pkt);
        const std::vector<std::uint32_t> missing =
            receiver.missingSequences(policy.streamId, frame_id);
        const std::set<std::uint32_t> missing_set(missing.begin(),
                                                  missing.end());
        // A NACK that still lists the manifest is incomplete: without
        // it the receiver cannot enumerate missing data sequences, so
        // absence from the list is no acknowledgment — treating it as
        // one would strand every dropped data packet unretransmitted.
        if (!missing_set.count(0))
            for (std::size_t i = 0; i < pf.packets.size(); ++i)
                if (!missing_set.count(pf.packets[i].header.sequence))
                    tx[i].delivered = true;
        if (missing.empty())
            break;
        obs::traceInstant("net/nack", "missing", missing.size());
        for (TxState &t : tx)
            if (!t.delivered && !t.gaveUp &&
                t.transmissions > policy.maxRetransmitAttempts)
                t.gaveUp = true;
    }

    for (std::size_t i = 0; i < pf.packets.size(); ++i) {
        if (tx[i].delivered || tx[i].transmissions > 0)
            continue;
        ++rep.shedPackets;
        rep.shedTiles += pf.packets[i].header.tileCount;
        rep.shedBytes += pf.packets[i].bytes.size();
        rep.minShedEccDeg =
            std::min(rep.minShedEccDeg, pf.packets[i].minEccDeg);
    }
    if (rep.shedPackets > 0)
        obs::traceInstant("net/shed", "packets", rep.shedPackets);

    obs::TraceSpan finSpan("net/finalize");
    rep.frame = receiver.finalizeFrame(policy.streamId, frame_id, out);
    finSpan.end();

    rep.adaptiveRate = rate != nullptr;
    rep.budgetBytesPerRound = round_budget;
    rep.cutoffEccDeg = cut.cutoffEccDeg;
    if (rate != nullptr) {
        // Fold this frame back into the controller so the *next*
        // frame adapts. Admitted-but-undelivered packets count as
        // losses the NACK loop never recovered.
        DeliveryFeedback fb;
        fb.packetsSent = rep.packetsSent;
        fb.retransmittedPackets = rep.retransmittedPackets;
        fb.admittedPackets = cut.admittedPackets;
        for (std::size_t i = 0; i < pf.sendOrder.size() &&
                                i < cut.admittedPackets; ++i)
            if (!tx[pf.sendOrder[i]].delivered)
                ++fb.undeliveredAdmitted;
        fb.roundsUsed = rep.roundsUsed;
        rate->onFrame(fb);
        rep.estimatedLossRate = rate->estimator().lossRate();
        rep.estimatedRttRounds = rate->estimator().rttRounds();
    }

    // Foveal accounting lives here, not in the receiver: the receiver
    // never sees an eccentricity map, only the delivery mask. The
    // packetizer already took each tile's minimum eccentricity.
    for (std::size_t t = 0; t < pf.tileMinEccDeg.size(); ++t) {
        if (pf.tileMinEccDeg[t] > policy.fovealCutoffDeg)
            continue;
        ++rep.fovealTiles;
        if (t < rep.frame.tileDelivered.size() &&
            rep.frame.tileDelivered[t])
            ++rep.fovealDelivered;
    }
    rep.fovealIntact = rep.frame.manifestReceived &&
                       rep.fovealDelivered == rep.fovealTiles;
    return rep;
}

DeliverySession::DeliverySession(EncodeService &service,
                                 StreamHandle handle,
                                 LossyChannel &channel,
                                 const SenderPolicy &policy,
                                 const EccentricityMap *ecc)
    : service_(service), handle_(handle), channel_(channel),
      policy_(policy), ecc_(ecc), receiver_([&] {
          ReassemblerParams rp;
          rp.sessionId = policy.sessionId;
          return rp;
      }())
{
    if (policy_.adaptiveRate)
        rate_.emplace(policy_.rateControl);
}

DeliveryReport
DeliverySession::deliverNext(ImageU8 &out,
                             std::chrono::milliseconds encode_timeout)
{
    FrameLease lease = service_.collectFor(handle_, encode_timeout);
    if (!lease.valid()) {
        // Encoder missed the frame deadline: finalize the frame id
        // with nothing in it — whole-frame temporal hold. The late
        // result stays owed and delivers under the next frame id.
        DeliveryReport rep;
        rep.encodeTimedOut = true;
        rep.frame = receiver_.finalizeFrame(policy_.streamId,
                                            nextFrame_++, out);
        if (rate_)
            rate_->onIdleFrame();  // stale channel knowledge decays
        return rep;
    }
    return deliverFrame(lease->bdStream, nextFrame_++, ecc_, channel_,
                        receiver_, out, policy_,
                        rate_ ? &*rate_ : nullptr);
}

} // namespace pce::net

/**
 * @file
 * Seeded, replayable lossy-transport simulator.
 *
 * The delivery tier's validation problem is that real packet loss is
 * not reproducible: a flaky test under real UDP is a useless test.
 * LossyChannel models the transport as a deterministic function of a
 * 64-bit seed and the send sequence — drop, duplication, bit
 * corruption, and delay/reorder are all drawn from one pce::Rng — so
 * every loss scenario in tests and benches replays exactly, across
 * runs and platforms.
 *
 * Time is modeled in *rounds* (one sender NACK cycle), not wall
 * seconds: send() stamps each surviving copy with an arrival round,
 * ready() delivers everything due in the current round and advances
 * the clock. Delayed copies land 1..maxDelayRounds rounds late and are
 * shuffled among that round's arrivals, which is what produces
 * reordering at the receiver. Determinism over realism: the knobs are
 * i.i.d. per packet, which is enough to exercise every reassembly path
 * (the point), not a faithful queueing model.
 */

#ifndef PCE_NET_LOSSY_CHANNEL_HH
#define PCE_NET_LOSSY_CHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace pce::net {

struct LossyChannelConfig
{
    double dropRate = 0.0;       ///< P(packet never arrives)
    double duplicateRate = 0.0;  ///< P(a second copy is delivered)
    double corruptRate = 0.0;    ///< P(1-3 distinct bits flipped)
    double reorderRate = 0.0;    ///< P(copy is delayed 1..maxDelayRounds)
    int maxDelayRounds = 2;      ///< worst-case extra rounds in flight
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

class LossyChannel
{
  public:
    explicit LossyChannel(const LossyChannelConfig &config = {});

    /** Submit one datagram; impairments are drawn and applied here. */
    void send(const std::vector<std::uint8_t> &packet);

    /**
     * Datagrams arriving in the current round (arrival order already
     * impaired), then advance the round clock. Delayed copies surface
     * in later calls.
     */
    std::vector<std::vector<std::uint8_t>> ready();

    /** Rounds elapsed (ready() calls). */
    int round() const { return round_; }

    /**
     * Retune the drop probability mid-stream (time-varying loss
     * schedules: rate_control.hh's scheduledDropRate). Only the
     * config changes — the RNG stream is untouched, so a schedule
     * replayed over the same seed draws the same random sequence and
     * the whole history stays deterministic.
     */
    void setDropRate(double rate) { config_.dropRate = rate; }
    const LossyChannelConfig &config() const { return config_; }

    // Impairment accounting (sent counts offered datagrams, the rest
    // count applied impairments).
    std::size_t packetsSent() const { return sent_; }
    std::size_t packetsDropped() const { return dropped_; }
    std::size_t packetsDuplicated() const { return duplicated_; }
    std::size_t packetsCorrupted() const { return corrupted_; }
    std::size_t packetsDelayed() const { return delayed_; }

  private:
    struct InFlight
    {
        int arriveRound = 0;
        std::uint64_t order = 0;  ///< within-round delivery key
        std::vector<std::uint8_t> bytes;
    };

    void enqueueCopy(std::vector<std::uint8_t> bytes);

    LossyChannelConfig config_;
    Rng rng_;
    std::vector<InFlight> pending_;
    int round_ = 0;
    std::uint64_t nextOrder_ = 0;
    std::size_t sent_ = 0;
    std::size_t dropped_ = 0;
    std::size_t duplicated_ = 0;
    std::size_t corrupted_ = 0;
    std::size_t delayed_ = 0;
};

} // namespace pce::net

#endif // PCE_NET_LOSSY_CHANNEL_HH

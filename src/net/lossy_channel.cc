#include "net/lossy_channel.hh"

#include <algorithm>
#include <utility>

namespace pce::net {

LossyChannel::LossyChannel(const LossyChannelConfig &config)
    : config_(config), rng_(config.seed)
{}

void
LossyChannel::enqueueCopy(std::vector<std::uint8_t> bytes)
{
    InFlight f;
    f.arriveRound = round_;
    f.order = nextOrder_++;
    if (config_.reorderRate > 0.0 &&
        rng_.uniform() < config_.reorderRate &&
        config_.maxDelayRounds > 0) {
        f.arriveRound +=
            1 + static_cast<int>(rng_.uniformInt(
                    static_cast<std::uint64_t>(
                        config_.maxDelayRounds)));
        // A delayed copy also loses its place among that round's
        // arrivals — this is where receiver-visible reordering comes
        // from.
        f.order = rng_.next();
        ++delayed_;
    }
    f.bytes = std::move(bytes);
    pending_.push_back(std::move(f));
}

void
LossyChannel::send(const std::vector<std::uint8_t> &packet)
{
    ++sent_;
    if (config_.dropRate > 0.0 && rng_.uniform() < config_.dropRate) {
        ++dropped_;
        return;
    }
    std::vector<std::uint8_t> bytes = packet;
    if (config_.corruptRate > 0.0 && !bytes.empty() &&
        rng_.uniform() < config_.corruptRate) {
        const int flips = 1 + static_cast<int>(rng_.uniformInt(3));
        const std::uint64_t n_bits = bytes.size() * 8;
        std::uint64_t flipped[3] = {};
        for (int i = 0; i < flips; ++i) {
            std::uint64_t bit = rng_.uniformInt(n_bits);
            // A second flip of one bit would undo the first and deliver
            // an intact datagram counted as corrupted. Step to the next
            // unflipped bit instead of drawing again, so the RNG stream
            // (every later impairment) is the same as without the step.
            while (std::find(flipped, flipped + i, bit) != flipped + i)
                bit = (bit + 1) % n_bits;
            flipped[i] = bit;
            bytes[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        ++corrupted_;
    }
    const bool duplicate = config_.duplicateRate > 0.0 &&
                           rng_.uniform() < config_.duplicateRate;
    if (duplicate) {
        ++duplicated_;
        enqueueCopy(bytes);  // second copy, independent delay draw
    }
    enqueueCopy(std::move(bytes));
}

std::vector<std::vector<std::uint8_t>>
LossyChannel::ready()
{
    std::vector<InFlight> due;
    std::vector<InFlight> keep;
    keep.reserve(pending_.size());
    for (InFlight &f : pending_) {
        if (f.arriveRound <= round_)
            due.push_back(std::move(f));
        else
            keep.push_back(std::move(f));
    }
    pending_ = std::move(keep);
    std::sort(due.begin(), due.end(),
              [](const InFlight &a, const InFlight &b) {
                  return a.arriveRound != b.arriveRound
                             ? a.arriveRound < b.arriveRound
                             : a.order < b.order;
              });
    ++round_;
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(due.size());
    for (InFlight &f : due)
        out.push_back(std::move(f.bytes));
    return out;
}

} // namespace pce::net

/**
 * @file
 * The seeded transport simulator every loss test and the soak sweep
 * stand on: a run replays exactly from its config, seed and send
 * sequence; every offered datagram is accounted for once the channel
 * drains; a delayed copy lands at most maxDelayRounds late; the
 * default config is a perfect wire; and corruption flips 1-3 bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "net/lossy_channel.hh"

namespace pce::net {
namespace {

using Datagram = std::vector<std::uint8_t>;

constexpr int kRounds = 40;
constexpr int kPerRound = 25;

/**
 * Datagram @p index: its index in the first 4 bytes (so a delivered
 * copy names its original), then 0-59 seeded filler bytes.
 */
Datagram
makeDatagram(std::uint32_t index)
{
    Rng rng(0x5eed0000u + index);
    Datagram d(4 + rng.uniformInt(60));
    std::memcpy(d.data(), &index, 4);
    for (std::size_t i = 4; i < d.size(); ++i)
        d[i] = static_cast<std::uint8_t>(rng.next());
    return d;
}

std::uint32_t
indexOf(const Datagram &d)
{
    std::uint32_t index = 0;
    std::memcpy(&index, d.data(), 4);
    return index;
}

LossyChannelConfig
impairedConfig(std::uint64_t seed)
{
    LossyChannelConfig c;
    c.dropRate = 0.2;
    c.duplicateRate = 0.15;
    c.corruptRate = 0.1;
    c.reorderRate = 0.3;
    c.maxDelayRounds = 3;
    c.seed = seed;
    return c;
}

struct Counters
{
    std::size_t sent, dropped, duplicated, corrupted, delayed;
    bool operator==(const Counters &) const = default;
};

/** Everything one run delivered, round by round, and its counters. */
struct ChannelRun
{
    std::vector<std::vector<Datagram>> rounds;
    Counters counters{};
    bool drained = false;  ///< one further ready() delivered nothing

    std::size_t delivered() const
    {
        std::size_t n = 0;
        for (const auto &r : rounds)
            n += r.size();
        return n;
    }
};

/**
 * kRounds rounds of kPerRound sends then one ready() each, followed by
 * maxDelayRounds + 1 drain calls (no sends).
 */
ChannelRun
runChannel(const LossyChannelConfig &config)
{
    LossyChannel ch(config);
    ChannelRun run;
    std::uint32_t next = 0;
    for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kPerRound; ++i)
            ch.send(makeDatagram(next++));
        run.rounds.push_back(ch.ready());
    }
    for (int r = 0; r <= config.maxDelayRounds; ++r)
        run.rounds.push_back(ch.ready());
    run.counters = {ch.packetsSent(), ch.packetsDropped(),
                    ch.packetsDuplicated(), ch.packetsCorrupted(),
                    ch.packetsDelayed()};
    run.drained = ch.ready().empty();
    return run;
}

TEST(LossyChannel, SameSeedAndSendsReplayExactly)
{
    const ChannelRun a = runChannel(impairedConfig(11));
    const ChannelRun b = runChannel(impairedConfig(11));
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.counters, b.counters);
    // Every impairment fired, so the replay compared real draws.
    EXPECT_GT(a.counters.dropped, 0u);
    EXPECT_GT(a.counters.duplicated, 0u);
    EXPECT_GT(a.counters.corrupted, 0u);
    EXPECT_GT(a.counters.delayed, 0u);

    const ChannelRun other = runChannel(impairedConfig(12));
    EXPECT_NE(a.rounds, other.rounds);
}

TEST(LossyChannel, DrainDeliversSentMinusDroppedPlusDuplicated)
{
    for (const int max_delay : {0, 1, 3, 7}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            LossyChannelConfig config = impairedConfig(seed);
            config.maxDelayRounds = max_delay;
            const ChannelRun run = runChannel(config);
            const Counters &c = run.counters;
            EXPECT_EQ(run.delivered(), c.sent - c.dropped + c.duplicated)
                << "seed " << seed << " max delay " << max_delay;
            EXPECT_TRUE(run.drained)
                << "seed " << seed << " max delay " << max_delay;
        }
    }
}

TEST(LossyChannel, DelayedCopiesLandWithinMaxDelayRounds)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        LossyChannelConfig config = impairedConfig(seed);
        config.corruptRate = 0.0;  // keep the index bytes readable
        const ChannelRun run = runChannel(config);
        std::map<std::uint32_t, int> copies;
        for (int r = 0; r < static_cast<int>(run.rounds.size()); ++r) {
            for (const Datagram &d : run.rounds[r]) {
                const std::uint32_t index = indexOf(d);
                ASSERT_EQ(d, makeDatagram(index)) << "seed " << seed;
                const int sent_round = static_cast<int>(index) / kPerRound;
                EXPECT_GE(r, sent_round) << "seed " << seed;
                EXPECT_LE(r, sent_round + config.maxDelayRounds)
                    << "seed " << seed << " datagram " << index;
                ++copies[index];
            }
        }
        for (const auto &[index, n] : copies)
            EXPECT_LE(n, 2) << "seed " << seed << " datagram " << index;
    }
}

TEST(LossyChannel, DefaultConfigIsAPerfectWire)
{
    LossyChannel ch;
    std::uint32_t next = 0;
    for (int r = 0; r < kRounds; ++r) {
        std::vector<Datagram> sent;
        for (int i = 0; i < kPerRound; ++i) {
            sent.push_back(makeDatagram(next++));
            ch.send(sent.back());
        }
        EXPECT_EQ(ch.ready(), sent) << "round " << r;
    }
    EXPECT_TRUE(ch.ready().empty());
    EXPECT_EQ(ch.packetsSent(), std::size_t{kRounds} * kPerRound);
    EXPECT_EQ(ch.packetsDropped(), 0u);
    EXPECT_EQ(ch.packetsDuplicated(), 0u);
    EXPECT_EQ(ch.packetsCorrupted(), 0u);
    EXPECT_EQ(ch.packetsDelayed(), 0u);
}

TEST(LossyChannel, CorruptionFlipsOneToThreeBits)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        LossyChannelConfig config;
        config.corruptRate = 1.0;
        config.seed = seed;
        LossyChannel ch(config);
        // Every third datagram is cut to 1-8 bytes: the fewer the
        // bits, the likelier two flips land on the same one.
        std::uint32_t next = 0;
        for (int r = 0; r < kRounds; ++r) {
            std::vector<Datagram> sent;
            for (int i = 0; i < kPerRound; ++i, ++next) {
                Datagram d = makeDatagram(next);
                if (next % 3 == 0)
                    d.resize(1 + next % 8);
                sent.push_back(d);
                ch.send(d);
            }
            const std::vector<Datagram> got = ch.ready();
            ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].size(), sent[i].size());
                int bits = 0;
                for (std::size_t b = 0; b < got[i].size(); ++b)
                    bits += std::popcount(
                        static_cast<unsigned>(got[i][b] ^ sent[i][b]));
                EXPECT_GE(bits, 1) << "seed " << seed << " round " << r
                                   << " datagram " << i << " size "
                                   << sent[i].size();
                EXPECT_LE(bits, 3) << "seed " << seed << " round " << r
                                   << " datagram " << i;
            }
        }
        EXPECT_EQ(ch.packetsCorrupted(), ch.packetsSent());
        EXPECT_EQ(ch.packetsDropped(), 0u);
        EXPECT_EQ(ch.packetsDuplicated(), 0u);
        EXPECT_EQ(ch.packetsDelayed(), 0u);
    }
}

} // namespace
} // namespace pce::net

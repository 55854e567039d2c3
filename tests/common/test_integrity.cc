/**
 * @file
 * Known-answer tests for CRC-32 and Adler-32, a sweep of CRC-32 on
 * both update paths against its bit-at-a-time definition (lengths,
 * alignments, large buffers, incremental splits, a wire packet), plus
 * detection-property tests for the fast hash64 used by the integrity
 * seals, a sweep of hash64 against its per-word definition and of
 * copyHash64 against hash64 (whatever word loop this host dispatches
 * to; ctest runs the Hash64 and CopyHash64 tests a second time with
 * FOVE_SIMD=off, which selects the portable word loop).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/integrity.hh"
#include "common/rng.hh"
#include "net/wire_format.hh"

namespace pce {
namespace {

uint32_t
crcOf(const std::string &s)
{
    return crc32(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

uint32_t
adlerOf(const std::string &s)
{
    return adler32(reinterpret_cast<const uint8_t *>(s.data()),
                   s.size());
}

TEST(Crc32, StandardTestVector)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crcOf("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyInput)
{
    EXPECT_EQ(crcOf(""), 0x00000000u);
}

TEST(Crc32, KnownStrings)
{
    EXPECT_EQ(crcOf("a"), 0xE8B7BE43u);
    EXPECT_EQ(crcOf("abc"), 0x352441C2u);
    EXPECT_EQ(crcOf("The quick brown fox jumps over the lazy dog"),
              0x414FA339u);
}

/** Bit-at-a-time CRC-32 (reflected 0xEDB88320), the definition itself. */
uint32_t
bitwiseCrc(const uint8_t *data, std::size_t n)
{
    uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

std::vector<uint8_t>
randomBytes(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> v(n);
    for (uint8_t &b : v)
        b = static_cast<uint8_t>(rng.uniformInt(256));
    return v;
}

/** Both Crc32 paths; one this CPU cannot run falls back to the tables. */
constexpr CrcPath kCrcPaths[] = {CrcPath::Tables, CrcPath::Clmul};

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    // Every length through five 64-byte blocks at every start offset
    // within 16 bytes: the carry-less fold (64 bytes and up), its
    // 16-byte steps, the eight-byte table fold and the byte tail all
    // run, alone and together, from any address.
    const std::vector<uint8_t> buf = randomBytes(320 + 16, 11);
    for (const CrcPath path : kCrcPaths)
        for (std::size_t off = 0; off < 16; ++off)
            for (std::size_t n = 0; n <= 320; ++n)
                ASSERT_EQ(crc32(buf.data() + off, n, path),
                          bitwiseCrc(buf.data() + off, n))
                    << crcPathName(path) << " offset " << off
                    << " length " << n;

    // A 256x256 frame's BD stream (~77 KB) and a 1.5 MB buffer, each
    // from an odd address.
    for (const std::size_t n : {std::size_t{77 * 1024 + 5},
                                std::size_t{256 * 256 * 24 + 3}}) {
        const std::vector<uint8_t> big = randomBytes(n + 1, n);
        const uint32_t want = bitwiseCrc(big.data() + 1, n);
        for (const CrcPath path : kCrcPaths)
            EXPECT_EQ(crc32(big.data() + 1, n, path), want)
                << crcPathName(path) << " length " << n;
    }
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    // Two updates split at every offset of a 1 KB buffer, so cuts fall
    // inside, between and outside the folded blocks of either part.
    const std::vector<uint8_t> buf = randomBytes(1024, 12);
    const uint32_t want = bitwiseCrc(buf.data(), buf.size());
    for (const CrcPath path : kCrcPaths) {
        ASSERT_EQ(crc32(buf.data(), buf.size(), path), want);
        for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
            Crc32 inc(path);
            inc.update(buf.data(), cut);
            inc.update(buf.data() + cut, buf.size() - cut);
            ASSERT_EQ(inc.value(), want)
                << crcPathName(path) << " split at " << cut;
        }
    }
}

TEST(Crc32, ManyUnevenUpdatesMatchOneShot)
{
    // A 77 KB stream fed in pieces of 1..300 bytes: most pieces fold
    // some blocks and leave a table tail, and the next piece starts
    // mid-block.
    const std::vector<uint8_t> buf = randomBytes(77 * 1024, 16);
    const uint32_t want = bitwiseCrc(buf.data(), buf.size());
    for (const CrcPath path : kCrcPaths) {
        Rng rng(17);
        Crc32 inc(path);
        for (std::size_t pos = 0; pos < buf.size();) {
            const std::size_t len = std::min<std::size_t>(
                1 + rng.uniformInt(300), buf.size() - pos);
            inc.update(buf.data() + pos, len);
            pos += len;
        }
        EXPECT_EQ(inc.value(), want) << crcPathName(path);
    }
}

TEST(Crc32, PathsAreResolvedAgainstTheCpu)
{
    EXPECT_EQ(effectiveCrcPath(CrcPath::Tables), CrcPath::Tables);
    const CrcPath active = activeCrcPath();
    EXPECT_EQ(effectiveCrcPath(active), active);
    EXPECT_STREQ(crcPathName(CrcPath::Tables), "tables");
    EXPECT_STREQ(crcPathName(CrcPath::Clmul), "clmul");
}

TEST(Crc32, PacketCrcOnOddPayload)
{
    // A datagram whose length is not a multiple of eight: the packet
    // CRC (the header's trailing CRC field zeroed) must equal the
    // reference over that image, and verification must catch a flip.
    const std::vector<uint8_t> payload = randomBytes(37, 13);
    net::PacketHeader h;
    h.streamId = 3;
    h.frameId = 9;
    h.sequence = 1;
    h.tileCount = 5;
    std::vector<uint8_t> pkt =
        net::buildPacket(h, payload.data(), payload.size());
    ASSERT_EQ(pkt.size(), net::kPacketHeaderBytes + payload.size());

    std::vector<uint8_t> zeroed = pkt;
    std::fill_n(zeroed.begin() + net::kPacketHeaderBytes - 4, 4, 0);
    const uint32_t want = bitwiseCrc(zeroed.data(), zeroed.size());
    EXPECT_EQ(net::packetCrc(pkt.data(), pkt.size()), want);
    EXPECT_TRUE(net::verifyPacketCrc(pkt.data(), pkt.size()));

    pkt.back() ^= 0x10;
    EXPECT_FALSE(net::verifyPacketCrc(pkt.data(), pkt.size()));
}

TEST(Crc32, PngIendChunk)
{
    // The IEND chunk CRC is fixed in every PNG file: type bytes only.
    const uint8_t type[4] = {'I', 'E', 'N', 'D'};
    EXPECT_EQ(crc32(type, 4), 0xAE426082u);
}

TEST(Adler32, StandardTestVectors)
{
    // RFC 1950 examples / well-known values.
    EXPECT_EQ(adlerOf(""), 1u);
    EXPECT_EQ(adlerOf("a"), 0x00620062u);
    EXPECT_EQ(adlerOf("abc"), 0x024d0127u);
    EXPECT_EQ(adlerOf("Wikipedia"), 0x11E60398u);
}

TEST(Adler32, IncrementalMatchesOneShot)
{
    const std::string s(10000, 'x');
    Adler32 inc;
    inc.update(reinterpret_cast<const uint8_t *>(s.data()), 5000);
    inc.update(reinterpret_cast<const uint8_t *>(s.data()) + 5000, 5000);
    EXPECT_EQ(inc.value(), adlerOf(s));
}

TEST(Adler32, ModularReductionOnLongInput)
{
    // Long 0xff-runs force many modular reductions.
    const std::string s(100000, '\xff');
    const uint32_t v = adlerOf(s);
    const uint32_t a = v & 0xffff;
    const uint32_t b = v >> 16;
    EXPECT_LT(a, 65521u);
    EXPECT_LT(b, 65521u);
}

TEST(Hash64, DeterministicAndLengthSensitive)
{
    const std::string s = "hash64-determinism-vector";
    const uint64_t h1 = hash64(s.data(), s.size());
    const uint64_t h2 = hash64(s.data(), s.size());
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, hash64(s.data(), s.size() - 1));
    EXPECT_NE(hash64("", 0), 0u);
}

TEST(Hash64, EverySingleBitFlipDetected)
{
    // The seals rely on hash64 catching any single-bit upset; the
    // per-word mix is bijective so this must hold for every position,
    // including the ragged tail beyond the last full 8-byte word.
    std::vector<uint8_t> buf(37);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 29 + 3);
    const uint64_t golden = hash64(buf.data(), buf.size());
    for (std::size_t byte = 0; byte < buf.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            buf[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_NE(hash64(buf.data(), buf.size()), golden)
                << "undetected flip at byte " << byte << " bit " << bit;
            buf[byte] ^= static_cast<uint8_t>(1u << bit);
        }
    }
    EXPECT_EQ(hash64(buf.data(), buf.size()), golden);
}

TEST(Hash64, PositionSensitive)
{
    // Swapping two equal-content words must change the hash: the
    // position salt makes identical words at different offsets
    // contribute differently.
    std::vector<uint64_t> words = {7, 0, 0, 9};
    const uint64_t before = hash64(words.data(), words.size() * 8);
    std::swap(words[0], words[3]);
    EXPECT_NE(hash64(words.data(), words.size() * 8), before);
}

/**
 * hash64 by its definition, one word at a time: the seed mix of the
 * length, then the XOR of every little-endian 8-byte word (the last one
 * zero-padded) plus its position salt, each through the SplitMix64
 * finalizer.
 */
uint64_t
referenceHash64(const uint8_t *data, std::size_t n)
{
    const auto mix = [](uint64_t x) {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    };
    const uint64_t salt = 0x9e3779b97f4a7c15ull;
    uint64_t acc = mix(salt ^ n);
    for (std::size_t k = 0; 8 * k < n; ++k) {
        uint64_t word = 0;
        for (std::size_t b = 0; b < 8 && 8 * k + b < n; ++b)
            word |= static_cast<uint64_t>(data[8 * k + b]) << (8 * b);
        acc ^= mix(word + salt * (k + 1));
    }
    return acc;
}

TEST(Hash64, MatchesPerWordReferenceAtEveryLengthAndOffset)
{
    // Every length through two 64-byte blocks plus a tail, from every
    // start alignment: the 8-word loop, the word loop and the byte tail
    // all run, alone and together.
    const std::vector<uint8_t> buf = randomBytes(130 + 8, 14);
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t n = 0; n <= 130; ++n)
            ASSERT_EQ(hash64(buf.data() + off, n),
                      referenceHash64(buf.data() + off, n))
                << "offset " << off << " length " << n;

    // One 256x256 linear-RGB frame's worth of doubles (1.5 MB), the
    // size the service's input seals hash.
    const std::vector<uint8_t> frame = randomBytes(256 * 256 * 3 * 8, 15);
    EXPECT_EQ(hash64(frame.data(), frame.size()),
              referenceHash64(frame.data(), frame.size()));
}

TEST(Hash64, GoldenValues)
{
    // Pinned values: a different word loop must not change one bit of
    // what the seals compare (queue slots, gaze maps, frames).
    const std::vector<uint8_t> a = randomBytes(64, 21);
    const std::vector<uint8_t> b = randomBytes(1000, 22);
    const std::vector<uint8_t> c = randomBytes(1572869, 23);
    EXPECT_EQ(hash64(a.data(), a.size()), 0x4f1488a67ddcca3aull);
    EXPECT_EQ(hash64(b.data(), b.size()), 0xf417f65f72fb6403ull);
    EXPECT_EQ(hash64(c.data(), c.size()), 0x5f90bd7ccee35ff5ull);
}

TEST(CopyHash64, CopiesAndEqualsHash64AtEveryLengthAndOffset)
{
    // Every length 0-200 B (three 64-byte blocks plus every tail) from
    // every source and destination alignment: the copy is exact, no
    // byte outside [dst, dst + n) changes, and the value is hash64 of
    // the copy.
    const std::vector<uint8_t> src = randomBytes(200 + 8, 16);
    constexpr uint8_t kGuard = 0xa5;
    std::vector<uint8_t> dst(200 + 16);
    for (std::size_t so = 0; so < 8; ++so)
        for (std::size_t doff = 0; doff < 8; ++doff)
            for (std::size_t n = 0; n <= 200; ++n) {
                std::fill(dst.begin(), dst.end(), kGuard);
                const uint64_t h =
                    copyHash64(src.data() + so, dst.data() + doff, n);
                ASSERT_TRUE(std::equal(src.begin() + so,
                                       src.begin() + so + n,
                                       dst.begin() + doff))
                    << "offsets " << so << "/" << doff << " length " << n;
                ASSERT_TRUE(std::all_of(dst.begin(), dst.begin() + doff,
                                        [](uint8_t b) {
                                            return b == kGuard;
                                        }) &&
                            std::all_of(dst.begin() + doff + n, dst.end(),
                                        [](uint8_t b) {
                                            return b == kGuard;
                                        }))
                    << "wrote outside the copy: offsets " << so << "/"
                    << doff << " length " << n;
                ASSERT_EQ(h, hash64(dst.data() + doff, n))
                    << "offsets " << so << "/" << doff << " length " << n;
                ASSERT_EQ(h, referenceHash64(src.data() + so, n));
            }
}

TEST(CopyHash64, WholeFrameMatchesGoldenHash)
{
    // One 256x256 linear-RGB frame (1.5 MB), the service's intake copy,
    // and the pinned 1572869-byte golden vector (a ragged tail).
    const std::vector<uint8_t> frame = randomBytes(256 * 256 * 3 * 8, 15);
    std::vector<uint8_t> copy(frame.size());
    EXPECT_EQ(copyHash64(frame.data(), copy.data(), frame.size()),
              hash64(frame.data(), frame.size()));
    EXPECT_EQ(copy, frame);

    const std::vector<uint8_t> c = randomBytes(1572869, 23);
    std::vector<uint8_t> c_copy(c.size());
    EXPECT_EQ(copyHash64(c.data(), c_copy.data(), c.size()),
              0x5f90bd7ccee35ff5ull);
    EXPECT_EQ(c_copy, c);
}

TEST(Hash64, DoubleArraysHashByRepresentation)
{
    // The gaze/ecc seals hash raw double storage; +0.0 and -0.0 differ
    // in representation and must be distinguished.
    std::vector<double> a = {1.5, 0.0, -3.25};
    std::vector<double> b = {1.5, -0.0, -3.25};
    EXPECT_NE(hash64(a.data(), a.size() * sizeof(double)),
              hash64(b.data(), b.size() * sizeof(double)));
}

} // namespace
} // namespace pce

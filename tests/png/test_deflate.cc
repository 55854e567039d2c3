/**
 * @file
 * Round-trip and known-answer tests for DEFLATE / zlib.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "png/deflate.hh"
#include "png/inflate.hh"

namespace pce {
namespace {

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

void
expectDeflateRoundTrip(const std::vector<uint8_t> &data)
{
    const auto compressed = deflateCompress(data);
    const auto back = inflateDecompress(compressed);
    EXPECT_EQ(back, data);
}

TEST(LengthCode, BoundaryValues)
{
    EXPECT_EQ(lengthCodeFor(3).code, 257);
    EXPECT_EQ(lengthCodeFor(3).extraBits, 0);
    EXPECT_EQ(lengthCodeFor(10).code, 264);
    EXPECT_EQ(lengthCodeFor(11).code, 265);
    EXPECT_EQ(lengthCodeFor(11).extraBits, 1);
    EXPECT_EQ(lengthCodeFor(258).code, 285);
    EXPECT_EQ(lengthCodeFor(258).extraBits, 0);
    EXPECT_EQ(lengthCodeFor(257).code, 284);
    EXPECT_THROW(lengthCodeFor(2), std::invalid_argument);
    EXPECT_THROW(lengthCodeFor(259), std::invalid_argument);
}

TEST(DistanceCode, BoundaryValues)
{
    EXPECT_EQ(distanceCodeFor(1).code, 0);
    EXPECT_EQ(distanceCodeFor(4).code, 3);
    EXPECT_EQ(distanceCodeFor(5).code, 4);
    EXPECT_EQ(distanceCodeFor(5).extraBits, 1);
    EXPECT_EQ(distanceCodeFor(32768).code, 29);
    EXPECT_THROW(distanceCodeFor(0), std::invalid_argument);
    EXPECT_THROW(distanceCodeFor(32769), std::invalid_argument);
}

TEST(Deflate, EmptyInput)
{
    expectDeflateRoundTrip({});
}

TEST(Deflate, SingleByte)
{
    expectDeflateRoundTrip({42});
}

TEST(Deflate, TextRoundTrip)
{
    expectDeflateRoundTrip(bytesOf(
        "It is a truth universally acknowledged, that a single man in "
        "possession of a good fortune, must be in want of a wife. It "
        "is a truth universally acknowledged..."));
}

TEST(Deflate, HighlyCompressibleShrinks)
{
    const std::vector<uint8_t> data(100000, 'z');
    const auto compressed = deflateCompress(data);
    EXPECT_LT(compressed.size(), data.size() / 100);
    EXPECT_EQ(inflateDecompress(compressed), data);
}

TEST(Deflate, RandomDataRoundTrips)
{
    Rng rng(1);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<uint8_t> data(1 + rng.uniformInt(30000));
        for (auto &b : data)
            b = static_cast<uint8_t>(rng.uniformInt(256));
        expectDeflateRoundTrip(data);
    }
}

TEST(Deflate, StructuredDataRoundTrips)
{
    std::vector<uint8_t> data;
    for (int64_t i = 0; i < 60000; ++i)
        data.push_back(static_cast<uint8_t>((i * i / 64) & 0xff));
    expectDeflateRoundTrip(data);
}

TEST(Deflate, MultiBlockStreams)
{
    // Force several DEFLATE blocks via a tiny per-block token budget.
    DeflateParams params;
    params.maxTokensPerBlock = 500;
    Rng rng(2);
    std::vector<uint8_t> data(40000);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.uniformInt(64));
    const auto compressed = deflateCompress(data, params);
    EXPECT_EQ(inflateDecompress(compressed), data);
}

TEST(Inflate, StoredBlockHandWritten)
{
    // Hand-assembled stored block: BFINAL=1 BTYPE=00, LEN=3, payload.
    std::vector<uint8_t> stream;
    stream.push_back(0x01);  // BFINAL=1, BTYPE=00, then padding
    stream.push_back(0x03);  // LEN low
    stream.push_back(0x00);  // LEN high
    stream.push_back(0xfc);  // NLEN low
    stream.push_back(0xff);  // NLEN high
    stream.push_back('h');
    stream.push_back('e');
    stream.push_back('y');
    EXPECT_EQ(inflateDecompress(stream), bytesOf("hey"));
}

TEST(Inflate, FixedHuffmanBlockHandWritten)
{
    // BFINAL=1 BTYPE=01 with literal 'a' (0x61 -> code 0x91, 8 bits)
    // and end-of-block (7 zero bits). Assembled LSB-first.
    // 'a' = 97; fixed code for 97 is 0b10010001 (0x30 + 97 = 0x91).
    std::vector<uint8_t> stream;
    // bits: 1 (final), 10 -> btype=01 stored LSB-first as 1,1,0...
    // Build with a tiny local bit packer to stay readable.
    std::vector<int> bits;
    bits.push_back(1);         // BFINAL
    bits.push_back(1);         // BTYPE low bit
    bits.push_back(0);         // BTYPE high bit
    for (int i = 7; i >= 0; --i)  // literal code MSB-first
        bits.push_back((0x91 >> i) & 1);
    for (int i = 0; i < 7; ++i)   // EOB code 0000000
        bits.push_back(0);
    std::size_t nbytes = (bits.size() + 7) / 8;
    stream.assign(nbytes, 0);
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            stream[i / 8] |= static_cast<uint8_t>(1 << (i % 8));
    EXPECT_EQ(inflateDecompress(stream), bytesOf("a"));
}

TEST(Inflate, RejectsReservedBlockType)
{
    // BFINAL=1, BTYPE=11 (reserved).
    const std::vector<uint8_t> stream{0x07};
    EXPECT_THROW(inflateDecompress(stream), std::runtime_error);
}

TEST(Inflate, RejectsCorruptStoredLength)
{
    std::vector<uint8_t> stream{0x01, 0x03, 0x00, 0x00, 0x00, 'h',
                                'e', 'y'};
    EXPECT_THROW(inflateDecompress(stream), std::runtime_error);
}

TEST(Zlib, RoundTripWithChecksum)
{
    const auto data = bytesOf("zlib container round trip payload");
    const auto compressed = zlibCompress(data);
    EXPECT_EQ(zlibDecompress(compressed), data);
}

TEST(Zlib, HeaderIsStandardsCompliant)
{
    const auto compressed = zlibCompress(bytesOf("x"));
    ASSERT_GE(compressed.size(), 6u);
    EXPECT_EQ(compressed[0] & 0x0f, 8);  // deflate method
    EXPECT_EQ((compressed[0] * 256 + compressed[1]) % 31, 0);
}

TEST(Zlib, DetectsCorruptedPayload)
{
    auto compressed = zlibCompress(bytesOf("corruption target data"));
    compressed[compressed.size() / 2] ^= 0x55;
    EXPECT_THROW(zlibDecompress(compressed), std::runtime_error);
}

TEST(Zlib, DetectsTruncation)
{
    auto compressed = zlibCompress(bytesOf("truncation target"));
    compressed.resize(4);
    EXPECT_THROW(zlibDecompress(compressed), std::runtime_error);
}

TEST(Deflate, CompressionBeatsNaiveOnText)
{
    std::string text;
    for (int i = 0; i < 500; ++i)
        text += "the quick brown fox jumps over the lazy dog. ";
    const auto data = bytesOf(text);
    const auto compressed = deflateCompress(data);
    EXPECT_LT(compressed.size(), data.size() / 10);
}

} // namespace
} // namespace pce

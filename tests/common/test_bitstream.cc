/**
 * @file
 * Unit and property tests for the MSB/LSB bit writers and readers.
 */

#include <gtest/gtest.h>

#include "common/bitstream.hh"
#include "common/rng.hh"

namespace pce {
namespace {

TEST(BitWriter, SingleByteMsbFirst)
{
    BitWriter bw;
    bw.putBits(0b1, 1);
    bw.putBits(0b01, 2);
    bw.putBits(0b10110, 5);
    ASSERT_EQ(bw.bitCount(), 8u);
    ASSERT_EQ(bw.bytes().size(), 1u);
    EXPECT_EQ(bw.bytes()[0], 0b10110110);
}

TEST(BitWriter, WidthZeroWritesNothing)
{
    BitWriter bw;
    bw.putBits(0xff, 0);
    EXPECT_EQ(bw.bitCount(), 0u);
    EXPECT_TRUE(bw.bytes().empty());
}

TEST(BitWriter, AlignToByte)
{
    BitWriter bw;
    bw.putBits(0b101, 3);
    bw.alignToByte();
    EXPECT_EQ(bw.bitCount(), 8u);
    EXPECT_EQ(bw.bytes()[0], 0b10100000);
    bw.alignToByte();  // idempotent at boundary
    EXPECT_EQ(bw.bitCount(), 8u);
}

TEST(BitWriter, ValueBitsAboveWidthIgnored)
{
    BitWriter bw;
    bw.putBits(0xfffffff5, 4);  // only low nibble (0101) kept
    bw.alignToByte();
    EXPECT_EQ(bw.bytes()[0], 0b01010000);
}

TEST(BitRoundTrip, MsbRandomFields)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::pair<uint32_t, unsigned>> fields;
        BitWriter bw;
        for (int i = 0; i < 200; ++i) {
            const unsigned width =
                static_cast<unsigned>(rng.uniformInt(33));
            const uint32_t value = static_cast<uint32_t>(
                rng.next() &
                (width == 32 ? 0xffffffffu : ((1u << width) - 1)));
            fields.emplace_back(value, width);
            bw.putBits(value, width);
        }
        const std::size_t bits = bw.bitCount();
        BitReader br(bw.bytes());
        for (const auto &[value, width] : fields)
            EXPECT_EQ(br.getBits(width), value);
        EXPECT_EQ(br.bitPosition(), bits);
        EXPECT_FALSE(br.exhausted());
    }
}

TEST(BitReader, ExhaustionDetected)
{
    BitWriter bw;
    bw.putBits(0xab, 8);
    BitReader br(bw.bytes());
    EXPECT_EQ(br.getBits(8), 0xabu);
    EXPECT_FALSE(br.exhausted());
    br.getBits(1);
    EXPECT_TRUE(br.exhausted());
}

TEST(BitReader, AlignSkipsPartialByte)
{
    BitWriter bw;
    bw.putBits(0b111, 3);
    bw.putBits(0xcd, 8);
    bw.alignToByte();
    BitReader br(bw.bytes());
    br.getBits(3);
    br.alignToByte();
    EXPECT_EQ(br.bitPosition(), 8u);
}

TEST(BitReader, SeekRepositionsMidStream)
{
    BitWriter bw;
    bw.putBits(0xdead, 16);
    bw.putBits(0x3, 2);
    bw.putBits(0x1cb, 9);
    bw.alignToByte();
    BitReader br(bw.bytes());
    // Seek to an unaligned position and read across byte seams.
    br.seek(18);
    EXPECT_EQ(br.bitPosition(), 18u);
    EXPECT_EQ(br.getBits(9), 0x1cbu);
    // Seeking backwards re-reads the same field.
    br.seek(16);
    EXPECT_EQ(br.getBits(2), 0x3u);
    EXPECT_FALSE(br.exhausted());
    // Past-the-end seeks clamp; the next read exhausts.
    br.seek(1000);
    EXPECT_EQ(br.bitPosition(), bw.bytes().size() * 8);
    br.getBits(1);
    EXPECT_TRUE(br.exhausted());
}

TEST(BitReader, SeekMatchesSequentialReads)
{
    // Reading field k after seek(offset_k) must equal the k-th value
    // of a straight sequential read — the contract the parallel BD
    // decoder's per-chunk readers rely on.
    Rng rng(21);
    BitWriter bw;
    std::vector<std::pair<uint32_t, unsigned>> fields;
    std::vector<std::size_t> offsets;
    for (int i = 0; i < 300; ++i) {
        const unsigned width =
            1 + static_cast<unsigned>(rng.uniformInt(24));
        const uint32_t value =
            static_cast<uint32_t>(rng.next() & ((1u << width) - 1));
        offsets.push_back(bw.bitCount());
        fields.emplace_back(value, width);
        bw.putBits(value, width);
    }
    BitReader br(bw.bytes());
    for (std::size_t k = 0; k < fields.size(); k += 7) {
        br.seek(offsets[k]);
        EXPECT_EQ(br.getBits(fields[k].second), fields[k].first);
    }
}

TEST(BitReader, PartialReadPastEndZeroFillsLowBits)
{
    // Reading more bits than remain yields the available bits shifted
    // up with zeros below (the pre-chunking semantics, preserved).
    BitWriter bw;
    bw.putBits(0b101, 3);
    bw.alignToByte();  // buffer: 1010'0000
    BitReader br(bw.bytes());
    br.seek(5);  // 3 zero bits remain
    EXPECT_EQ(br.getBits(8), 0b000'00000u);
    EXPECT_TRUE(br.exhausted());

    BitWriter bw2;
    bw2.putBits(0xff, 8);
    BitReader br2(bw2.bytes());
    br2.seek(4);
    EXPECT_EQ(br2.getBits(8), 0b1111'0000u);
    EXPECT_TRUE(br2.exhausted());
    EXPECT_EQ(br2.bitPosition(), 8u);
    // Reads at the hard end return zero without advancing.
    EXPECT_EQ(br2.getBits(32), 0u);
    EXPECT_EQ(br2.bitPosition(), 8u);
}

TEST(LsbBitWriter, SingleByteLsbFirst)
{
    LsbBitWriter bw;
    bw.putBits(0b1, 1);    // bit 0
    bw.putBits(0b01, 2);   // bits 1-2
    bw.putBits(0b10110, 5);  // bits 3-7
    ASSERT_EQ(bw.bytes().size(), 1u);
    // Bits assemble from the LSB up: 1, then 1,0, then 0,1,1,0,1.
    EXPECT_EQ(bw.bytes()[0], 0b10110011);
}

TEST(LsbRoundTrip, RandomFields)
{
    Rng rng(13);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::pair<uint32_t, unsigned>> fields;
        LsbBitWriter bw;
        for (int i = 0; i < 200; ++i) {
            const unsigned width =
                1 + static_cast<unsigned>(rng.uniformInt(24));
            const uint32_t value =
                static_cast<uint32_t>(rng.next() & ((1u << width) - 1));
            fields.emplace_back(value, width);
            bw.putBits(value, width);
        }
        LsbBitReader br(bw.bytes());
        for (const auto &[value, width] : fields)
            EXPECT_EQ(br.getBits(width), value);
        EXPECT_FALSE(br.exhausted());
    }
}

TEST(LsbBitWriter, AlignedByteHelpers)
{
    LsbBitWriter bw;
    bw.putBits(0b101, 3);
    bw.alignToByte();
    bw.putAlignedByte(0x5a);
    LsbBitReader br(bw.bytes());
    EXPECT_EQ(br.getBits(3), 0b101u);
    EXPECT_EQ(br.getAlignedByte(), 0x5a);
}

TEST(BitWriter, TakeResetsState)
{
    BitWriter bw;
    bw.putBits(0xff, 8);
    auto bytes = bw.take();
    EXPECT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bw.bitCount(), 0u);
}

TEST(BitWriter, ByteCountRoundsUp)
{
    BitWriter bw;
    bw.putBits(0, 9);
    EXPECT_EQ(bw.byteCount(), 2u);
    EXPECT_EQ(bw.bitCount(), 9u);
}

TEST(BitWriter, ReserveDoesNotChangeContent)
{
    BitWriter bw;
    bw.putBits(0xabc, 12);
    const std::size_t bits = bw.bitCount();
    bw.reserve(100000);
    EXPECT_EQ(bw.bitCount(), bits);
    EXPECT_GE(bw.bytes().capacity(), (bits + 100000 + 7) / 8);
    bw.putBits(0x5, 3);
    BitReader br(bw.bytes());
    EXPECT_EQ(br.getBits(12), 0xabcu);
    EXPECT_EQ(br.getBits(3), 0x5u);
}

} // namespace
} // namespace pce

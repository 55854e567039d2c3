/**
 * @file
 * Hardened-decode corpus for the variable bit-length BD extension,
 * mirroring tests/bd/test_bd_decode_hardening.cc: deterministic
 * mutations (bit flips, truncations, extensions) of known-good BDV
 * streams plus hand-crafted adversarial headers. Every mutant must
 * either decode cleanly or throw std::runtime_error — never crash,
 * hang, zero-fill a truncation, or scale work with a lying header.
 * scripts/check.sh runs this suite under asan/ubsan on every tier-1
 * sanitizer pass.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "bd/bd_variable.hh"
#include "common/bitstream.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace pce {
namespace {

constexpr uint32_t kBdvMagic = 0x424456;  // "BDV"

ImageU8
randomImage(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h);
    for (auto &b : img.data())
        b = static_cast<uint8_t>(rng.uniformInt(256));
    return img;
}

/** A frame with row structure, so mode-1 (per-row) records appear. */
ImageU8
rowStructuredImage(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h);
    for (int y = 0; y < h; ++y) {
        const uint8_t row_base =
            static_cast<uint8_t>(rng.uniformInt(200));
        for (int x = 0; x < w; ++x)
            for (int c = 0; c < 3; ++c)
                img.setChannel(x, y, c,
                               static_cast<uint8_t>(
                                   row_base + rng.uniformInt(4)));
    }
    return img;
}

bool
decodesCleanly(const std::vector<uint8_t> &mutant)
{
    ImageU8 out;
    try {
        BdVariableCodec::decodeInto(mutant, out);
    } catch (const std::runtime_error &) {
        return false;
    }
    EXPECT_GT(out.width(), 0);
    EXPECT_GT(out.height(), 0);
    EXPECT_EQ(out.data().size(),
              static_cast<std::size_t>(out.width()) * out.height() * 3);
    return true;
}

/** Header layout: [24-bit magic][16-bit w][16-bit h][8-bit tile]. */
std::vector<uint8_t>
craftHeader(uint32_t w, uint32_t h, uint32_t tile)
{
    BitWriter bw;
    bw.putBits(kBdvMagic, 24);
    bw.putBits(w, 16);
    bw.putBits(h, 16);
    bw.putBits(tile, 8);
    bw.alignToByte();
    return bw.take();
}

TEST(BdVariableHardening, DecodeIntoMatchesLegacyRoundTrip)
{
    // Both content classes (noise: mode 0; row structure: mode 1) and
    // ragged edge tiles round-trip through the hardened path, with and
    // without scratch reuse.
    const BdVariableCodec codec(4);
    BdDecodeScratch scratch;
    for (const auto &img :
         {randomImage(33, 17, 11), rowStructuredImage(40, 24, 12),
          rowStructuredImage(7, 5, 13)}) {
        const auto stream = codec.encode(img);
        EXPECT_EQ(BdVariableCodec::decode(stream), img);
        ImageU8 out;
        BdVariableCodec::decodeInto(stream, out, &scratch);
        EXPECT_EQ(out, img);
    }
}

TEST(BdVariableHardening, EveryHeaderBitFlipIsGraceful)
{
    const BdVariableCodec codec(4);
    const auto valid = codec.encode(rowStructuredImage(33, 17, 1));
    const ImageU8 reference = BdVariableCodec::decode(valid);
    // The full header is the first 8 bytes (24+16+16+8 bits).
    for (std::size_t byte = 0; byte < 8; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = valid;
            mutant[byte] ^= static_cast<uint8_t>(1u << bit);
            if (decodesCleanly(mutant)) {
                EXPECT_EQ(BdVariableCodec::decode(mutant), reference)
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

TEST(BdVariableHardening, EveryPayloadByteBitFlipIsGraceful)
{
    // Small frames so the sweep covers every payload byte: flips hit
    // mode bits (re-branching the whole walk), widths, bases, deltas,
    // and the final padding. Run both content classes so both record
    // modes sit under the flips.
    const BdVariableCodec codec(4);
    for (const auto &img :
         {randomImage(9, 6, 2), rowStructuredImage(9, 6, 3)}) {
        const auto valid = codec.encode(img);
        for (std::size_t byte = 8; byte < valid.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                auto mutant = valid;
                mutant[byte] ^= static_cast<uint8_t>(1u << bit);
                ImageU8 out;
                try {
                    BdVariableCodec::decodeInto(mutant, out);
                    // A surviving mutant altered only payload bits:
                    // geometry must be untouched.
                    EXPECT_EQ(out.width(), 9);
                    EXPECT_EQ(out.height(), 6);
                } catch (const std::runtime_error &) {
                    // Rejected cleanly.
                }
            }
        }
    }
}

TEST(BdVariableHardening, EveryTruncationLengthThrows)
{
    const BdVariableCodec codec(5);
    const auto valid = codec.encode(rowStructuredImage(21, 13, 4));
    ImageU8 out;
    for (std::size_t len = 0; len < valid.size(); ++len) {
        const std::vector<uint8_t> truncated(valid.begin(),
                                             valid.begin() + len);
        EXPECT_THROW(BdVariableCodec::decodeInto(truncated, out),
                     std::runtime_error)
            << "length " << len;
    }
}

TEST(BdVariableHardening, TrailingGarbageBytesThrow)
{
    const BdVariableCodec codec(4);
    const auto valid = codec.encode(randomImage(16, 16, 5));
    ImageU8 out;
    for (const std::size_t extra : {1u, 2u, 7u, 64u}) {
        for (const uint8_t fill : {0x00, 0xff, 0x5a}) {
            auto mutant = valid;
            mutant.insert(mutant.end(), extra, fill);
            EXPECT_THROW(BdVariableCodec::decodeInto(mutant, out),
                         std::runtime_error)
                << extra << " bytes of 0x" << std::hex
                << static_cast<int>(fill);
        }
    }
}

TEST(BdVariableHardening, NonzeroPaddingBitsThrow)
{
    // A 1x1 tile-4 frame costs header + 3 x (1+4+8) = 103 bits (mode 0
    // always wins a single-pixel tile), so the final byte carries
    // padding written as zeros. Flipping only padding changes no
    // decoded pixel — the decoder must still reject the non-canonical
    // stream.
    const BdVariableCodec codec(4);
    ImageU8 px(1, 1);
    px.setChannel(0, 0, 0, 7);
    const auto valid = codec.encode(px);
    const auto stats = codec.analyze(px);
    ASSERT_NE(stats.totalBits % 8, 0u) << "need a padded stream";
    auto mutant = valid;
    mutant.back() |= 1u;  // lowest bit is always padding here
    ImageU8 out;
    EXPECT_THROW(BdVariableCodec::decodeInto(mutant, out),
                 std::runtime_error);
}

TEST(BdVariableHardening, ZeroDimensionHeadersThrow)
{
    ImageU8 out;
    const std::tuple<uint32_t, uint32_t, uint32_t> cases[] = {
        {0, 16, 4}, {16, 0, 4}, {16, 16, 0}, {0, 0, 0}};
    for (const auto &[w, h, tile] : cases) {
        auto stream = craftHeader(w, h, tile);
        stream.insert(stream.end(), 64, 0);  // plausible payload bytes
        EXPECT_THROW(BdVariableCodec::decodeInto(stream, out),
                     std::runtime_error)
            << w << "x" << h << " tile " << tile;
    }
}

TEST(BdVariableHardening, OverflowingDimensionsRejectedBeforeAllocation)
{
    // 0xFFFF x 0xFFFF tile-1 claims 2^32 tiles: the 64-bit floor check
    // must reject the short stream without walking the claimed tile
    // count or allocating the claimed frame; the time bound is the
    // observable.
    ImageU8 out;
    const auto t0 = std::chrono::steady_clock::now();
    const std::tuple<uint32_t, uint32_t, uint32_t> cases[] = {
        {0xffff, 0xffff, 1},
        {0xffff, 0xffff, 255},
        {0xffff, 1, 1},
        {1, 0xffff, 1}};
    for (const auto &[w, h, tile] : cases) {
        auto stream = craftHeader(w, h, tile);
        stream.insert(stream.end(), 4096, 0xa5);
        EXPECT_THROW(BdVariableCodec::decodeInto(stream, out),
                     std::runtime_error)
            << w << "x" << h << " tile " << tile;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(seconds, 1.0);
}

TEST(BdVariableHardening, WellFormedDecompressionBombRejected)
{
    // Flat mode-0 tile-channels (1 mode + 4 width-0 + 8 base bits, no
    // deltas) honestly encode a 0xFFFF x 0xFFFF frame in ~320 KB; only
    // the pixel cap stands between that stream and a ~13 GB
    // allocation.
    BitWriter bw;
    bw.putBits(kBdvMagic, 24);
    bw.putBits(0xffff, 16);
    bw.putBits(0xffff, 16);
    bw.putBits(255, 8);
    const std::size_t tiles = 257 * 257;  // ceil(65535/255) = 257
    for (std::size_t t = 0; t < tiles * 3; ++t) {
        bw.putBits(0, 1);   // mode 0
        bw.putBits(0, 4);   // flat: width 0, no deltas follow
        bw.putBits(77, 8);  // base
    }
    bw.alignToByte();
    const std::vector<uint8_t> bomb = bw.take();
    ImageU8 out;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(BdVariableCodec::decodeInto(bomb, out),
                 std::runtime_error);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(seconds, 1.0);
}

TEST(BdVariableHardening, PixelCapIsCallerTunable)
{
    const BdVariableCodec codec(4);
    const ImageU8 img = randomImage(32, 16, 9);  // 512 pixels
    const auto stream = codec.encode(img);
    ImageU8 out;
    EXPECT_THROW(BdVariableCodec::decodeInto(stream, out, nullptr,
                                             nullptr, 1, 511),
                 std::runtime_error);
    BdVariableCodec::decodeInto(stream, out, nullptr, nullptr, 1, 512);
    EXPECT_EQ(out, img);
}

TEST(BdVariableHardening, OversizedWidthFieldsThrowInBothModes)
{
    // Mode 0 with a claimed 15-bit delta width.
    {
        BitWriter bw;
        bw.putBits(kBdvMagic, 24);
        bw.putBits(4, 16);
        bw.putBits(4, 16);
        bw.putBits(4, 8);
        bw.putBits(0, 1);    // mode 0
        bw.putBits(15, 4);   // delta width 15: invalid
        bw.putBits(0, 8);    // base
        for (int i = 0; i < 16; ++i)
            bw.putBits(0x7fff, 15);  // the claimed deltas
        for (int c = 0; c < 2; ++c) {
            bw.putBits(0, 1);
            bw.putBits(0, 4);
            bw.putBits(0, 8);
        }
        bw.alignToByte();
        ImageU8 out;
        EXPECT_THROW(BdVariableCodec::decodeInto(bw.take(), out),
                     std::runtime_error);
    }
    // Mode 1 with a claimed 12-bit row width.
    {
        BitWriter bw;
        bw.putBits(kBdvMagic, 24);
        bw.putBits(4, 16);
        bw.putBits(4, 16);
        bw.putBits(4, 8);
        bw.putBits(1, 1);    // mode 1
        bw.putBits(0, 8);    // base
        bw.putBits(12, 4);   // row 0 width 12: invalid
        for (int i = 0; i < 4; ++i)
            bw.putBits(0xfff, 12);
        for (int r = 1; r < 4; ++r)
            bw.putBits(0, 4);  // remaining rows flat
        for (int c = 0; c < 2; ++c) {
            bw.putBits(0, 1);
            bw.putBits(0, 4);
            bw.putBits(0, 8);
        }
        bw.alignToByte();
        ImageU8 out;
        EXPECT_THROW(BdVariableCodec::decodeInto(bw.take(), out),
                     std::runtime_error);
    }
}

TEST(BdVariableHardening, MidTileTruncationThrowsNotZeroFills)
{
    // Cut a valid stream inside the last tile's delta block: the old
    // decoder zero-filled those deltas (BitReader semantics) and
    // returned a frame; the hardened walk must throw instead.
    const BdVariableCodec codec(4);
    const auto valid = codec.encode(rowStructuredImage(32, 32, 6));
    ImageU8 out;
    auto cut = valid;
    cut.resize(valid.size() - 1);
    EXPECT_THROW(BdVariableCodec::decodeInto(cut, out),
                 std::runtime_error);
}

TEST(BdVariableHardening, RandomStreamsAreGraceful)
{
    Rng rng(7);
    ImageU8 out;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<uint8_t> bytes(rng.uniformInt(512));
        for (auto &b : bytes)
            b = static_cast<uint8_t>(rng.uniformInt(256));
        // Half the trials get a valid magic so the header parse
        // proceeds into dimension/payload validation.
        if (trial % 2 == 0 && bytes.size() >= 3) {
            bytes[0] = 0x42;
            bytes[1] = 0x44;
            bytes[2] = 0x56;
        }
        (void)decodesCleanly(bytes);
    }
}

TEST(BdVariableHardening, ParallelDecodeIsByteIdenticalAndAgreesOnMutants)
{
    // The parallel path runs only over validated offsets, so it must
    // accept/reject exactly like the serial path and produce identical
    // pixels when it accepts — across participant counts and scratch
    // reuse (pointer-pinned). 48x48 (144 tiles) stays inline; 192x192
    // (2304 tiles, at least 2 * kBdMinTilesPerParticipant) must reach
    // the pool.
    const BdVariableCodec codec(4);
    for (const int side : {48, 192}) {
        const bool dispatches = side == 192;
        const auto valid = codec.encode(rowStructuredImage(side, side, 8));
        ThreadPool pool(3);
        BdDecodeScratch scratch;
        ImageU8 serial_out;
        ImageU8 parallel_out;
        BdVariableCodec::decodeInto(valid, serial_out);
        for (const int participants : {2, 4}) {
            const std::uint64_t before = pool.dispatchCalls();
            BdVariableCodec::decodeInto(valid, parallel_out, &scratch,
                                        &pool, participants);
            EXPECT_EQ(parallel_out, serial_out)
                << side << " " << participants << " participants";
            EXPECT_EQ(pool.dispatchCalls() > before, dispatches)
                << side << " " << participants << " participants";
        }
        const uint8_t *pinned = parallel_out.data().data();
        BdVariableCodec::decodeInto(valid, parallel_out, &scratch, &pool,
                                    4);
        EXPECT_EQ(parallel_out.data().data(), pinned)
            << side << ": steady-state decode reallocated";

        Rng rng(9);
        for (int trial = 0; trial < 150; ++trial) {
            auto mutant = valid;
            const std::size_t pos = rng.uniformInt(mutant.size());
            mutant[pos] ^= static_cast<uint8_t>(1u << rng.uniformInt(8));
            bool serial_ok = true;
            try {
                BdVariableCodec::decodeInto(mutant, serial_out);
            } catch (const std::runtime_error &) {
                serial_ok = false;
            }
            bool parallel_ok = true;
            try {
                BdVariableCodec::decodeInto(mutant, parallel_out,
                                            &scratch, &pool, 4);
            } catch (const std::runtime_error &) {
                parallel_ok = false;
            }
            EXPECT_EQ(serial_ok, parallel_ok)
                << side << " trial " << trial;
            if (serial_ok && parallel_ok)
                EXPECT_EQ(serial_out, parallel_out)
                    << side << " trial " << trial;
        }
    }
}

} // namespace
} // namespace pce

/**
 * @file
 * Hardened-decode corpus: deterministic mutations (bit flips,
 * truncations, extensions) of known-good BD streams, plus hand-crafted
 * adversarial headers. Every mutant must either decode cleanly or
 * throw std::runtime_error — never crash, hang, or scale work with a
 * lying header. Every decode runs on both BD bit paths, which must
 * agree. scripts/check.sh runs this suite under asan/ubsan on every
 * tier-1 sanitizer pass.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/bitstream.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace pce {
namespace {

ImageU8
randomImage(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h);
    for (auto &b : img.data())
        b = static_cast<uint8_t>(rng.uniformInt(256));
    return img;
}

/**
 * BdCodec::decodeInto on the portable and the BMI2 bit path (the
 * portable one again where this CPU has no fast BMI2). Both must
 * throw std::runtime_error, or both decode the same image into @p out;
 * a throw is rethrown.
 */
void
decodeOnEveryPath(const std::vector<uint8_t> &stream, ImageU8 &out,
                  BdDecodeScratch *scratch = nullptr,
                  ThreadPool *pool = nullptr, int participants = 1,
                  std::uint64_t max_pixels = kBdDefaultMaxDecodePixels)
{
    bool portable_threw = false;
    try {
        BdCodec::decodeInto(stream, out, scratch, pool, participants,
                            max_pixels, BdBitPath::Portable);
    } catch (const std::runtime_error &) {
        portable_threw = true;
    }
    ImageU8 bmi2;
    try {
        BdCodec::decodeInto(stream, bmi2, scratch, pool, participants,
                            max_pixels, BdBitPath::Bmi2);
    } catch (const std::runtime_error &) {
        EXPECT_TRUE(portable_threw) << "only the bmi2 path threw";
        throw;
    }
    EXPECT_FALSE(portable_threw) << "only the portable path threw";
    EXPECT_EQ(bmi2, out);
}

/**
 * Feed a mutant to decodeInto. Anything other than a clean decode or a
 * clean std::runtime_error fails the test (other exception types would
 * escape and abort it; memory errors trip the sanitizer build).
 *
 * @return true when the mutant decoded without throwing.
 */
bool
decodesCleanly(const std::vector<uint8_t> &mutant)
{
    ImageU8 out;
    try {
        decodeOnEveryPath(mutant, out);
    } catch (const std::runtime_error &) {
        return false;
    }
    // A mutant that decodes must have produced a frame of its header's
    // claimed geometry (never a zero/garbage-sized image).
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
    bw.putBits(0x424431, 24);
    bw.putBits(w, 16);
    bw.putBits(h, 16);
    bw.putBits(tile, 8);
    bw.alignToByte();
    return bw.take();
}

TEST(BdDecodeHardening, EveryHeaderBitFlipIsGraceful)
{
    const BdCodec codec(4);
    const auto valid = codec.encode(randomImage(33, 17, 1));
    const ImageU8 reference = BdCodec::decode(valid);
    // The full header is the first 8 bytes (24+16+16+8 bits).
    for (std::size_t byte = 0; byte < 8; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = valid;
            mutant[byte] ^= static_cast<uint8_t>(1u << bit);
            if (decodesCleanly(mutant)) {
                // Only an identity-preserving flip may still decode —
                // and then it must round-trip to the original frame.
                EXPECT_EQ(BdCodec::decode(mutant), reference)
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

TEST(BdDecodeHardening, EveryPayloadByteBitFlipIsGraceful)
{
    // Small frame so the sweep covers every payload byte of the
    // stream, not a sample: flips hit width fields (resyncing the
    // whole tile walk), bases, deltas, and the final padding bits.
    const BdCodec codec(4);
    const auto valid = codec.encode(randomImage(9, 6, 2));
    for (std::size_t byte = 8; byte < valid.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = valid;
            mutant[byte] ^= static_cast<uint8_t>(1u << bit);
            ImageU8 out;
            try {
                decodeOnEveryPath(mutant, out);
                // A surviving mutant altered only delta/base payload:
                // geometry must be untouched.
                EXPECT_EQ(out.width(), 9);
                EXPECT_EQ(out.height(), 6);
            } catch (const std::runtime_error &) {
                // Rejected cleanly.
            }
        }
    }
}

TEST(BdDecodeHardening, EveryTruncationLengthThrows)
{
    const BdCodec codec(5);
    const auto valid = codec.encode(randomImage(21, 13, 3));
    ImageU8 out;
    for (std::size_t len = 0; len < valid.size(); ++len) {
        const std::vector<uint8_t> truncated(valid.begin(),
                                             valid.begin() + len);
        EXPECT_THROW(decodeOnEveryPath(truncated, out),
                     std::runtime_error)
            << "length " << len;
    }
}

TEST(BdDecodeHardening, TrailingGarbageBytesThrow)
{
    const BdCodec codec(4);
    const auto valid = codec.encode(randomImage(16, 16, 4));
    ImageU8 out;
    for (const std::size_t extra : {1u, 2u, 7u, 64u}) {
        for (const uint8_t fill : {0x00, 0xff, 0x5a}) {
            auto mutant = valid;
            mutant.insert(mutant.end(), extra, fill);
            EXPECT_THROW(decodeOnEveryPath(mutant, out),
                         std::runtime_error)
                << extra << " bytes of 0x" << std::hex
                << static_cast<int>(fill);
        }
    }
}

TEST(BdDecodeHardening, NonzeroPaddingBitsThrow)
{
    // A 1x1 tile-4 frame: header + 3 x (4+8+1) bits = 103 bits, so the
    // final byte carries padding the encoder wrote as zeros. Flipping
    // only padding changes no decoded pixel — the decoder must still
    // reject it rather than accept a non-canonical stream.
    const BdCodec codec(4);
    ImageU8 px(1, 1);
    px.setChannel(0, 0, 0, 7);
    const auto valid = codec.encode(px);
    const BdFrameStats stats = codec.analyze(px);
    ASSERT_NE(stats.totalBits() % 8, 0u) << "need a padded stream";
    auto mutant = valid;
    mutant.back() |= 1u;  // lowest bit is always padding here
    ImageU8 out;
    EXPECT_THROW(decodeOnEveryPath(mutant, out), std::runtime_error);
}

TEST(BdDecodeHardening, ZeroDimensionHeadersThrow)
{
    ImageU8 out;
    const std::tuple<uint32_t, uint32_t, uint32_t> cases[] = {
        {0, 16, 4}, {16, 0, 4}, {16, 16, 0}, {0, 0, 0}};
    for (const auto &[w, h, tile] : cases) {
        auto stream = craftHeader(w, h, tile);
        stream.insert(stream.end(), 64, 0);  // plausible payload bytes
        EXPECT_THROW(decodeOnEveryPath(stream, out),
                     std::runtime_error)
            << w << "x" << h << " tile " << tile;
    }
}

TEST(BdDecodeHardening, OverflowingDimensionsRejectedBeforeAllocation)
{
    // 0xFFFF x 0xFFFF tile-1 claims 2^32 tiles (~4.3 G pixels): the
    // 64-bit floor check must reject the short stream without walking
    // the claimed tile count or allocating the claimed frame. The time
    // bound is the observable: O(claimed tiles) work or a ~13 GB
    // allocation would blow it by orders of magnitude.
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
        EXPECT_THROW(decodeOnEveryPath(stream, out),
                     std::runtime_error)
            << w << "x" << h << " tile " << tile;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(seconds, 1.0);
}

TEST(BdDecodeHardening, WellFormedDecompressionBombRejected)
{
    // Flat tiles make a 0xFFFF x 0xFFFF frame honestly encodable in
    // ~300 KB: 66049 tile-channels x (4-bit width 0 + 8-bit base), no
    // delta bits, passing every consistency check. Only the pixel cap
    // stands between this stream and a ~13 GB allocation from a
    // ~300 KB untrusted input.
    BitWriter bw;
    bw.putBits(0x424431, 24);
    bw.putBits(0xffff, 16);
    bw.putBits(0xffff, 16);
    bw.putBits(255, 8);
    const std::size_t tiles = 257 * 257;  // ceil(65535/255) = 257
    for (std::size_t t = 0; t < tiles * 3; ++t) {
        bw.putBits(0, 4);   // flat: width 0, no deltas follow
        bw.putBits(77, 8);  // base
    }
    bw.alignToByte();
    const std::vector<uint8_t> bomb = bw.take();
    ImageU8 out;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(decodeOnEveryPath(bomb, out), std::runtime_error);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(seconds, 1.0);
}

TEST(BdDecodeHardening, PixelCapIsCallerTunable)
{
    const BdCodec codec(4);
    const ImageU8 img = randomImage(32, 16, 9);  // 512 pixels
    const auto stream = codec.encode(img);
    ImageU8 out;
    // Just over the frame's pixel count: rejected.
    EXPECT_THROW(decodeOnEveryPath(stream, out, nullptr, nullptr, 1,
                                     511),
                 std::runtime_error);
    // At the exact pixel count: decodes.
    decodeOnEveryPath(stream, out, nullptr, nullptr, 1, 512);
    EXPECT_EQ(out, img);
}

TEST(BdDecodeHardening, OversizedWidthFieldThrows)
{
    // Craft a stream whose first tile-channel claims a 15-bit delta
    // width (fields are 4 bits; valid streams never exceed 8). The
    // payload is padded so only the width check can reject it.
    BitWriter bw;
    bw.putBits(0x424431, 24);
    bw.putBits(4, 16);
    bw.putBits(4, 16);
    bw.putBits(4, 8);
    bw.putBits(15, 4);   // delta width 15: invalid
    bw.putBits(0, 8);    // base
    for (int i = 0; i < 16; ++i)
        bw.putBits(0x7fff, 15);  // the claimed deltas
    bw.putBits(0, 4);    // next channel's meta...
    bw.putBits(0, 8);
    bw.putBits(0, 4);
    bw.putBits(0, 8);
    bw.alignToByte();
    ImageU8 out;
    EXPECT_THROW(decodeOnEveryPath(bw.take(), out),
                 std::runtime_error);
}

TEST(BdDecodeHardening, MidTileTruncationThrowsNotZeroFills)
{
    // Cut a valid stream exactly inside the last tile's delta block:
    // the old decoder zero-filled those deltas (BitReader semantics)
    // and returned a frame; the hardened walk must throw instead.
    const BdCodec codec(4);
    const auto valid = codec.encode(randomImage(32, 32, 5));
    ImageU8 out;
    auto cut = valid;
    cut.resize(valid.size() - 1);
    EXPECT_THROW(decodeOnEveryPath(cut, out), std::runtime_error);
}

TEST(BdDecodeHardening, RandomStreamsAreGraceful)
{
    Rng rng(6);
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
            bytes[2] = 0x31;
        }
        (void)decodesCleanly(bytes);
    }
}

TEST(BdDecodeHardening, MutantsAreGracefulUnderParallelDecode)
{
    // The parallel path must fail validation identically to the serial
    // path — workers only ever run over validated offsets. 24x24 (36
    // tiles) stays inline; 192x192 (2304 tiles, at least
    // 2 * kBdMinTilesPerParticipant) must reach the pool.
    const BdCodec codec(4);
    for (const int side : {24, 192}) {
        const bool dispatches = side == 192;
        const auto valid = codec.encode(randomImage(side, side, 7));
        ThreadPool pool(3);
        BdDecodeScratch scratch;
        ImageU8 serial_out;
        ImageU8 parallel_out;
        const std::uint64_t before = pool.dispatchCalls();
        decodeOnEveryPath(valid, parallel_out, &scratch, &pool, 4);
        EXPECT_EQ(pool.dispatchCalls() > before, dispatches) << side;
        Rng rng(8);
        for (int trial = 0; trial < 150; ++trial) {
            auto mutant = valid;
            const std::size_t pos = rng.uniformInt(mutant.size());
            mutant[pos] ^= static_cast<uint8_t>(1u << rng.uniformInt(8));
            bool serial_ok = true;
            try {
                decodeOnEveryPath(mutant, serial_out);
            } catch (const std::runtime_error &) {
                serial_ok = false;
            }
            bool parallel_ok = true;
            try {
                decodeOnEveryPath(mutant, parallel_out, &scratch, &pool,
                                  4);
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

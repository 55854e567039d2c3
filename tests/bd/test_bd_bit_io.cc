/**
 * @file
 * The word-level BD bit I/O against the per-field reference
 * (bd_reference.hh): encodeInto must match it bit for bit, and
 * decodeInto / decodeTileRangeInto must reproduce the same images,
 * across every delta width, tile size, odd frame size and participant
 * count, on both BD bit paths. Also pins the bytes outside a decoded
 * range as irrelevant to its output, per-byte wrap of hostile
 * base + delta sums, and one seeded stream's hash against drift shared
 * by encoder and decoder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "bd/bd_codec.hh"
#include "bd_reference.hh"
#include "common/bitstream.hh"
#include "common/integrity.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace pce {
namespace {

constexpr unsigned kMixed = 9;  ///< width pattern: varies per tile/channel

/** Both BD bit paths (the portable one again where BMI2 is not fast). */
constexpr BdBitPath kBitPaths[] = {BdBitPath::Portable, BdBitPath::Bmi2};

/**
 * Random image whose every tile-channel has exactly the requested delta
 * width: @p forced for all of them, or a per-tile, per-channel cycle
 * through 0..8 when @p forced is kMixed. One-pixel tiles are always
 * flat (width 0).
 */
ImageU8
widthImage(Rng &rng, int w, int h, int tile, unsigned forced)
{
    ImageU8 img(w, h);
    const TileGrid grid{w, h, tile};
    for (std::size_t t = 0; t < grid.count(); ++t) {
        const TileRect r = grid.rect(t);
        for (int c = 0; c < 3; ++c) {
            const unsigned width =
                forced == kMixed ? (t * 5 + c * 3) % 9 : forced;
            const unsigned span = (1u << width) - 1;
            const unsigned lo = static_cast<unsigned>(
                rng.uniformInt(256 - span));
            for (int y = r.y0; y < r.y0 + r.h; ++y) {
                for (int x = r.x0; x < r.x0 + r.w; ++x) {
                    unsigned v = lo + static_cast<unsigned>(
                                          rng.uniformInt(span + 1));
                    if (x == r.x0 && y == r.y0)
                        v = lo;
                    else if (x == r.x0 + r.w - 1 && y == r.y0 + r.h - 1)
                        v = lo + span;
                    img.setChannel(x, y, c, static_cast<uint8_t>(v));
                }
            }
        }
    }
    return img;
}

/** Payload bit offsets of every tile (tiles + 1 entries). */
std::vector<std::size_t>
tileOffsets(const std::vector<uint8_t> &stream, const TileGrid &grid)
{
    std::vector<std::size_t> offsets(grid.count() + 1);
    BdCodec::walkTileRange(stream.data(), stream.size(), grid, 0,
                           grid.count(), 0, offsets.data());
    return offsets;
}

TEST(BdBitIo, EncodeAndDecodeMatchTheReference)
{
    Rng rng(12);
    ThreadPool pool(3);
    const struct
    {
        int w, h;
    } sizes[] = {{1, 1}, {13, 7}, {17, 3}, {33, 40}, {61, 47}};
    for (const int tile : {1, 2, 3, 4, 5, 8, 16}) {
        for (const auto &sz : sizes) {
            const TileGrid grid{sz.w, sz.h, tile};
            for (unsigned forced = 0; forced <= kMixed; ++forced) {
                const ImageU8 img =
                    widthImage(rng, sz.w, sz.h, tile, forced);
                const std::vector<uint8_t> ref = bdref::encode(img, tile);
                const std::vector<std::size_t> offsets =
                    tileOffsets(ref, grid);
                for (const BdBitPath path : kBitPaths) {
                    const auto where = ::testing::Message()
                                       << sz.w << "x" << sz.h << " tile "
                                       << tile << " width " << forced
                                       << " " << bdBitPathName(path);
                    const BdCodec codec(tile, path);
                    for (const int participants : {1, 2, 3, 4, 8}) {
                        std::vector<uint8_t> out;
                        codec.encodeInto(img, nullptr, out, nullptr,
                                         &pool, participants);
                        ASSERT_EQ(out, ref)
                            << where << " participants " << participants;
                    }

                    ImageU8 serial;
                    BdCodec::decodeInto(ref, serial, nullptr, nullptr, 1,
                                        kBdDefaultMaxDecodePixels, false,
                                        path);
                    EXPECT_EQ(serial, img) << where;
                    ImageU8 parallel;
                    BdCodec::decodeInto(ref, parallel, nullptr, &pool, 4,
                                        kBdDefaultMaxDecodePixels, false,
                                        path);
                    EXPECT_EQ(parallel, img) << where;

                    // Tile ranges of three different lengths, each
                    // decoded on its own by both readers.
                    ImageU8 fast(sz.w, sz.h);
                    ImageU8 slow(sz.w, sz.h);
                    for (std::size_t t0 = 0, len = 1; t0 < grid.count();
                         t0 += len, len = len % 3 + 1) {
                        const std::size_t t1 = std::min<std::size_t>(
                            grid.count(), t0 + len);
                        BdCodec::decodeTileRangeInto(ref.data(),
                                                     ref.size(), grid, t0,
                                                     t1, offsets[t0], fast,
                                                     path);
                        bdref::decodeTileRange(ref.data(), ref.size(),
                                               grid, t0, t1, offsets[t0],
                                               slow);
                    }
                    EXPECT_EQ(fast, slow) << where;
                    EXPECT_EQ(fast, img) << where;
                }
            }
        }
    }
}

TEST(BdBitIo, BitPathsAreResolvedAgainstTheCpu)
{
    EXPECT_EQ(effectiveBdBitPath(BdBitPath::Portable),
              BdBitPath::Portable);
    const BdBitPath active = activeBdBitPath();
    EXPECT_EQ(effectiveBdBitPath(active), active);
    EXPECT_STREQ(bdBitPathName(BdBitPath::Portable), "portable");
    EXPECT_STREQ(bdBitPathName(BdBitPath::Bmi2), "bmi2");
}

TEST(BdBitIo, WrappingBasePlusDeltaMatchesTheReference)
{
    // A hostile but walk-valid stream: base + delta past 255 wraps per
    // byte (the reference's uint8_t cast), in every lane of a group and
    // never into its neighbour. Two side x side tiles, every channel
    // width 8, base 0xF0, deltas 0..255. At side 4 the first tile takes
    // the grouped row path and the second, in the stream's last bytes,
    // the per-sample path; at side 3 both take the per-sample path.
    for (const int side : {4, 3}) {
        BitWriter bw;
        bw.putBits(0x424431, 24);
        bw.putBits(static_cast<uint32_t>(2 * side), 16);
        bw.putBits(static_cast<uint32_t>(side), 16);
        bw.putBits(static_cast<uint32_t>(side), 8);
        for (int t = 0; t < 2; ++t) {
            for (int c = 0; c < 3; ++c) {
                bw.putBits(8, kBdWidthFieldBits);
                bw.putBits(0xF0, kBdBaseBits);
                for (int i = 0; i < side * side; ++i)
                    bw.putBits(static_cast<uint32_t>(
                                   (i * 37 + c * 101 + t * 53) & 0xff),
                               8);
            }
        }
        bw.alignToByte();
        const std::vector<uint8_t> stream = bw.take();
        const TileGrid grid{2 * side, side, side};
        ImageU8 want(2 * side, side);
        bdref::decodeTileRange(stream.data(), stream.size(), grid, 0, 2,
                               0, want);
        for (const BdBitPath path : kBitPaths) {
            ImageU8 got;
            BdCodec::decodeInto(stream, got, nullptr, nullptr, 1,
                                kBdDefaultMaxDecodePixels, false, path);
            EXPECT_EQ(got, want) << side << " " << bdBitPathName(path);
        }
    }
}

TEST(BdBitIo, EncodeOverwritesEveryByteOfAReusedBuffer)
{
    // encodeInto sizes the output exactly and writes each byte once
    // instead of clearing it: stale bytes from an earlier, different
    // stream in the same allocation must not leak into the new one.
    // 193x181 (2254 tiles) emits on the pool at 4 participants.
    Rng rng(13);
    ThreadPool pool(3);
    const BdCodec codec(4);
    for (const auto [w, h] : {std::pair{61, 47}, std::pair{193, 181}}) {
        const ImageU8 img = widthImage(rng, w, h, 4, kMixed);
        const std::vector<uint8_t> ref = bdref::encode(img, 4);
        for (const uint8_t stale : {0x00, 0xFF, 0xA5}) {
            for (const int participants : {1, 4}) {
                for (const std::size_t size :
                     {ref.size(), ref.size() + 37}) {
                    std::vector<uint8_t> out(size, stale);
                    codec.encodeInto(img, nullptr, out, nullptr, &pool,
                                     participants);
                    EXPECT_EQ(out, ref)
                        << w << "x" << h << " stale " << int(stale)
                        << " participants " << participants << " size "
                        << size;
                }
            }
        }
    }
    EXPECT_GT(pool.dispatchCalls(), 0u);
}

TEST(BdBitIo, SeededStreamHashIsPinned)
{
    // Captured from the per-field encoder the fast emitter replaced. An
    // encoder and decoder that drift together would still round-trip;
    // this catches them.
    Rng rng(2024);
    const ImageU8 img = widthImage(rng, 93, 71, 4, kMixed);
    ThreadPool pool(3);
    std::vector<uint8_t> stream;
    BdCodec(4).encodeInto(img, nullptr, stream, nullptr, &pool, 4);
    EXPECT_EQ(stream.size(), 11857u);
    EXPECT_EQ(hash64(stream.data(), stream.size()),
              0x152a254413d00498ull);
}

TEST(BdBitIo, BytesOutsideARangeNeverAffectItsDecode)
{
    // A read may load bytes past a range's bit span (never past the
    // buffer). Whatever the bits outside the span hold — the holes of
    // a partially reassembled frame — the decoded range must not
    // change. Each range is decoded from the whole stream and from
    // buffers cut to end 0, 1 and 2 bytes after the span's last byte,
    // so reads from fewer than 9 remaining bytes run at every range
    // end. Buffers are exactly sized heap blocks, so a sanitizer build
    // flags any read past the end. Tile 3 takes the per-sample path;
    // tile 4 on a 31-pixel-wide frame mixes full 4x4 tiles (the grouped
    // row path) with edge tiles in one range, and its last ranges end
    // within the stream's last 16 bytes.
    for (const int tile : {3, 4}) {
        Rng rng(14);
        const int w = 31;
        const int h = 29;
        const ImageU8 img = widthImage(rng, w, h, tile, kMixed);
        const std::vector<uint8_t> stream = bdref::encode(img, tile);
        const TileGrid grid{w, h, tile};
        const std::vector<std::size_t> offsets = tileOffsets(stream, grid);
        const std::size_t n = grid.count();
        const std::size_t per_row = (w + tile - 1) / tile;

        std::vector<std::pair<std::size_t, std::size_t>> ranges = {
            {0, 1},
            {0, 4},
            {7, 8},
            {n / 2, n / 2 + 5},
            {per_row - 2, per_row + 2},  // the row's edge tile between
            {n - 3, n},
            {n - 1, n}};
        // Ranges ending at each tile whose span ends within the last 16
        // bytes (the frame's last tiles, its edge tiles among them).
        for (std::size_t t1 = n; t1 > 0; --t1) {
            const std::uint64_t end_byte =
                (kBdStreamHeaderBits + offsets[t1] + 7) / 8;
            if (end_byte + 16 <= stream.size())
                break;
            ranges.emplace_back(t1 - 1, t1);
            ranges.emplace_back(t1 > 2 ? t1 - 2 : 0, t1);
        }
        for (const auto &[t0, t1] : ranges) {
            const std::uint64_t span_begin =
                kBdStreamHeaderBits + offsets[t0];
            const std::uint64_t span_end = kBdStreamHeaderBits + offsets[t1];
            ImageU8 expected(w, h);
            bdref::decodeTileRange(stream.data(), stream.size(), grid,
                                   t0, t1, offsets[t0], expected);
            const std::size_t span_bytes = (span_end + 7) / 8;
            for (const std::size_t size : {span_bytes, span_bytes + 1,
                                           span_bytes + 2, stream.size()}) {
                if (size > stream.size())
                    continue;
                for (int fill = 0; fill < 3; ++fill) {
                    std::unique_ptr<uint8_t[]> buf(new uint8_t[size]);
                    for (std::size_t i = 0; i < size; ++i) {
                        const uint8_t hole =
                            fill == 0   ? 0x00
                            : fill == 1 ? 0xFF
                                        : static_cast<uint8_t>(rng.next());
                        uint8_t keep = 0;  // bits of byte i in the span
                        for (unsigned b = 0; b < 8; ++b) {
                            const std::uint64_t bit = 8 * i + b;
                            if (bit >= span_begin && bit < span_end)
                                keep |= static_cast<uint8_t>(0x80u >> b);
                        }
                        buf[i] = static_cast<uint8_t>(
                            (stream[i] & keep) | (hole & ~keep));
                    }
                    for (const BdBitPath path : kBitPaths) {
                        ImageU8 got(w, h);
                        BdCodec::decodeTileRangeInto(buf.get(), size,
                                                     grid, t0, t1,
                                                     offsets[t0], got,
                                                     path);
                        EXPECT_EQ(got, expected)
                            << "tile " << tile << " tiles [" << t0
                            << ", " << t1 << ") buffer " << size
                            << " of " << stream.size() << " fill "
                            << fill << " " << bdBitPathName(path);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace pce

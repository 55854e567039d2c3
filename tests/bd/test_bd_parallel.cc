/**
 * @file
 * Byte-identity of the parallel BD encode across thread counts, plus
 * the reusable-buffer (encodeInto) contract.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace pce {
namespace {

/** Random image with tile-local structure (realistic BD ranges). */
ImageU8
randomImage(Rng &rng, int w, int h)
{
    ImageU8 img(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int base = static_cast<int>(rng.uniform(0.0, 200.0));
            for (int c = 0; c < 3; ++c)
                img.setChannel(
                    x, y, c,
                    static_cast<uint8_t>(
                        base + static_cast<int>(
                                   rng.uniform(0.0, 55.0))));
        }
    }
    return img;
}

TEST(BdParallel, ThreadCountSweepIsByteIdentical)
{
    Rng rng(1);
    const struct
    {
        int w, h, tile;
    } cases[] = {{64, 64, 4}, {61, 47, 4},    {13, 7, 5},
                 {128, 96, 16}, {1, 1, 4},    {4, 4, 4},
                 {261, 203, 4}, {261, 203, 5}};
    for (const auto &cs : cases) {
        const ImageU8 img = randomImage(rng, cs.w, cs.h);
        const BdCodec codec(cs.tile);
        const std::vector<uint8_t> serial = codec.encode(img);

        for (const int workers : {0, 1, 2, 3}) {
            ThreadPool pool(workers);
            for (const int participants : {2, 3, 8}) {
                std::vector<uint8_t> out;
                BdEncodeScratch scratch;
                BdFrameStats stats;
                codec.encodeInto(img, &stats, out, &scratch, &pool,
                                 participants);
                EXPECT_EQ(out, serial)
                    << cs.w << "x" << cs.h << " tile " << cs.tile
                    << " workers " << workers << " participants "
                    << participants;
                EXPECT_EQ(stats.totalBits(),
                          codec.analyze(img).totalBits());
            }
        }
    }
}

TEST(BdParallel, SmallFramesStayOffThePool)
{
    // Every BD pass gives each participant at least
    // kBdMinTilesPerParticipant tiles: a frame with fewer than twice
    // that runs encode and decode inline, and a larger one dispatches.
    Rng rng(7);
    const BdCodec codec(4);
    ThreadPool pool(3);
    const struct
    {
        int w, h;
        bool dispatches;
    } cases[] = {{128, 128, false}, {261, 203, true}};
    for (const auto &cs : cases) {
        const std::uint64_t tiles = TileGrid{cs.w, cs.h, 4}.count();
        ASSERT_EQ(tiles >= 2 * kBdMinTilesPerParticipant, cs.dispatches);
        const ImageU8 img = randomImage(rng, cs.w, cs.h);
        const std::uint64_t before = pool.dispatchCalls();
        std::vector<uint8_t> stream;
        codec.encodeInto(img, nullptr, stream, nullptr, &pool, 4);
        ImageU8 decoded;
        BdCodec::decodeInto(stream, decoded, nullptr, &pool, 4);
        EXPECT_EQ(decoded, img);
        if (cs.dispatches)
            EXPECT_GT(pool.dispatchCalls(), before) << cs.w << "x" << cs.h;
        else
            EXPECT_EQ(pool.dispatchCalls(), before) << cs.w << "x" << cs.h;
    }
}

TEST(BdParallel, ParallelStreamDecodesLosslessly)
{
    // 192x176 (2112 tiles) is large enough to emit on the pool.
    Rng rng(2);
    const BdCodec codec(4);
    ThreadPool pool(3);
    for (const auto [w, h] : {std::pair{96, 80}, std::pair{192, 176}}) {
        const ImageU8 img = randomImage(rng, w, h);
        std::vector<uint8_t> out;
        codec.encodeInto(img, nullptr, out, nullptr, &pool, 4);
        EXPECT_EQ(BdCodec::decode(out), img) << w << "x" << h;
    }
    EXPECT_GT(pool.dispatchCalls(), 0u);
}

TEST(BdParallel, StatsMatchSerialSinglePass)
{
    // 192x176 (2112 tiles) is large enough to run the stats pass on
    // the pool.
    Rng rng(3);
    const BdCodec codec(4);
    ThreadPool pool(2);
    for (const auto [w, h] : {std::pair{64, 48}, std::pair{192, 176}}) {
        const ImageU8 img = randomImage(rng, w, h);
        BdFrameStats serial_stats;
        codec.encode(img, &serial_stats);

        BdFrameStats parallel_stats;
        std::vector<uint8_t> out;
        codec.encodeInto(img, &parallel_stats, out, nullptr, &pool, 3);
        EXPECT_EQ(parallel_stats.pixels, serial_stats.pixels);
        EXPECT_EQ(parallel_stats.headerBits, serial_stats.headerBits);
        EXPECT_EQ(parallel_stats.metaBits, serial_stats.metaBits);
        EXPECT_EQ(parallel_stats.baseBits, serial_stats.baseBits);
        EXPECT_EQ(parallel_stats.deltaBits, serial_stats.deltaBits);
    }
    EXPECT_GT(pool.dispatchCalls(), 0u);
}

TEST(BdParallel, EncodeIntoReusesTheOutputBuffer)
{
    Rng rng(4);
    const ImageU8 img = randomImage(rng, 64, 64);
    const BdCodec codec(4);
    const std::vector<uint8_t> expected = codec.encode(img);

    std::vector<uint8_t> out;
    BdEncodeScratch scratch;
    codec.encodeInto(img, nullptr, out, &scratch);
    EXPECT_EQ(out, expected);

    // Steady state: the second encode of a same-size frame must land
    // in the same allocation (capacity reuse, no growth).
    const uint8_t *data = out.data();
    const std::size_t cap = out.capacity();
    codec.encodeInto(img, nullptr, out, &scratch);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(out.data(), data);
    EXPECT_EQ(out.capacity(), cap);
}

TEST(BdParallel, DecodeIntoRoundTripSweepIsByteIdentical)
{
    // encodeInto -> decodeInto across tile sizes, odd frame sizes
    // (edge tiles), and participant counts: the parallel decode must
    // reproduce the source image byte for byte, and match the serial
    // decode exactly, for any pool/participant combination. 261x203
    // at tiles 4 and 5 has enough tiles (at least
    // 2 * kBdMinTilesPerParticipant) to run the passes on the pool;
    // tile 5 puts chunk seams at every bit offset of a byte.
    Rng rng(6);
    const struct
    {
        int w, h;
    } sizes[] = {{64, 64}, {61, 47}, {13, 7}, {1, 1}, {33, 40}, {261, 203}};
    for (const int tile : {4, 5, 8, 16}) {
        const BdCodec codec(tile);
        for (const auto &sz : sizes) {
            const ImageU8 img = randomImage(rng, sz.w, sz.h);
            std::vector<uint8_t> stream;
            codec.encodeInto(img, nullptr, stream);

            ImageU8 serial;
            BdCodec::decodeInto(stream, serial);
            EXPECT_EQ(serial, img)
                << sz.w << "x" << sz.h << " tile " << tile;

            for (const int workers : {0, 1, 3}) {
                ThreadPool pool(workers);
                for (const int participants : {1, 2, 8}) {
                    ImageU8 parallel;
                    BdDecodeScratch scratch;
                    BdCodec::decodeInto(stream, parallel, &scratch,
                                        &pool, participants);
                    EXPECT_EQ(parallel, img)
                        << sz.w << "x" << sz.h << " tile " << tile
                        << " workers " << workers << " participants "
                        << participants;
                }
            }
        }
    }
}

TEST(BdParallel, DecodeIntoReusesEveryBuffer)
{
    // Steady state: the second decode of a same-geometry stream must
    // land in the same allocations (image data, offsets) —
    // the decode mirror of EncodeIntoReusesTheOutputBuffer. 192x176
    // (2112 tiles) decodes on the pool.
    Rng rng(7);
    const BdCodec codec(4);
    ThreadPool pool(2);
    for (const auto [w, h] : {std::pair{64, 48}, std::pair{192, 176}}) {
        const ImageU8 img = randomImage(rng, w, h);
        const std::vector<uint8_t> stream = codec.encode(img);

        ImageU8 out;
        BdDecodeScratch scratch;
        BdCodec::decodeInto(stream, out, &scratch, &pool, 3);
        EXPECT_EQ(out, img);

        const uint8_t *img_data = out.data().data();
        const std::size_t *offsets_data = scratch.bitOffsets.data();
        for (int repeat = 0; repeat < 3; ++repeat) {
            BdCodec::decodeInto(stream, out, &scratch, &pool, 3);
            EXPECT_EQ(out, img) << w << "x" << h;
            EXPECT_EQ(out.data().data(), img_data);
            EXPECT_EQ(scratch.bitOffsets.data(), offsets_data);
        }
    }
    EXPECT_GT(pool.dispatchCalls(), 0u);
}

TEST(BdParallel, DecodeScratchSurvivesGeometryChanges)
{
    // One decode scratch reused across frame/tile geometries must keep
    // decoding losslessly (the offset table is resized per frame).
    // 190 (tile 4) and 333 (tiles 4 and 7) decode on the pool.
    Rng rng(8);
    BdDecodeScratch scratch;
    ImageU8 out;
    ThreadPool pool(2);
    for (const int dim : {32, 17, 64, 8, 190, 333}) {
        const ImageU8 img = randomImage(rng, dim, dim + 3);
        for (const int tile : {4, 7}) {
            const BdCodec codec(tile);
            BdCodec::decodeInto(codec.encode(img), out, &scratch,
                                &pool, 3);
            EXPECT_EQ(out, img) << dim << " tile " << tile;
        }
    }
    EXPECT_GT(pool.dispatchCalls(), 0u);
}

TEST(BdParallel, ScratchSurvivesGeometryChanges)
{
    // One scratch reused across different frame sizes and tile sizes
    // must keep producing serial-identical streams. 190 (tile 4: 8
    // emit chunks) and 333 (tile 4: 12 chunks, tile 7: 8) encode on
    // the pool, so the seam buffer is resized between chunk counts.
    Rng rng(5);
    BdEncodeScratch scratch;
    std::vector<uint8_t> out;
    ThreadPool pool(2);
    for (const int dim : {32, 17, 64, 8, 190, 333}) {
        const ImageU8 img = randomImage(rng, dim, dim + 3);
        for (const int tile : {4, 7}) {
            const BdCodec codec(tile);
            codec.encodeInto(img, nullptr, out, &scratch, &pool, 3);
            EXPECT_EQ(out, codec.encode(img))
                << dim << " tile " << tile;
        }
    }
    EXPECT_GT(pool.dispatchCalls(), 0u);
}

} // namespace
} // namespace pce

/**
 * @file
 * Test-only reference Base+Delta bit I/O: the per-field BitWriter /
 * BitReader encoder and tile decoder the library used before its
 * word-level emitter and reader. Every field goes through one
 * putBits / getBits call, which makes this the readable statement of
 * the stream format that the fast paths in src/bd/bd_codec.cc must
 * reproduce bit for bit.
 */

#ifndef PCE_TESTS_BD_BD_REFERENCE_HH
#define PCE_TESTS_BD_BD_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/bitstream.hh"
#include "image/image.hh"

namespace pce::bdref {

/** Serial BD encode of @p img, one putBits call per field. */
inline std::vector<uint8_t>
encode(const ImageU8 &img, int tile_size)
{
    BitWriter bw;
    bw.putBits(0x424431, 24);  // "BD1"
    bw.putBits(static_cast<uint32_t>(img.width()), 16);
    bw.putBits(static_cast<uint32_t>(img.height()), 16);
    bw.putBits(static_cast<uint32_t>(tile_size), 8);
    for (const TileRect &rect :
         tileGrid(img.width(), img.height(), tile_size)) {
        for (int c = 0; c < 3; ++c) {
            uint8_t lo = 255;
            uint8_t hi = 0;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                for (int x = rect.x0; x < rect.x0 + rect.w; ++x) {
                    const uint8_t v = img.channel(x, y, c);
                    lo = v < lo ? v : lo;
                    hi = v > hi ? v : hi;
                }
            }
            const unsigned w = bdDeltaWidth(lo, hi);
            bw.putBits(w, kBdWidthFieldBits);
            bw.putBits(lo, kBdBaseBits);
            if (w == 0)
                continue;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                    bw.putBits(static_cast<unsigned>(
                                   img.channel(x, y, c)) - lo,
                               w);
        }
    }
    bw.alignToByte();
    return bw.take();
}

/**
 * Decode tiles [tile_begin, tile_end) starting at payload bit
 * @p payload_bit_begin, one getBits call per field — the contract of
 * BdCodec::decodeTileRangeInto.
 */
inline void
decodeTileRange(const uint8_t *data, std::size_t size_bytes,
                const std::vector<TileRect> &tiles,
                std::size_t tile_begin, std::size_t tile_end,
                std::uint64_t payload_bit_begin, ImageU8 &out)
{
    BitReader br(data, size_bytes);
    br.seek(static_cast<std::size_t>(kBdStreamHeaderBits +
                                     payload_bit_begin));
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
        const TileRect &rect = tiles[t];
        for (int c = 0; c < 3; ++c) {
            const unsigned width = br.getBits(kBdWidthFieldBits);
            const unsigned base = br.getBits(kBdBaseBits);
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                    out.setChannel(x, y, c,
                                   static_cast<uint8_t>(
                                       base + br.getBits(width)));
        }
    }
}

} // namespace pce::bdref

#endif // PCE_TESTS_BD_BD_REFERENCE_HH

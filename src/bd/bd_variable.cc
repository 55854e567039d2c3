#include "bd/bd_variable.hh"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "common/bitstream.hh"
#include "common/thread_pool.hh"

namespace pce {

namespace {

constexpr unsigned kWidthFieldBits = kBdWidthFieldBits;
constexpr unsigned kBaseBits = kBdBaseBits;

/** Channel minimum over a tile. */
uint8_t
tileMin(const ImageU8 &img, const TileRect &rect, int c)
{
    uint8_t lo = 255;
    for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
        for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
            lo = std::min(lo, img.channel(x, y, c));
    return lo;
}

/** Uniform-mode cost in bits (excluding the mode bit). */
std::size_t
uniformCost(const ImageU8 &img, const TileRect &rect, int c,
            unsigned &width_out)
{
    uint8_t lo = 255;
    uint8_t hi = 0;
    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
        for (int x = rect.x0; x < rect.x0 + rect.w; ++x) {
            const uint8_t v = img.channel(x, y, c);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    width_out = bdDeltaWidth(lo, hi);
    return kWidthFieldBits + kBaseBits +
           static_cast<std::size_t>(rect.pixelCount()) * width_out;
}

/** Per-row-mode cost in bits (excluding the mode bit). */
std::size_t
perRowCost(const ImageU8 &img, const TileRect &rect, int c,
           std::vector<unsigned> &row_widths_out)
{
    const uint8_t base = tileMin(img, rect, c);
    row_widths_out.clear();
    std::size_t bits = kBaseBits;
    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
        uint8_t hi = 0;
        for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
            hi = std::max(hi,
                          static_cast<uint8_t>(
                              img.channel(x, y, c) - base));
        const unsigned w = bdDeltaWidth(0, hi);
        row_widths_out.push_back(w);
        bits += kWidthFieldBits + static_cast<std::size_t>(rect.w) * w;
    }
    return bits;
}

} // namespace

BdVariableCodec::BdVariableCodec(int tile_size) : tileSize_(tile_size)
{
    if (!bdGeometryValid(1, 1, tile_size, 1))  // the tile range
        throw std::invalid_argument(
            "BdVariableCodec: tile size out of range");
}

std::vector<uint8_t>
BdVariableCodec::encode(const ImageU8 &img) const
{
    uint8_t header[kBdStreamHeaderBits / 8];
    bdWriteStreamHeader(header, img.width(), img.height(), tileSize_,
                        kBdVariableFormat);
    const TileGrid g{img.width(), img.height(), tileSize_};

    BitWriter bw;
    // One upfront worst-case reserve (the payload ceiling: every
    // channel in 8-bit uniform mode) so putBits never grows
    // mid-stream — a per-channel exact reserve would defeat the
    // vector's geometric growth and go quadratic (same audit as the
    // parallel BD tile emitters, which know their chunk sizes exactly
    // from the prefix pass).
    bw.reserve(kBdStreamHeaderBits +
               bdPayloadBounds(g, kBdVariableFormat).maxBits);
    for (const uint8_t b : header)
        bw.putByte(b);

    std::vector<unsigned> row_widths;
    TileRect rect = g.rect(0);
    for (std::uint64_t t = 0; t < g.count(); ++t, rect = g.next(rect)) {
        for (int c = 0; c < 3; ++c) {
            unsigned uniform_width = 0;
            const std::size_t cost_uniform =
                uniformCost(img, rect, c, uniform_width);
            const std::size_t cost_rows =
                perRowCost(img, rect, c, row_widths);
            const uint8_t base = tileMin(img, rect, c);

            if (cost_uniform <= cost_rows) {
                bw.putBits(0, 1);
                bw.putBits(uniform_width, kWidthFieldBits);
                bw.putBits(base, kBaseBits);
                if (uniform_width > 0) {
                    for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                        for (int x = rect.x0; x < rect.x0 + rect.w;
                             ++x)
                            bw.putBits(
                                static_cast<unsigned>(
                                    img.channel(x, y, c)) -
                                    base,
                                uniform_width);
                }
            } else {
                bw.putBits(1, 1);
                bw.putBits(base, kBaseBits);
                for (int r = 0; r < rect.h; ++r) {
                    const int y = rect.y0 + r;
                    const unsigned w = row_widths[r];
                    bw.putBits(w, kWidthFieldBits);
                    if (w == 0)
                        continue;
                    for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                        bw.putBits(static_cast<unsigned>(
                                       img.channel(x, y, c)) -
                                       base,
                                   w);
                }
            }
        }
    }
    bw.alignToByte();
    return bw.take();
}

ImageU8
BdVariableCodec::decode(const std::vector<uint8_t> &stream)
{
    ImageU8 img;
    decodeInto(stream, img);
    return img;
}

void
BdVariableCodec::decodeInto(const std::vector<uint8_t> &stream,
                            ImageU8 &out, BdDecodeScratch *scratch,
                            ThreadPool *pool, int participants,
                            std::uint64_t max_pixels)
{
    const TileGrid g = bdReadStreamHeader(
        stream.data(), stream.size(), max_pixels, kBdVariableFormat);
    const std::uint64_t stream_bits =
        static_cast<std::uint64_t>(stream.size()) * 8;
    BdDecodeScratch local;
    BdDecodeScratch &s = scratch ? *scratch : local;
    const std::size_t n_tiles = g.count();

    // Pass 1 (serial): validate every per-tile-channel record and turn
    // the mode/width fields into the exclusive prefix of per-tile
    // payload bit offsets. Only the meta fields are read; delta blocks
    // are stepped over arithmetically. Unlike uniform BD the meta is
    // mode-dependent (per-row widths), so the walk follows the same
    // branch structure as the decoder below.
    s.bitOffsets.resize(n_tiles + 1);
    BitReader meta(stream);
    std::uint64_t offset = 0;  // payload bits before the current field
    const auto readField = [&](unsigned bits) -> unsigned {
        const std::uint64_t pos = kBdStreamHeaderBits + offset;
        if (pos + bits > stream_bits)
            throw std::runtime_error(
                "BdVariableCodec::decode: stream truncated mid-tile");
        meta.seek(static_cast<std::size_t>(pos));
        offset += bits;
        return meta.getBits(bits);
    };
    TileRect rect = g.rect(0);
    for (std::size_t t = 0; t < n_tiles; ++t, rect = g.next(rect)) {
        s.bitOffsets[t] = static_cast<std::size_t>(offset);
        for (int c = 0; c < 3; ++c) {
            const unsigned mode = readField(1);
            if (mode == 0) {
                const unsigned width = readField(kWidthFieldBits);
                if (width > 8)
                    throw std::runtime_error(
                        "BdVariableCodec::decode: delta width field "
                        "exceeds 8 bits");
                offset += kBaseBits +
                          static_cast<std::uint64_t>(
                              rect.pixelCount()) *
                              width;
            } else {
                offset += kBaseBits;
                for (int r = 0; r < rect.h; ++r) {
                    const unsigned width = readField(kWidthFieldBits);
                    if (width > 8)
                        throw std::runtime_error(
                            "BdVariableCodec::decode: row width field "
                            "exceeds 8 bits");
                    offset += static_cast<std::uint64_t>(rect.w) *
                              width;
                }
            }
            if (kBdStreamHeaderBits + offset > stream_bits)
                throw std::runtime_error(
                    "BdVariableCodec::decode: stream truncated "
                    "mid-tile");
        }
    }
    s.bitOffsets[n_tiles] = static_cast<std::size_t>(offset);

    bdCheckStreamEnd(stream.data(), stream.size(), offset);

    // Pass 2: tile decode, parallel over the validated offsets (tiles
    // are disjoint, so output is byte-identical for any participant
    // count). Reallocate only on geometry change; every byte of the
    // image is overwritten below.
    if (out.width() != g.width || out.height() != g.height)
        out = ImageU8(g.width, g.height);
    const uint8_t *data = stream.data();
    const std::size_t size = stream.size();
    auto decodeRange = [&](std::size_t begin, std::size_t end, int) {
        BitReader br(data, size);
        br.seek(kBdStreamHeaderBits + s.bitOffsets[begin]);
        TileRect rect = g.rect(begin);
        for (std::size_t t = begin; t < end; ++t, rect = g.next(rect)) {
            for (int c = 0; c < 3; ++c) {
                const unsigned mode = br.getBits(1);
                if (mode == 0) {
                    const unsigned width = br.getBits(kWidthFieldBits);
                    const unsigned base = br.getBits(kBaseBits);
                    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                        uint8_t *row = out.pixel(rect.x0, y);
                        for (int x = 0; x < rect.w; ++x)
                            row[3 * x + c] = static_cast<uint8_t>(
                                base +
                                (width ? br.getBits(width) : 0u));
                    }
                } else {
                    const unsigned base = br.getBits(kBaseBits);
                    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                        const unsigned width =
                            br.getBits(kWidthFieldBits);
                        uint8_t *row = out.pixel(rect.x0, y);
                        for (int x = 0; x < rect.w; ++x)
                            row[3 * x + c] = static_cast<uint8_t>(
                                base +
                                (width ? br.getBits(width) : 0u));
                    }
                }
            }
        }
    };
    const int p = bdPassParticipants(pool, participants, n_tiles);
    if (p > 1)
        pool->parallelFor(n_tiles, 16, p, decodeRange);
    else
        decodeRange(0, n_tiles, 0);
}

BdVariableFrameStats
BdVariableCodec::analyze(const ImageU8 &img) const
{
    BdVariableFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.totalBits = kBdStreamHeaderBits;
    std::vector<unsigned> row_widths;
    const TileGrid g{img.width(), img.height(), tileSize_};
    TileRect rect = g.rect(0);
    for (std::uint64_t t = 0; t < g.count(); ++t, rect = g.next(rect)) {
        for (int c = 0; c < 3; ++c) {
            unsigned uniform_width = 0;
            const std::size_t cost_uniform =
                uniformCost(img, rect, c, uniform_width);
            const std::size_t cost_rows =
                perRowCost(img, rect, c, row_widths);
            if (cost_uniform <= cost_rows) {
                stats.totalBits += 1 + cost_uniform;
                ++stats.uniformChannels;
            } else {
                stats.totalBits += 1 + cost_rows;
                ++stats.perRowChannels;
            }
        }
    }
    return stats;
}

} // namespace pce

#include "bd/bd_codec.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "common/bitstream.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"

namespace pce {

namespace {

/** Stream magic ("BD1"), for defensive decode. */
constexpr uint32_t kMagic = 0x424431;
constexpr unsigned kMagicBits = 24;
constexpr unsigned kDimBits = 16;
constexpr unsigned kTileBits = 8;
constexpr unsigned kWidthFieldBits = kBdWidthFieldBits;
constexpr unsigned kBaseBits = kBdBaseBits;

static_assert(kMagicBits + 2 * kDimBits + kTileBits ==
                  kBdStreamHeaderBits,
              "header constant out of sync with the field widths");

} // namespace

void
bdWriteStreamHeader(std::uint8_t *out8, int width, int height,
                    int tile_size)
{
    if (width < 1 || width > 0xFFFF || height < 1 || height > 0xFFFF)
        throw std::invalid_argument(
            "bdWriteStreamHeader: dimensions out of header range");
    if (tile_size < 1 || tile_size > 255)
        throw std::invalid_argument(
            "bdWriteStreamHeader: tile size out of range");
    // Every field is a whole number of bytes, big-endian.
    const uint8_t header[kBdStreamHeaderBits / 8] = {
        static_cast<uint8_t>(kMagic >> 16),
        static_cast<uint8_t>(kMagic >> 8),
        static_cast<uint8_t>(kMagic),
        static_cast<uint8_t>(width >> 8),
        static_cast<uint8_t>(width),
        static_cast<uint8_t>(height >> 8),
        static_cast<uint8_t>(height),
        static_cast<uint8_t>(tile_size)};
    std::memcpy(out8, header, sizeof header);
}

BdStreamHeader
bdReadStreamHeader(const std::uint8_t *data, std::size_t size_bytes,
                   std::uint64_t max_pixels)
{
    const std::uint64_t stream_bits =
        static_cast<std::uint64_t>(size_bytes) * 8;
    if (stream_bits < kBdStreamHeaderBits)
        throw std::runtime_error(
            "bdReadStreamHeader: stream shorter than header");
    BitReader hdr(data, size_bytes);
    if (hdr.getBits(kMagicBits) != kMagic)
        throw std::runtime_error("bdReadStreamHeader: bad magic");
    const std::uint64_t w = hdr.getBits(kDimBits);
    const std::uint64_t h = hdr.getBits(kDimBits);
    const std::uint64_t tile = hdr.getBits(kTileBits);
    if (w == 0 || h == 0 || tile == 0)
        throw std::runtime_error("bdReadStreamHeader: bad header");
    // Decompression-bomb guard: flat tiles compress so well that a
    // huge frame can be *honestly* described by a tiny stream, so no
    // consistency check bounds the output size — only this cap does.
    if (w * h > max_pixels)
        throw std::runtime_error(
            "bdReadStreamHeader: frame exceeds the decode pixel cap");
    // All tile arithmetic is 64-bit: an adversarial 0xFFFF x 0xFFFF
    // header yields ~2^32 tiles, which must be *counted* correctly (no
    // 32-bit wrap). Every tile-channel costs at least its meta+base
    // bits; a stream below that floor cannot describe the claimed
    // frame. This bounds the tile count by the actual stream size.
    const std::uint64_t n_tiles =
        ((w + tile - 1) / tile) * ((h + tile - 1) / tile);
    if (n_tiles * 3 * (kWidthFieldBits + kBaseBits) >
        stream_bits - kBdStreamHeaderBits)
        throw std::runtime_error(
            "bdReadStreamHeader: stream too short for header "
            "dimensions");
    return {static_cast<int>(w), static_cast<int>(h),
            static_cast<int>(tile)};
}

unsigned
bdDeltaWidth(uint8_t min_value, uint8_t max_value)
{
    const unsigned range = static_cast<unsigned>(max_value) - min_value;
    unsigned w = 0;
    while ((1u << w) < range + 1u)
        ++w;
    return w;
}

std::size_t
bdTileBitsFromCodes(const uint8_t *codes, std::size_t n)
{
    std::size_t bits = 3 * (kWidthFieldBits + kBaseBits);
    if (n == 0)
        return bits;
    uint8_t lo[3] = {255, 255, 255};
    uint8_t hi[3] = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
        for (int c = 0; c < 3; ++c) {
            const uint8_t v = codes[3 * i + c];
            lo[c] = std::min(lo[c], v);
            hi[c] = std::max(hi[c], v);
        }
    }
    for (int c = 0; c < 3; ++c)
        bits += n * bdDeltaWidth(lo[c], hi[c]);
    return bits;
}

BdCodec::BdCodec(int tile_size) : tileSize_(tile_size)
{
    if (tile_size < 1 || tile_size > 255)
        throw std::invalid_argument("BdCodec: tile size out of range");
}

BdChannelStats
BdCodec::analyzeTileChannel(const ImageU8 &img, const TileRect &rect,
                            int channel)
{
    uint8_t lo = 255;
    uint8_t hi = 0;
    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
        for (int x = rect.x0; x < rect.x0 + rect.w; ++x) {
            const uint8_t v = img.channel(x, y, channel);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    BdChannelStats s;
    s.deltaWidth = bdDeltaWidth(lo, hi);
    s.metaBits = kWidthFieldBits;
    s.baseBits = kBaseBits;
    s.deltaBits =
        static_cast<std::size_t>(rect.pixelCount()) * s.deltaWidth;
    return s;
}

std::vector<uint8_t>
BdCodec::encode(const ImageU8 &img, BdFrameStats *stats_out) const
{
    std::vector<uint8_t> out;
    encodeInto(img, stats_out, out);
    return out;
}

namespace {

/**
 * MSB-first field emitter writing straight into a caller-sized buffer.
 * Fields collect in a 64-bit accumulator and leave it 32 bits at a
 * time as one big-endian store, so a store only ever holds bits this
 * emitter was given: it never touches a byte past the last complete
 * byte of the emitter's span.
 */
class WordEmitter
{
  public:
    /**
     * Start at absolute bit @p bit_pos of @p out. The bits of the first
     * byte that precede @p bit_pos are written as zeros, for the caller
     * to merge with whatever owns them.
     */
    WordEmitter(uint8_t *out, std::size_t bit_pos)
        : p_(out + bit_pos / 8), n_(static_cast<unsigned>(bit_pos % 8))
    {}

    /** Append @p value (< 2^width, width 0..32) MSB first. */
    void put(unsigned value, unsigned width)
    {
        acc_ = (acc_ << width) | value;
        n_ += width;
        if (n_ >= 32) {
            n_ -= 32;
            const auto v = static_cast<uint32_t>(acc_ >> n_);
            p_[0] = static_cast<uint8_t>(v >> 24);
            p_[1] = static_cast<uint8_t>(v >> 16);
            p_[2] = static_cast<uint8_t>(v >> 8);
            p_[3] = static_cast<uint8_t>(v);
            p_ += 4;
        }
    }

    /**
     * Store the remaining complete bytes and return the final partial
     * byte — its bits at the top, zeros below — without storing it
     * (0 when the span ends on a byte boundary).
     */
    uint8_t finish()
    {
        for (; n_ >= 8; n_ -= 8)
            *p_++ = static_cast<uint8_t>(acc_ >> (n_ - 8));
        return n_ == 0 ? 0 : static_cast<uint8_t>(acc_ << (8 - n_));
    }

  private:
    uint8_t *p_;
    uint64_t acc_ = 0;
    unsigned n_;  ///< valid low bits of acc_ not yet stored
};

/**
 * MSB-first field reader through a 64-bit window. A refill loads the
 * big-endian word at the byte holding the next unread bit; within the
 * buffer's last 8 bytes it loads only the bytes that exist and reads
 * zeros past them, so it never touches a byte at or past the buffer's
 * end. A window may hold bits past the caller's span; they are loaded
 * but never returned.
 */
class WindowReader
{
  public:
    WindowReader(const uint8_t *data, std::size_t size_bytes,
                 std::uint64_t bit_pos)
        : data_(data), size_(size_bytes), pos_(bit_pos)
    {}

    /** Read a field of 1..57 bits (a refill leaves at least 57). */
    unsigned get(unsigned width)
    {
        if (avail_ < width)
            refill();
        const auto v = static_cast<unsigned>(win_ >> (64 - width));
        win_ <<= width;
        avail_ -= width;
        return v;
    }

  private:
    void refill()
    {
        pos_ += loaded_ - avail_;
        const std::uint64_t byte = pos_ / 8;
        uint64_t w = 0;
        if (byte + 8 <= size_) {
            // Spelled out so the compiler folds it into one load + bswap.
            const uint8_t *p = data_ + byte;
            w = uint64_t(p[0]) << 56 | uint64_t(p[1]) << 48 |
                uint64_t(p[2]) << 40 | uint64_t(p[3]) << 32 |
                uint64_t(p[4]) << 24 | uint64_t(p[5]) << 16 |
                uint64_t(p[6]) << 8 | uint64_t(p[7]);
        } else {
            for (std::uint64_t i = byte; i < size_; ++i)
                w |= static_cast<uint64_t>(data_[i])
                     << (56 - 8 * (i - byte));
        }
        const unsigned skip = static_cast<unsigned>(pos_ % 8);
        win_ = w << skip;
        avail_ = loaded_ = 64 - skip;
    }

    const uint8_t *data_;
    std::size_t size_;
    std::uint64_t pos_;    ///< stream bit of the window's first bit
    uint64_t win_ = 0;     ///< unread bits, MSB first
    unsigned avail_ = 0;   ///< unread bits left in win_
    unsigned loaded_ = 0;  ///< bits win_ held after the last refill
};

/**
 * Emit tiles [begin, end) from the precomputed per-tile-channel
 * base/width stats straight into @p out, starting at absolute stream
 * bit @p bit_pos. The emission order is exactly the serial encoder's,
 * so ranges emitted at their prefix offsets compose its stream bit for
 * bit. Returns the range's final partial byte (see
 * WordEmitter::finish), which the caller merges.
 */
uint8_t
emitTileRange(const ImageU8 &img, const std::vector<TileRect> &tiles,
              const std::vector<uint8_t> &base,
              const std::vector<uint8_t> &width, std::size_t begin,
              std::size_t end, std::size_t bit_pos, uint8_t *out)
{
    WordEmitter e(out, bit_pos);
    for (std::size_t t = begin; t < end; ++t) {
        const TileRect &rect = tiles[t];
        for (int c = 0; c < 3; ++c) {
            const unsigned lo = base[3 * t + c];
            const unsigned w = width[3 * t + c];
            e.put(w, kWidthFieldBits);
            e.put(lo, kBaseBits);
            if (w == 0)
                continue;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                const uint8_t *row = img.pixel(rect.x0, y) + c;
                for (int x = 0; x < rect.w; ++x)
                    e.put(row[3 * x] - lo, w);
            }
        }
    }
    return e.finish();
}

} // namespace

void
bdTileStats(const ImageU8 &img, const TileRect &rect, uint8_t base[3],
            uint8_t width[3])
{
    uint8_t lo[3] = {255, 255, 255};
    uint8_t hi[3] = {0, 0, 0};
    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
        const uint8_t *p = img.pixel(rect.x0, y);
        for (int x = 0; x < 3 * rect.w; x += 3) {
            for (int c = 0; c < 3; ++c) {
                lo[c] = std::min(lo[c], p[x + c]);
                hi[c] = std::max(hi[c], p[x + c]);
            }
        }
    }
    for (int c = 0; c < 3; ++c) {
        base[c] = lo[c];
        width[c] = static_cast<uint8_t>(bdDeltaWidth(lo[c], hi[c]));
    }
}

const std::vector<TileRect> &
BdCodec::prepareStats(BdEncodeScratch &s, int width, int height) const
{
    if (s.tilesWidth != width || s.tilesHeight != height ||
        s.tilesSize != tileSize_) {
        s.tiles = tileGrid(width, height, tileSize_);
        s.tilesWidth = width;
        s.tilesHeight = height;
        s.tilesSize = tileSize_;
    }
    s.base.resize(s.tiles.size() * 3);
    s.width.resize(s.tiles.size() * 3);
    return s.tiles;
}

void
BdCodec::encodeInto(const ImageU8 &img, BdFrameStats *stats_out,
                    std::vector<uint8_t> &out, BdEncodeScratch *scratch,
                    ThreadPool *pool, int participants) const
{
    BdEncodeScratch local;
    BdEncodeScratch &s = scratch ? *scratch : local;
    const std::vector<TileRect> &tiles =
        prepareStats(s, img.width(), img.height());

    // Pass 1: per-tile-channel minimum and delta width.
    auto statsRange = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t t = begin; t < end; ++t)
            bdTileStats(img, tiles[t], &s.base[3 * t], &s.width[3 * t]);
    };
    {
        // Pass spans record on the dispatching thread only — worker
        // time inside parallelFor is inside the span's wall time.
        obs::TraceSpan span("bd/stats");
        if (pool != nullptr && participants > 1 && tiles.size() > 1)
            pool->parallelFor(tiles.size(), 16, participants,
                              statsRange);
        else
            statsRange(0, tiles.size(), 0);
    }
    encodeFromStats(img, stats_out, out, s, pool, participants);
}

void
BdCodec::encodeFromStats(const ImageU8 &img, BdFrameStats *stats_out,
                         std::vector<uint8_t> &out, BdEncodeScratch &s,
                         ThreadPool *pool, int participants) const
{
    const std::vector<TileRect> &tiles = s.tiles;
    const std::size_t n_tiles = tiles.size();
    const bool parallel = pool != nullptr && participants > 1 &&
                          n_tiles > 1;

    // Pass 2 (serial): exact per-tile bit offsets by prefix sum.
    BdFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.headerBits = kMagicBits + 2 * kDimBits + kTileBits;
    s.bitOffsets.resize(n_tiles + 1);
    std::size_t payload_bits = 0;
    {
        obs::TraceSpan span("bd/prefix");
        for (std::size_t t = 0; t < n_tiles; ++t) {
            s.bitOffsets[t] = payload_bits;
            const std::size_t pixels =
                static_cast<std::size_t>(tiles[t].pixelCount());
            std::size_t tile_bits = 3 * (kWidthFieldBits + kBaseBits);
            for (int c = 0; c < 3; ++c)
                tile_bits += pixels * s.width[3 * t + c];
            stats.deltaBits +=
                tile_bits - 3 * (kWidthFieldBits + kBaseBits);
            payload_bits += tile_bits;
        }
    }
    s.bitOffsets[n_tiles] = payload_bits;
    stats.metaBits = n_tiles * 3 * kWidthFieldBits;
    stats.baseBits = n_tiles * 3 * kBaseBits;

    // Pass 3: emission straight into the exactly sized output, after
    // the header. Tiles are split into contiguous chunks, each emitted
    // at its prefix offset; more chunks than slots so the dynamic
    // scheduler can rebalance around cheap (flat/foveal) runs. The
    // serial encode is one chunk.
    obs::TraceSpan emitSpan("bd/emit");
    const std::size_t total_bits = kBdStreamHeaderBits + payload_bits;
    out.resize((total_bits + 7) / 8);
    bdWriteStreamHeader(out.data(), img.width(), img.height(), tileSize_);
    const std::size_t n_chunks =
        parallel ? std::min<std::size_t>(
                       n_tiles, static_cast<std::size_t>(participants) * 4)
                 : 1;
    s.seams.resize(n_chunks);
    auto chunkTile = [&](std::size_t k) { return n_tiles * k / n_chunks; };
    auto emitChunks = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t k = begin; k < end; ++k) {
            const std::size_t t0 = chunkTile(k);
            s.seams[k] = emitTileRange(
                img, tiles, s.base, s.width, t0, chunkTile(k + 1),
                kBdStreamHeaderBits + s.bitOffsets[t0], out.data());
        }
    };
    if (parallel)
        pool->parallelFor(n_chunks, 1, participants, emitChunks);
    else
        emitChunks(0, n_chunks, 0);
    // A chunk ending mid-byte shares that byte with the next chunk,
    // which stored it with zeros above its own first bit; merge the
    // two halves here, serially, so no two participants ever write the
    // same byte. The last chunk's partial byte is the stream's final
    // byte, zero-padded below.
    for (std::size_t k = 0; k < n_chunks; ++k) {
        const std::size_t end_bit =
            kBdStreamHeaderBits + s.bitOffsets[chunkTile(k + 1)];
        if (end_bit % 8 == 0)
            continue;
        uint8_t &shared = out[end_bit / 8];
        shared = static_cast<uint8_t>(
            (k + 1 < n_chunks ? shared : 0) | s.seams[k]);
    }
    emitSpan.end();
    if (stats_out)
        *stats_out = stats;
}

ImageU8
BdCodec::decode(const std::vector<uint8_t> &stream)
{
    ImageU8 img;
    decodeInto(stream, img);
    return img;
}

std::uint64_t
BdCodec::walkTileRange(const std::uint8_t *data, std::size_t size_bytes,
                       const std::vector<TileRect> &tiles,
                       std::size_t tile_begin, std::size_t tile_end,
                       std::uint64_t payload_bit_begin,
                       std::size_t *offsets_out)
{
    const std::uint64_t stream_bits =
        static_cast<std::uint64_t>(size_bytes) * 8;
    BitReader hdr(data, size_bytes);
    std::uint64_t offset = payload_bit_begin;
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
        if (offsets_out)
            offsets_out[t - tile_begin] =
                static_cast<std::size_t>(offset);
        const std::uint64_t pixels =
            static_cast<std::uint64_t>(tiles[t].pixelCount());
        for (int c = 0; c < 3; ++c) {
            const std::uint64_t field_pos =
                kBdStreamHeaderBits + offset;
            if (field_pos + kWidthFieldBits + kBaseBits > stream_bits)
                throw std::runtime_error(
                    "BdCodec::decode: stream truncated mid-tile");
            // Only the 4-bit width field is read (getBits' two-byte
            // fast path); bases and deltas are stepped over
            // arithmetically.
            hdr.seek(static_cast<std::size_t>(field_pos));
            const unsigned width = hdr.getBits(kWidthFieldBits);
            if (width > 8)
                throw std::runtime_error(
                    "BdCodec::decode: delta width field exceeds 8 "
                    "bits");
            offset += kWidthFieldBits + kBaseBits + pixels * width;
            if (kBdStreamHeaderBits + offset > stream_bits)
                throw std::runtime_error(
                    "BdCodec::decode: stream truncated mid-tile");
        }
    }
    if (offsets_out)
        offsets_out[tile_end - tile_begin] =
            static_cast<std::size_t>(offset);
    return offset;
}

void
BdCodec::decodeTileRangeInto(const std::uint8_t *data,
                             std::size_t size_bytes,
                             const std::vector<TileRect> &tiles,
                             std::size_t tile_begin,
                             std::size_t tile_end,
                             std::uint64_t payload_bit_begin,
                             ImageU8 &out)
{
    WindowReader br(data, size_bytes,
                    kBdStreamHeaderBits + payload_bit_begin);
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
        const TileRect &rect = tiles[t];
        for (int c = 0; c < 3; ++c) {
            const unsigned width = br.get(kWidthFieldBits);
            const unsigned base = br.get(kBaseBits);
            if (width == 0) {
                // Flat channel (the cheap "case 2" tiles): no delta
                // bits to read, just splat the base.
                for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                    uint8_t *row = out.pixel(rect.x0, y);
                    for (int x = 0; x < rect.w; ++x)
                        row[3 * x + c] = static_cast<uint8_t>(base);
                }
                continue;
            }
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                uint8_t *row = out.pixel(rect.x0, y);
                for (int x = 0; x < rect.w; ++x)
                    row[3 * x + c] =
                        static_cast<uint8_t>(base + br.get(width));
            }
        }
    }
}

void
BdCodec::decodeInto(const std::vector<uint8_t> &stream, ImageU8 &out,
                    BdDecodeScratch *scratch, ThreadPool *pool,
                    int participants, std::uint64_t max_pixels,
                    bool duplicate_validate)
{
    // Header checks first, before any buffer scales with the claimed
    // geometry: the tile grid and offset arrays built next are
    // O(stream), never O(claimed dimensions).
    const BdStreamHeader hdr =
        bdReadStreamHeader(stream.data(), stream.size(), max_pixels);

    BdDecodeScratch local;
    BdDecodeScratch &s = scratch ? *scratch : local;
    if (s.tilesWidth != hdr.width || s.tilesHeight != hdr.height ||
        s.tilesSize != hdr.tileSize) {
        s.tiles = tileGrid(hdr.width, hdr.height, hdr.tileSize);
        s.tilesWidth = hdr.width;
        s.tilesHeight = hdr.height;
        s.tilesSize = hdr.tileSize;
    }
    const std::size_t n_tiles = s.tiles.size();

    // Pass 1 (serial): validate every per-tile-channel record and turn
    // the width fields into the exclusive prefix of per-tile payload
    // bit offsets — the exact dual of the encoder's prefix pass. Only
    // the 12-bit meta fields are read; delta blocks are stepped over
    // arithmetically.
    auto walkPrefix =
        [&](std::vector<std::size_t> &offsets) -> std::uint64_t {
        offsets.resize(n_tiles + 1);
        return walkTileRange(stream.data(), stream.size(), s.tiles, 0,
                             n_tiles, 0, offsets.data());
    };
    const std::uint64_t offset = walkPrefix(s.bitOffsets);

    if (duplicate_validate) {
        // Selective-EDDI: the walk above is the one serial stage whose
        // output (the offset table) every later tile read trusts
        // blindly. Re-run it into an independent buffer and compare;
        // any disagreement — an SEU in the accumulator, the table, or
        // the stream bytes between walks — is a detected error instead
        // of a silently shifted decode.
        if (s.prefixFaultHook)
            s.prefixFaultHook(s.bitOffsets);
        const std::uint64_t dup_offset = walkPrefix(s.dupOffsets);
        if (dup_offset != offset || s.dupOffsets != s.bitOffsets)
            throw std::runtime_error(
                "BdCodec::decode: duplicated validate pass disagrees "
                "(prefix fault detected)");
    }

    // The stream must be exactly the header + payload padded to a byte
    // boundary with zero bits: a longer buffer is trailing garbage, and
    // nonzero padding is garbage smuggled below the byte count.
    const std::uint64_t total_bits = kBdStreamHeaderBits + offset;
    if ((total_bits + 7) / 8 != stream.size())
        throw std::runtime_error(
            "BdCodec::decode: stream length disagrees with payload "
            "(trailing garbage)");
    if (total_bits % 8 != 0) {
        const unsigned pad = 8 - static_cast<unsigned>(total_bits % 8);
        if (stream.back() & ((1u << pad) - 1u))
            throw std::runtime_error(
                "BdCodec::decode: nonzero padding bits");
    }

    // Pass 2: tile decode, parallel over the validated offsets. Tiles
    // are disjoint pixel ranges, so the output is byte-identical for
    // any participant count. Reallocate only on geometry change; every
    // byte of the image is overwritten below.
    if (out.width() != hdr.width || out.height() != hdr.height)
        out = ImageU8(hdr.width, hdr.height);
    const uint8_t *data = stream.data();
    const std::size_t size = stream.size();
    auto decodeRange = [&](std::size_t begin, std::size_t end, int) {
        decodeTileRangeInto(data, size, s.tiles, begin, end,
                            s.bitOffsets[begin], out);
    };
    const bool parallel =
        pool != nullptr && participants > 1 && n_tiles > 1;
    if (parallel)
        pool->parallelFor(n_tiles, 16, participants, decodeRange);
    else
        decodeRange(0, n_tiles, 0);
}

BdFrameStats
BdCodec::analyze(const ImageU8 &img) const
{
    BdFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.headerBits = kMagicBits + 2 * kDimBits + kTileBits;
    for (const TileRect &rect :
         tileGrid(img.width(), img.height(), tileSize_)) {
        for (int c = 0; c < 3; ++c) {
            const BdChannelStats s = analyzeTileChannel(img, rect, c);
            stats.baseBits += s.baseBits;
            stats.metaBits += s.metaBits;
            stats.deltaBits += s.deltaBits;
        }
    }
    return stats;
}

} // namespace pce

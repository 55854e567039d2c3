#include "bd/bd_codec.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "common/env.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PCE_BD_BMI2 1
#endif
#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace pce {

namespace {

constexpr unsigned kWidthFieldBits = kBdWidthFieldBits;
constexpr unsigned kBaseBits = kBdBaseBits;

} // namespace

bool
bdGeometryValid(std::uint64_t width, std::uint64_t height,
                std::uint64_t tile_size, std::uint64_t max_pixels)
{
    return width >= 1 && width <= 0xFFFF && height >= 1 &&
           height <= 0xFFFF && tile_size >= 1 && tile_size <= 255 &&
           width * height <= max_pixels;
}

BdPayloadBounds
bdPayloadBounds(const TileGrid &g, const BdStreamFormat &fmt)
{
    const std::uint64_t floor = g.count() * 3 * fmt.minTileChannelBits;
    return {floor, floor + static_cast<std::uint64_t>(g.width) *
                               static_cast<std::uint64_t>(g.height) * 24};
}

void
bdCheckStreamEnd(const std::uint8_t *data, std::size_t size_bytes,
                 std::uint64_t payload_bits)
{
    if (bdStreamBytes(payload_bits) != size_bytes)
        throw std::runtime_error("BD stream: length disagrees with payload");
    const unsigned used =
        static_cast<unsigned>((kBdStreamHeaderBits + payload_bits) % 8);
    if (used != 0 && (data[size_bytes - 1] & ((1u << (8 - used)) - 1u)))
        throw std::runtime_error("BD stream: nonzero padding bits");
}

void
bdWriteStreamHeader(std::uint8_t *out8, int width, int height,
                    int tile_size, const BdStreamFormat &fmt)
{
    // A negative value converts to a huge one, which the rule rejects.
    if (!bdGeometryValid(width, height, tile_size, ~std::uint64_t(0)))
        throw std::invalid_argument(
            "bdWriteStreamHeader: geometry out of header range");
    const uint8_t header[kBdStreamHeaderBits / 8] = {
        static_cast<uint8_t>(fmt.magic >> 16),
        static_cast<uint8_t>(fmt.magic >> 8),
        static_cast<uint8_t>(fmt.magic),
        static_cast<uint8_t>(width >> 8),
        static_cast<uint8_t>(width),
        static_cast<uint8_t>(height >> 8),
        static_cast<uint8_t>(height),
        static_cast<uint8_t>(tile_size)};
    std::memcpy(out8, header, sizeof header);
}

TileGrid
bdReadStreamHeader(const std::uint8_t *data, std::size_t size_bytes,
                   std::uint64_t max_pixels, const BdStreamFormat &fmt)
{
    if (size_bytes < kBdStreamHeaderBits / 8)
        throw std::runtime_error(
            "bdReadStreamHeader: stream shorter than header");
    if ((std::uint32_t(data[0]) << 16 | data[1] << 8 | data[2]) !=
        fmt.magic)
        throw std::runtime_error("bdReadStreamHeader: bad magic");
    const TileGrid g{data[3] << 8 | data[4], data[5] << 8 | data[6],
                     data[7]};
    // The pixel cap is the decompression-bomb guard: flat tiles
    // compress so well that a huge frame can be *honestly* described by
    // a tiny stream, so no consistency check bounds the output size —
    // only this cap does.
    if (!bdGeometryValid(g.width, g.height, g.tileSize, max_pixels))
        throw std::runtime_error(
            "bdReadStreamHeader: bad geometry or frame over the decode "
            "pixel cap");
    // A stream below the payload floor cannot describe the claimed
    // frame; this bounds the tile count by the actual stream size.
    if (bdPayloadBounds(g, fmt).minBits >
        static_cast<std::uint64_t>(size_bytes) * 8 - kBdStreamHeaderBits)
        throw std::runtime_error(
            "bdReadStreamHeader: stream too short for header "
            "dimensions");
    return g;
}

int
bdPassParticipants(const ThreadPool *pool, int participants,
                   std::size_t n_tiles)
{
    if (pool == nullptr)
        return 1;
    const std::size_t cap = n_tiles / kBdMinTilesPerParticipant;
    return static_cast<int>(std::clamp<std::size_t>(
        cap, 1, static_cast<std::size_t>(std::max(participants, 1))));
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

BdCodec::BdCodec(int tile_size, BdBitPath bit_path)
    : tileSize_(tile_size), bitPath_(effectiveBdBitPath(bit_path))
{
    if (!bdGeometryValid(1, 1, tile_size, 1))  // the tile range
        throw std::invalid_argument("BdCodec: tile size out of range");
}

std::vector<uint8_t>
BdCodec::encode(const ImageU8 &img, BdFrameStats *stats_out) const
{
    std::vector<uint8_t> out;
    encodeInto(img, stats_out, out);
    return out;
}

namespace {

inline uint64_t
byteSwap(uint64_t v)
{
    return __builtin_bswap64(v);
}

inline uint32_t
byteSwap(uint32_t v)
{
    return __builtin_bswap32(v);
}

/**
 * Unaligned 64- and 32-bit loads and stores in a fixed byte order, on
 * any host: big-endian for the MSB-first stream, little-endian for
 * pixel rows (byte i of a word is pixel i).
 */
template <typename T>
inline T
load(const uint8_t *p, std::endian order)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return order == std::endian::native ? v : byteSwap(v);
}

template <typename T>
inline void
store(uint8_t *p, T v, std::endian order)
{
    v = order == std::endian::native ? v : byteSwap(v);
    std::memcpy(p, &v, sizeof v);
}

/** One byte per lane: @p b in each of the eight bytes. */
inline uint64_t
splat8(unsigned b)
{
    return 0x0101010101010101ull * b;
}

/** Per-byte a + b, each byte wrapping mod 256 like a uint8_t cast. */
inline uint64_t
addBytes(uint64_t a, uint64_t b)
{
    constexpr uint64_t kHigh = 0x8080808080808080ull;
    return ((a & ~kHigh) + (b & ~kHigh)) ^ ((a ^ b) & kHigh);
}

/**
 * The one dispatched step of the tile pass, between eight w-bit fields
 * of one word (field k at bits [k w, k w + w)) and the low w bits of
 * eight bytes (field k in byte k): BMI2 pdep / pext with a mask of the
 * low w bits of each byte, or this shift ladder, which computes the
 * same words in three halving steps (8 fields to two 4-field halves in
 * 32-bit lanes, to pairs in 16-bit lanes, to bytes). The stream is MSB
 * first, so a group's first field is the top one; the callers
 * byte-swap to put it in byte 0.
 */
struct PortableFields
{
    /** The low @p bits bits of each lane whose lowest bit is set in
     *  @p lane_ones. */
    static uint64_t lanes(unsigned bits, uint64_t lane_ones)
    {
        return ((uint64_t(1) << bits) - 1) * lane_ones;
    }

    static uint64_t deposit(uint64_t v, unsigned w)
    {
        const uint64_t m32 = lanes(2 * w, 0x0000000100000001ull);
        const uint64_t m16 = lanes(w, 0x0001000100010001ull);
        v = (v & ((uint64_t(1) << 4 * w) - 1)) | (v >> 4 * w) << 32;
        v = (v & m32) | (v >> 2 * w & m32) << 16;
        return (v & m16) | (v >> w & m16) << 8;
    }

    static uint64_t extract(uint64_t x, unsigned w)
    {
        const uint64_t m32 = lanes(2 * w, 0x0000000100000001ull);
        const uint64_t m16 = lanes(w, 0x0001000100010001ull);
        x &= lanes(w, 0x0101010101010101ull);
        x = (x & m16) | (x >> 8 & m16) << w;
        x = (x & m32) | (x >> 16 & m32) << 2 * w;
        return (x & 0xffffffffu) | (x >> 32) << 4 * w;
    }
};

#ifdef PCE_BD_BMI2
struct Bmi2Fields
{
    __attribute__((target("bmi2"))) static uint64_t
    deposit(uint64_t v, unsigned w)
    {
        return _pdep_u64(v, splat8((1u << w) - 1));
    }

    __attribute__((target("bmi2"))) static uint64_t
    extract(uint64_t x, unsigned w)
    {
        return _pext_u64(x, splat8((1u << w) - 1));
    }
};

/** CPUID, once: BMI2, on a core where pdep / pext are not microcoded. */
bool
hasFastBmi2()
{
    // AMD Zen 1 and 2 run pdep / pext in microcode, at a cost that
    // grows with the mask's set bits: far slower than the shift ladder.
    static const bool ok = __builtin_cpu_supports("bmi2") &&
                           !__builtin_cpu_is("znver1") &&
                           !__builtin_cpu_is("znver2");
    return ok;
}
#endif

/**
 * Eight pixels' bytes of one channel from a group of @p k (1..8)
 * w-bit deltas, @p v holding them right-aligned, the first at the top:
 * byte i = base + delta i (mod 256) for i < k; bytes from k up are
 * base.
 */
template <class F>
inline uint64_t
unpackGroup(uint64_t v, unsigned k, unsigned w, uint64_t base8)
{
    const uint64_t fields = F::deposit(v << ((8 - k) * w), w);
    return addBytes(byteSwap(fields), base8);
}

/**
 * The inverse: the first @p k bytes of @p bytes minus @p base8 (each
 * at least its base, so none borrows), as k w-bit deltas right-aligned,
 * the first at the top. Bytes from k up may hold anything: a borrow
 * there only runs upward, and their fields are shifted out.
 */
template <class F>
inline uint64_t
packGroup(uint64_t bytes, unsigned k, unsigned w, uint64_t base8)
{
    return F::extract(byteSwap(bytes - base8), w) >>
           ((8 - k) * w);
}

/**
 * MSB-first field emitter writing straight into a caller-sized buffer.
 * Fields collect in a 64-bit accumulator and leave it 64 bits at a
 * time as one big-endian store, so a store to the output only ever
 * holds bits this emitter was given: it never touches a byte past the
 * last complete byte of the emitter's span.
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

    /** Append @p value (< 2^width, width 0..64) MSB first. */
    void put(uint64_t value, unsigned width)
    {
        const unsigned room = 64 - n_;  // 1..64
        if (width < room) {
            acc_ |= value << ((room - width) & 63);
            n_ += width;
            return;
        }
        const unsigned over = width - room;  // bits for the next word
        store<uint64_t>(p_, acc_ | value >> over, std::endian::big);
        p_ += 8;
        n_ = over;
        acc_ = value << (63 - over) << 1;
    }

    /**
     * Store the remaining complete bytes and return the final partial
     * byte — its bits at the top, zeros below — without storing it
     * (0 when the span ends on a byte boundary).
     */
    uint8_t finish()
    {
        for (; n_ >= 8; n_ -= 8, acc_ <<= 8)
            *p_++ = static_cast<uint8_t>(acc_ >> 56);
        return n_ == 0 ? 0 : static_cast<uint8_t>(acc_ >> 56);
    }

  private:
    uint8_t *p_;
    uint64_t acc_ = 0;  ///< pending bits, MSB first
    unsigned n_;        ///< pending bits in acc_, 0..63
};

/**
 * Random-access MSB-first reader of fields of up to 64 bits. A read
 * loads the 9 bytes from the byte holding its first bit. get() checks
 * the buffer's end: within its last 9 bytes it copies the bytes that
 * exist into a zeroed block first, so no load reaches a byte at or past
 * the end. window() loads straight from the buffer, for callers that
 * checked inBulk() first. Bits past a field are loaded but shifted out,
 * never returned.
 */
class BitSource
{
  public:
    BitSource(const uint8_t *data, std::size_t size_bytes)
        : data_(data), size_(size_bytes)
    {}

    /** Whether window() may read from every bit up to @p last_pos. */
    bool inBulk(std::uint64_t last_pos) const
    {
        return last_pos / 8 + 9 <= size_;
    }

    /** The 64 stream bits from bit @p pos; inBulk(pos) must hold. */
    uint64_t window(std::uint64_t pos) const
    {
        return windowAt(data_ + pos / 8, static_cast<unsigned>(pos % 8));
    }

    /**
     * The 57 or more stream bits from bit @p pos at the top, from one
     * 8-byte load (bits past them are zeros); inBulk(pos) must hold.
     */
    uint64_t window57(std::uint64_t pos) const
    {
        return load<uint64_t>(data_ + pos / 8, std::endian::big)
               << (pos % 8);
    }

    /** The @p width (0..64) stream bits from bit @p pos. */
    uint64_t get(std::uint64_t pos, unsigned width) const
    {
        const std::uint64_t byte = pos / 8;
        uint8_t block[9] = {};
        const uint8_t *p = block;
        if (byte + 9 <= size_)
            p = data_ + byte;
        else if (byte < size_)
            std::memcpy(block, data_ + byte, size_ - byte);
        const uint64_t win = windowAt(p, static_cast<unsigned>(pos % 8));
        return (win >> ((64 - width) & 63)) & -uint64_t(width != 0);
    }

  private:
    static uint64_t windowAt(const uint8_t *p, unsigned skip)
    {
        return load<uint64_t>(p, std::endian::big) << skip |
               uint64_t(p[8]) >> (8 - skip);
    }

    const uint8_t *data_;
    std::size_t size_;
};

[[noreturn]] __attribute__((noinline)) void
throwWideField()
{
    throw std::runtime_error(
        "BdCodec::decodeTileRangeInto: delta width field exceeds 8 bits "
        "(range not validated by walkTileRange)");
}

/** A tile-channel's 12-bit record head: the delta width, the base. */
struct ChannelHead
{
    unsigned width;
    unsigned base;
};

inline ChannelHead
readHead(const BitSource &src, std::uint64_t &pos)
{
    const auto head = static_cast<unsigned>(
        src.get(pos, kWidthFieldBits + kBaseBits));
    pos += kWidthFieldBits + kBaseBits;
    const ChannelHead h{head >> kBaseBits, head & 0xffu};
    if (h.width > 8)
        throwWideField();
    return h;
}

/** The longest record of a 4x4 tile: three 8-bit-wide channels. */
constexpr unsigned kTile4MaxBits =
    3 * (kWidthFieldBits + kBaseBits + 16 * 8);

#ifdef __SSE2__
/**
 * Decode one full 4x4 tile at stream bit @p pos into the rows from
 * @p row0 (@p stride bytes apart); returns the bit after it. The
 * caller checked src.inBulk(pos + kTile4MaxBits). Each channel's 16
 * deltas are two 8-field groups (a flat channel deposits two empty
 * ones), one paddb adds its base, and each row's three channels
 * interleave into 12 bytes.
 */
template <class F>
std::uint64_t
decodeTile4(const BitSource &src, std::uint64_t pos, uint8_t *row0,
            std::size_t stride)
{
    __m128i ch[3];  // channel c's pixels 0..15, row-major
#pragma GCC unroll 3
    for (int c = 0; c < 3; ++c) {
        const auto head = static_cast<unsigned>(src.window57(pos) >> 52);
        const unsigned w = head >> kBaseBits;
        if (w > 8)
            throwWideField();
        pos += kWidthFieldBits + kBaseBits;
        // At w = 0 the window's bits are arbitrary, and the empty
        // deposit mask drops them.
        const unsigned bits = 8 * w;
        const unsigned drop = (64 - bits) & 63;
        const uint64_t rows01 = F::deposit(src.window(pos) >> drop, w);
        const uint64_t rows23 =
            F::deposit(src.window(pos + bits) >> drop, w);
        pos += 2 * bits;
        const auto base8 = static_cast<long long>(splat8(head & 0xffu));
        ch[c] = _mm_add_epi8(
            _mm_set_epi64x(static_cast<long long>(byteSwap(rows23)),
                           static_cast<long long>(byteSwap(rows01))),
            _mm_set1_epi64x(base8));
    }
    // Pixels as RGBX words, one row of four per register.
    const __m128i zero = _mm_setzero_si128();
    const __m128i rg01 = _mm_unpacklo_epi8(ch[0], ch[1]);
    const __m128i rg23 = _mm_unpackhi_epi8(ch[0], ch[1]);
    const __m128i bx01 = _mm_unpacklo_epi8(ch[2], zero);
    const __m128i bx23 = _mm_unpackhi_epi8(ch[2], zero);
    const __m128i rgbx[4] = {
        _mm_unpacklo_epi16(rg01, bx01), _mm_unpackhi_epi16(rg01, bx01),
        _mm_unpacklo_epi16(rg23, bx23), _mm_unpackhi_epi16(rg23, bx23)};
    const __m128i low24 = _mm_set1_epi64x(0xffffff);
#pragma GCC unroll 4
    for (int y = 0; y < 4; ++y) {
        // Drop each X byte: a 64-bit lane's two pixels become its low
        // 6 bytes, then the high lane's 6 follow the low lane's.
        const __m128i p = rgbx[y];
        const __m128i q = _mm_or_si128(
            _mm_and_si128(p, low24),
            _mm_andnot_si128(low24, _mm_srli_epi64(p, 8)));
        const auto lo = static_cast<uint64_t>(_mm_cvtsi128_si64(q));
        const auto hi = static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(q, q)));
        uint8_t *row = row0 + y * stride;
        store<uint64_t>(row, lo | hi << 48, std::endian::little);
        store<uint32_t>(row + 8, static_cast<uint32_t>(hi >> 16),
                        std::endian::little);
    }
    return pos;
}
#endif

/**
 * Full 4x4 tiles from @p rect to the end of its tile row, at most
 * @p left; 0 unless @p rect is a full tile of a tile-4 grid. They lie
 * 12 bytes apart, so the tile passes step a pointer through them: a
 * rect per tile spills around the tile kernels.
 */
inline std::size_t
tile4Run(const TileGrid &grid, const TileRect &rect, std::size_t left)
{
    if (grid.tileSize != 4 || rect.w != 4 || rect.h != 4)
        return 0;
    return std::min<std::size_t>(left, (grid.width - rect.x0) / 4);
}

/** decodeTile4 for a tile of any shape: one byte store per sample. */
template <class F>
std::uint64_t
decodeTileAny(const BitSource &src, std::uint64_t pos, ImageU8 &out,
              const TileRect &rect)
{
    const std::size_t stride = static_cast<std::size_t>(out.width()) * 3;
    const std::size_t n = static_cast<std::size_t>(rect.pixelCount());
    uint8_t *const data = out.data().data();
    for (int c = 0; c < 3; ++c) {
        const ChannelHead h = readHead(src, pos);
        const uint64_t base8 = splat8(h.base);
        std::size_t row = out.pixel(rect.x0, rect.y0) - data + c;
        int x = 0;
        for (std::size_t i = 0; i < n; i += 8) {
            const auto k =
                static_cast<unsigned>(std::min<std::size_t>(8, n - i));
            uint64_t bytes = unpackGroup<F>(src.get(pos, k * h.width), k,
                                            h.width, base8);
            pos += k * h.width;
            for (unsigned j = 0; j < k; ++j, bytes >>= 8) {
                data[row + 3 * x] = static_cast<uint8_t>(bytes);
                if (++x == rect.w) {
                    x = 0;
                    row += stride;
                }
            }
        }
    }
    return pos;
}

/** The tile pass of BdCodec::decodeTileRangeInto on one bit path. */
template <class F>
void
decodeTiles(const uint8_t *data, std::size_t size_bytes,
            TileGrid grid, std::size_t begin, std::size_t end,
            std::uint64_t pos, ImageU8 &out)
{
    const BitSource src(data, size_bytes);
    [[maybe_unused]] const std::size_t stride =
        static_cast<std::size_t>(out.width()) * 3;
    TileRect rect = grid.rect(begin);
    for (std::size_t t = begin; t < end; ++t, rect = grid.next(rect)) {
#ifdef __SSE2__
        const std::size_t run = tile4Run(grid, rect, end - t);
        uint8_t *const px = out.pixel(rect.x0, rect.y0);
        std::size_t k = 0;
        for (; k < run && src.inBulk(pos + kTile4MaxBits); ++k)
            pos = decodeTile4<F>(src, pos, px + 12 * k, stride);
        if (k > 0) {  // next() resumes after the run's last tile
            t += k - 1;
            rect.x0 += 4 * static_cast<int>(k - 1);
            continue;
        }
#endif
        pos = decodeTileAny<F>(src, pos, out, rect);
    }
}

#ifdef __SSE2__
/**
 * Emit one full 4x4 tile of @p img whose top-left pixel is at @p row0
 * (rows @p stride bytes apart), with per-channel bases and widths:
 * each row's 12 bytes spread into RGBX words, the channels split out
 * as 16 bytes each, and each channel packed as two 8-field groups (a
 * flat channel packs two empty ones).
 */
template <class F>
void
emitTile4(WordEmitter &e, const uint8_t *row0, std::size_t stride,
          const uint8_t *base, const uint8_t *width)
{
    const __m128i low24 = _mm_set1_epi64x(0xffffff);
    __m128i rgbx[4];  // each row's pixels as 32-bit words
#pragma GCC unroll 4
    for (int y = 0; y < 4; ++y) {
        // Row bytes 0..7 and 6..13 in the two 64-bit lanes (bytes 12
        // and 13 are zeros), then each lane's two pixels to 32 bits
        // each. Their top bytes hold leftovers, which the channel
        // masks below drop.
        const uint8_t *row = row0 + y * stride;
        const __m128i r = _mm_unpacklo_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(row)),
            _mm_cvtsi32_si128(static_cast<int>(
                load<uint32_t>(row + 8, std::endian::native))));
        const __m128i pairs =
            _mm_unpacklo_epi64(r, _mm_srli_si128(r, 6));
        rgbx[y] = _mm_or_si128(
            _mm_and_si128(pairs, low24),
            _mm_andnot_si128(low24, _mm_slli_epi64(pairs, 8)));
    }
    const __m128i ff = _mm_set1_epi32(0xff);
    const auto channel = [&](int shift) {
        const auto take = [&](int y) {
            return _mm_and_si128(_mm_srli_epi32(rgbx[y], shift), ff);
        };
        return _mm_packus_epi16(_mm_packs_epi32(take(0), take(1)),
                                _mm_packs_epi32(take(2), take(3)));
    };
    const __m128i ch[3] = {channel(0), channel(8), channel(16)};
#pragma GCC unroll 3
    for (int c = 0; c < 3; ++c) {
        const unsigned w = width[c];
        e.put(w << kBaseBits | base[c], kWidthFieldBits + kBaseBits);
        const uint64_t base8 = splat8(base[c]);
        const auto rows01 =
            static_cast<uint64_t>(_mm_cvtsi128_si64(ch[c]));
        const auto rows23 = static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(ch[c], ch[c])));
        e.put(packGroup<F>(rows01, 8, w, base8), 8 * w);
        e.put(packGroup<F>(rows23, 8, w, base8), 8 * w);
    }
}
#endif

/** emitTile4 for a tile of any shape: one byte load per sample. */
template <class F>
void
emitTileAny(WordEmitter &e, const ImageU8 &img, const TileRect &rect,
            const uint8_t *base, const uint8_t *width)
{
    const std::size_t stride = static_cast<std::size_t>(img.width()) * 3;
    const std::size_t n = static_cast<std::size_t>(rect.pixelCount());
    const uint8_t *const data = img.data().data();
    for (int c = 0; c < 3; ++c) {
        const unsigned w = width[c];
        e.put(w << kBaseBits | base[c], kWidthFieldBits + kBaseBits);
        if (w == 0)
            continue;
        const uint64_t base8 = splat8(base[c]);
        std::size_t row = img.pixel(rect.x0, rect.y0) - data + c;
        int x = 0;
        for (std::size_t i = 0; i < n; i += 8) {
            const auto k =
                static_cast<unsigned>(std::min<std::size_t>(8, n - i));
            uint64_t bytes = 0;
            for (unsigned j = 0; j < k; ++j) {
                bytes |= uint64_t(data[row + 3 * x]) << (8 * j);
                if (++x == rect.w) {
                    x = 0;
                    row += stride;
                }
            }
            e.put(packGroup<F>(bytes, k, w, base8), k * w);
        }
    }
}

/**
 * Emit tiles [begin, end) from the precomputed per-tile-channel
 * base/width stats straight into @p out, starting at absolute stream
 * bit @p bit_pos. The emission order is exactly the serial encoder's,
 * so ranges emitted at their prefix offsets compose its stream bit for
 * bit. Returns the range's final partial byte (see
 * WordEmitter::finish), which the caller merges.
 */
template <class F>
uint8_t
emitTiles(const ImageU8 &img, TileGrid grid, const uint8_t *base,
          const uint8_t *width, std::size_t begin, std::size_t end,
          std::size_t bit_pos, uint8_t *out)
{
    WordEmitter e(out, bit_pos);
    [[maybe_unused]] const std::size_t stride =
        static_cast<std::size_t>(img.width()) * 3;
    TileRect rect = grid.rect(begin);
    for (std::size_t t = begin; t < end; ++t, rect = grid.next(rect)) {
#ifdef __SSE2__
        if (const std::size_t run = tile4Run(grid, rect, end - t)) {
            const uint8_t *const px = img.pixel(rect.x0, rect.y0);
            for (std::size_t k = 0; k < run; ++k)
                emitTile4<F>(e, px + 12 * k, stride, base + 3 * (t + k),
                             width + 3 * (t + k));
            t += run - 1;
            rect.x0 += 4 * static_cast<int>(run - 1);
            continue;
        }
#endif
        emitTileAny<F>(e, img, rect, base + 3 * t, width + 3 * t);
    }
    return e.finish();
}

#ifdef PCE_BD_BMI2
// The BMI2 instantiations: flatten inlines the whole pass, so pdep /
// pext run inline in a function compiled for BMI2.
__attribute__((target("bmi2"), flatten)) void
decodeTilesBmi2(const uint8_t *data, std::size_t size_bytes,
                TileGrid grid, std::size_t begin, std::size_t end,
                std::uint64_t pos, ImageU8 &out)
{
    decodeTiles<Bmi2Fields>(data, size_bytes, grid, begin, end, pos, out);
}

__attribute__((target("bmi2"), flatten)) uint8_t
emitTilesBmi2(const ImageU8 &img, TileGrid grid, const uint8_t *base,
              const uint8_t *width, std::size_t begin, std::size_t end,
              std::size_t bit_pos, uint8_t *out)
{
    return emitTiles<Bmi2Fields>(img, grid, base, width, begin, end,
                                 bit_pos, out);
}
#endif

} // namespace

const char *
bdBitPathName(BdBitPath path)
{
    return path == BdBitPath::Bmi2 ? "bmi2" : "portable";
}

BdBitPath
effectiveBdBitPath(BdBitPath requested)
{
#ifdef PCE_BD_BMI2
    if (requested == BdBitPath::Bmi2 && hasFastBmi2())
        return BdBitPath::Bmi2;
#endif
    (void)requested;
    return BdBitPath::Portable;
}

BdBitPath
activeBdBitPath()
{
    static const BdBitPath path = envSimdOff()
                                      ? BdBitPath::Portable
                                      : effectiveBdBitPath(BdBitPath::Bmi2);
    return path;
}

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

TileGrid
BdCodec::prepareStats(BdEncodeScratch &s, int width, int height) const
{
    const TileGrid grid{width, height, tileSize_};
    s.base.resize(grid.count() * 3);
    s.width.resize(grid.count() * 3);
    return grid;
}

void
BdCodec::encodeInto(const ImageU8 &img, BdFrameStats *stats_out,
                    std::vector<uint8_t> &out, BdEncodeScratch *scratch,
                    ThreadPool *pool, int participants) const
{
    BdEncodeScratch local;
    BdEncodeScratch &s = scratch ? *scratch : local;
    const TileGrid grid = prepareStats(s, img.width(), img.height());
    const std::size_t n_tiles = grid.count();

    // Pass 1: per-tile-channel minimum and delta width.
    auto statsRange = [&](std::size_t begin, std::size_t end, int) {
        TileRect rect = grid.rect(begin);
        for (std::size_t t = begin; t < end; ++t, rect = grid.next(rect))
            bdTileStats(img, rect, &s.base[3 * t], &s.width[3 * t]);
    };
    {
        // Pass spans record on the dispatching thread only — worker
        // time inside parallelFor is inside the span's wall time.
        obs::TraceSpan span("bd/stats");
        const int p = bdPassParticipants(pool, participants, n_tiles);
        if (p > 1)
            pool->parallelFor(n_tiles, 16, p, statsRange);
        else
            statsRange(0, n_tiles, 0);
    }
    encodeFromStats(img, stats_out, out, s, pool, participants);
}

void
BdCodec::encodeFromStats(const ImageU8 &img, BdFrameStats *stats_out,
                         std::vector<uint8_t> &out, BdEncodeScratch &s,
                         ThreadPool *pool, int participants) const
{
    const TileGrid grid{img.width(), img.height(), tileSize_};
    const std::size_t n_tiles = grid.count();
    const int p = bdPassParticipants(pool, participants, n_tiles);

    // Pass 2 (serial): exact per-tile bit offsets by prefix sum.
    BdFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.headerBits = kBdStreamHeaderBits;
    s.bitOffsets.resize(n_tiles + 1);
    std::size_t payload_bits = 0;
    {
        obs::TraceSpan span("bd/prefix");
        TileRect rect = grid.rect(0);
        for (std::size_t t = 0; t < n_tiles; ++t, rect = grid.next(rect)) {
            s.bitOffsets[t] = payload_bits;
            const std::size_t pixels =
                static_cast<std::size_t>(rect.pixelCount());
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
    out.resize(bdStreamBytes(payload_bits));
    bdWriteStreamHeader(out.data(), img.width(), img.height(), tileSize_);
    const std::size_t n_chunks =
        p > 1 ? std::min<std::size_t>(n_tiles,
                                      static_cast<std::size_t>(p) * 4)
              : 1;
    s.seams.resize(n_chunks);
    auto chunkTile = [&](std::size_t k) { return n_tiles * k / n_chunks; };
    auto emitChunks = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t k = begin; k < end; ++k) {
            const std::size_t t0 = chunkTile(k);
            const std::size_t t1 = chunkTile(k + 1);
            const std::size_t bit = kBdStreamHeaderBits + s.bitOffsets[t0];
#ifdef PCE_BD_BMI2
            if (bitPath_ == BdBitPath::Bmi2) {
                s.seams[k] = emitTilesBmi2(img, grid, s.base.data(),
                                           s.width.data(), t0, t1, bit,
                                           out.data());
                continue;
            }
#endif
            s.seams[k] = emitTiles<PortableFields>(
                img, grid, s.base.data(), s.width.data(), t0, t1, bit,
                out.data());
        }
    };
    if (p > 1)
        pool->parallelFor(n_chunks, 1, p, emitChunks);
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
                       const TileGrid &grid, std::size_t tile_begin,
                       std::size_t tile_end,
                       std::uint64_t payload_bit_begin,
                       std::size_t *offsets_out)
{
    const std::uint64_t stream_bits =
        static_cast<std::uint64_t>(size_bytes) * 8;
    std::uint64_t offset = payload_bit_begin;
    TileRect rect = grid.rect(tile_begin);
    for (std::size_t t = tile_begin; t < tile_end;
         ++t, rect = grid.next(rect)) {
        if (offsets_out)
            offsets_out[t - tile_begin] =
                static_cast<std::size_t>(offset);
        const std::uint64_t pixels =
            static_cast<std::uint64_t>(rect.pixelCount());
        for (int c = 0; c < 3; ++c) {
            const std::uint64_t field_pos =
                kBdStreamHeaderBits + offset;
            if (field_pos + kWidthFieldBits + kBaseBits > stream_bits)
                throw std::runtime_error(
                    "BdCodec::decode: stream truncated mid-tile");
            // Only the 4-bit width field is read, from the two bytes
            // holding it (both in the stream, by the check above);
            // bases and deltas are stepped over arithmetically.
            const uint8_t *p = data + field_pos / 8;
            const unsigned width = (p[0] << 8 | p[1]) >>
                                   (12 - field_pos % 8) & 0xfu;
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
                             const TileGrid &grid,
                             std::size_t tile_begin,
                             std::size_t tile_end,
                             std::uint64_t payload_bit_begin,
                             ImageU8 &out, BdBitPath bit_path)
{
    const std::uint64_t pos = kBdStreamHeaderBits + payload_bit_begin;
#ifdef PCE_BD_BMI2
    if (effectiveBdBitPath(bit_path) == BdBitPath::Bmi2)
        return decodeTilesBmi2(data, size_bytes, grid, tile_begin,
                               tile_end, pos, out);
#endif
    (void)bit_path;
    decodeTiles<PortableFields>(data, size_bytes, grid, tile_begin,
                                tile_end, pos, out);
}

void
BdCodec::decodeInto(const std::vector<uint8_t> &stream, ImageU8 &out,
                    BdDecodeScratch *scratch, ThreadPool *pool,
                    int participants, std::uint64_t max_pixels,
                    bool duplicate_validate, BdBitPath bit_path)
{
    // Header checks first, before any buffer scales with the claimed
    // geometry: the offset arrays sized next are O(stream), never
    // O(claimed dimensions).
    const TileGrid grid =
        bdReadStreamHeader(stream.data(), stream.size(), max_pixels);

    BdDecodeScratch local;
    BdDecodeScratch &s = scratch ? *scratch : local;
    const std::size_t n_tiles = grid.count();

    // Pass 1 (serial): validate every per-tile-channel record and turn
    // the width fields into the exclusive prefix of per-tile payload
    // bit offsets — the exact dual of the encoder's prefix pass. Only
    // the 12-bit meta fields are read; delta blocks are stepped over
    // arithmetically.
    auto walkPrefix =
        [&](std::vector<std::size_t> &offsets) -> std::uint64_t {
        offsets.resize(n_tiles + 1);
        return walkTileRange(stream.data(), stream.size(), grid, 0,
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

    bdCheckStreamEnd(stream.data(), stream.size(), offset);

    // Pass 2: tile decode, parallel over the validated offsets. Tiles
    // are disjoint pixel ranges, so the output is byte-identical for
    // any participant count. Reallocate only on geometry change; every
    // byte of the image is overwritten below.
    if (out.width() != grid.width || out.height() != grid.height)
        out = ImageU8(grid.width, grid.height);
    const uint8_t *data = stream.data();
    const std::size_t size = stream.size();
    auto decodeRange = [&](std::size_t begin, std::size_t end, int) {
        decodeTileRangeInto(data, size, grid, begin, end,
                            s.bitOffsets[begin], out, bit_path);
    };
    const int p = bdPassParticipants(pool, participants, n_tiles);
    if (p > 1)
        pool->parallelFor(n_tiles, 16, p, decodeRange);
    else
        decodeRange(0, n_tiles, 0);
}

BdFrameStats
BdCodec::analyze(const ImageU8 &img) const
{
    BdFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.headerBits = kBdStreamHeaderBits;
    const TileGrid grid{img.width(), img.height(), tileSize_};
    TileRect rect = grid.rect(0);
    for (std::size_t t = 0; t < grid.count(); ++t, rect = grid.next(rect)) {
        uint8_t base[3];
        uint8_t width[3];
        bdTileStats(img, rect, base, width);
        for (int c = 0; c < 3; ++c)
            stats.deltaBits +=
                static_cast<std::size_t>(rect.pixelCount()) * width[c];
        stats.baseBits += 3 * kBaseBits;
        stats.metaBits += 3 * kWidthFieldBits;
    }
    return stats;
}

} // namespace pce

/**
 * @file
 * Base+Delta (BD) framebuffer codec (paper Sec. 2.2, baseline of Sec. 5.3).
 *
 * BD compresses each color channel of each pixel tile independently: a
 * tile stores one 8-bit base value plus a fixed-width unsigned delta per
 * pixel. The paper follows Zhang et al. [76]; since that bitstream is not
 * fully specified, we define a concrete, self-describing format with the
 * same structure and cost model as the paper's Eq. 5-6:
 *
 *   per tile, per channel:
 *     [4-bit delta width w][8-bit base = tile minimum][N x w-bit deltas]
 *
 * where N is the number of pixels in the tile and
 * w = ceil(log2(max - min + 1)). The paper prints floor(...) in Eq. 6,
 * which under-allocates for non-power-of-two ranges; ceil is what a
 * lossless coder needs (see DESIGN.md). When w = 0 (flat tile) no delta
 * bits are stored at all — this is what makes the perceptual adjustment's
 * "case 2" tiles (Fig. 6b) so cheap.
 *
 * A small frame header records image dimensions and tile size so the
 * decoder is self-contained. The codec is numerically lossless; the
 * perceptual encoder (src/core) changes only its *input*, never this
 * codec (paper Sec. 3.4, "Remarks on Decoding").
 *
 * ## Ownership and reuse contracts
 *
 * The `*Into` entry points (encodeInto / decodeInto) write into
 * caller-owned outputs and accept optional caller-owned scratch
 * (BdEncodeScratch / BdDecodeScratch). The codec never retains a
 * pointer past the call: outputs and scratch belong to the caller
 * before and after, and one scratch may serve any number of codecs and
 * geometries (it holds only per-tile tables, resized per frame; tile
 * rects are computed from the TileGrid, never stored). Reusing the same
 * output + scratch across a stream of same-geometry frames makes the
 * steady state allocation-free — buffers grow once, then only their
 * contents change (tests pin the data pointers). A scratch must not
 * be used from two concurrent calls; distinct scratches make
 * concurrent encodes/decodes on one codec safe (BdCodec itself is
 * immutable after construction). The convenience wrappers
 * encode()/decode() allocate per call and are for one-shot use.
 */

#ifndef PCE_BD_BD_CODEC_HH
#define PCE_BD_BD_CODEC_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "image/image.hh"

namespace pce {

class ThreadPool;

/**
 * Default cap on the pixel count decodeInto will materialize. BD
 * compresses flat content so well that a ~300 KB stream can honestly
 * describe a flat 0xFFFF x 0xFFFF frame (~13 GB decoded) — a
 * decompression bomb on a service decoding untrusted streams. 2^26
 * pixels (~192 MB of sRGB) covers stereo 8K and every paper workload
 * with headroom; callers that really decode larger frames pass their
 * own limit explicitly.
 */
inline constexpr std::uint64_t kBdDefaultMaxDecodePixels =
    std::uint64_t(1) << 26;

/**
 * Field widths of the per-tile-channel BD record
 * ([width][base][deltas...]), shared by the encoder/decoder, the
 * analyze paths, and the tile adjuster's candidate cost
 * (bdTileBitsFromRange) so the axis-selection cost model can never
 * silently diverge from the emitted stream.
 */
inline constexpr unsigned kBdWidthFieldBits = 4;
inline constexpr unsigned kBdBaseBits = 8;

/**
 * The BD framing rules, stated once here and called by every writer
 * and parser of a stream: both codecs, the packetizer and the
 * receiver's manifest check (src/net). A stream is [8-byte header]
 * [payload bits][zero padding to a byte]; the header is [24-bit magic]
 * [16-bit width][16-bit height][8-bit tile size], big-endian. Payload
 * bit offsets (bitOffsets, the tile-range entry points below, the
 * packetizer) count from the end of the header.
 */
inline constexpr unsigned kBdStreamHeaderBits = 64;

/** A stream format: its magic, and the fewest bits one tile-channel
 *  record takes. The other framing rules are shared. */
struct BdStreamFormat
{
    std::uint32_t magic;
    unsigned minTileChannelBits;
};

/** BdCodec's format: "BD1", records of at least width + base bits. */
inline constexpr BdStreamFormat kBdFormat{0x424431,
                                          kBdWidthFieldBits + kBdBaseBits};

/**
 * The geometry rule: dimensions 1..65535, tile 1..255, at most
 * @p max_pixels pixels. 64-bit arguments, so a caller checks wider
 * untrusted fields (a manifest's) before narrowing them.
 */
bool bdGeometryValid(std::uint64_t width, std::uint64_t height,
                     std::uint64_t tile_size, std::uint64_t max_pixels);

/** Payload bits a well-formed stream of one geometry can hold. */
struct BdPayloadBounds
{
    std::uint64_t minBits = 0;
    std::uint64_t maxBits = 0;
};

/**
 * Payload bounds of geometry @p g: every tile-channel's record floor,
 * plus at most 8 delta bits per sample. The floor bounds a tile count
 * by the stream claiming it (bdReadStreamHeader); the ceiling bounds a
 * buffer sized from a claimed payload (the receiver's manifest check).
 */
BdPayloadBounds bdPayloadBounds(const TileGrid &g,
                                const BdStreamFormat &fmt = kBdFormat);

/** Bytes of a stream with @p payload_bits: header + payload, padded. */
constexpr std::uint64_t
bdStreamBytes(std::uint64_t payload_bits)
{
    return (kBdStreamHeaderBits + payload_bits + 7) / 8;
}

/**
 * The stream-end rule: the stream is exactly bdStreamBytes(
 * @p payload_bits) long (no trailing garbage) and its padding bits are
 * zero (no garbage smuggled below the byte count).
 * @throws std::runtime_error when either fails.
 */
void bdCheckStreamEnd(const std::uint8_t *data, std::size_t size_bytes,
                      std::uint64_t payload_bits);

/**
 * Write the 8-byte header of a @p fmt stream into @p out8. A receiver
 * that knows the geometry from side-channel metadata (the delivery
 * tier's manifest) rebuilds the header bit-exactly with it.
 * @throws std::invalid_argument when the geometry breaks the geometry
 *         rule (the pixel cap binds decoders only).
 */
void bdWriteStreamHeader(std::uint8_t *out8, int width, int height,
                         int tile_size,
                         const BdStreamFormat &fmt = kBdFormat);

/**
 * Parse and validate the header of the @p fmt stream in @p data — the
 * one reader every consumer of an untrusted stream goes through before
 * it sizes anything from the header. Checks, in order: a whole header,
 * the magic, the geometry rule with @p max_pixels as the cap
 * (decompression-bomb guard), and a stream long enough for the payload
 * floor. After it returns, the decoders' 8 B/tile offset table is
 * O(stream size), never O(claimed dimensions).
 * @throws std::runtime_error on any failed check.
 */
TileGrid bdReadStreamHeader(
    const std::uint8_t *data, std::size_t size_bytes,
    std::uint64_t max_pixels = kBdDefaultMaxDecodePixels,
    const BdStreamFormat &fmt = kBdFormat);

/**
 * How the BD tile pass moves a tile-channel's w-bit delta fields to and
 * from bytes, eight at a time. It is the one dispatched step of the
 * decode and emit passes (src/bd/bd_codec.cc); both paths compute the
 * same words, so the bytes are identical on either.
 */
enum class BdBitPath
{
    Portable,  ///< a shift ladder, any CPU
    Bmi2,      ///< BMI2 pdep (decode) / pext (emit)
};

/** Path name for reports and bench records ("portable" / "bmi2"). */
const char *bdBitPathName(BdBitPath path);

/**
 * The path BD codecs take by default, decided once per process: Bmi2
 * when CPUID reports BMI2 on a core that does not run pdep / pext in
 * microcode (AMD Zen 1 and 2 do), unless FOVE_SIMD=off (or scalar / 0)
 * selects the portable path.
 */
BdBitPath activeBdBitPath();

/** @p requested, or Portable when this CPU cannot run it fast. */
BdBitPath effectiveBdBitPath(BdBitPath requested);

/** Aggregated accounting for a whole frame. */
struct BdFrameStats
{
    std::size_t pixels = 0;
    std::size_t headerBits = 0;
    std::size_t baseBits = 0;
    std::size_t metaBits = 0;
    std::size_t deltaBits = 0;

    std::size_t totalBits() const
    { return headerBits + baseBits + metaBits + deltaBits; }

    /** Average bits per pixel (all three channels). */
    double bitsPerPixel() const
    {
        return pixels == 0 ? 0.0
                           : static_cast<double>(totalBits()) /
                                 static_cast<double>(pixels);
    }

    /** Bandwidth reduction vs. uncompressed 24bpp, in percent. */
    double reductionVsRawPercent() const
    { return 100.0 * (1.0 - bitsPerPixel() / 24.0); }
};

/**
 * Reusable working storage of BdCodec::encodeInto / encodeFromStats. A
 * caller that keeps one scratch across a stream of frames
 * (each encoding thread keeps one) makes the encode allocation-free in the
 * steady state: the per-tile stats, the prefix offsets, and the
 * per-chunk seam bytes all grow once and are reused.
 */
struct BdEncodeScratch
{
    /** Per tile-channel base (minimum) and delta width, 3 per tile. */
    std::vector<uint8_t> base;
    std::vector<uint8_t> width;
    /** Exclusive prefix of per-tile payload bits (tiles + 1 entries). */
    std::vector<std::size_t> bitOffsets;
    /**
     * Per emit chunk, its final partial byte (0 when it ends on a byte
     * boundary), held back from the output and merged after the chunks
     * finish so no two participants write the same byte.
     */
    std::vector<uint8_t> seams;
};

/**
 * Reusable working storage of BdCodec::decodeInto, mirroring
 * BdEncodeScratch: the per-tile bit-offset prefix grows once and is
 * reused, so steady-state decode of a frame stream allocates nothing.
 */
struct BdDecodeScratch
{
    /** Exclusive prefix of per-tile payload bits (tiles + 1 entries). */
    std::vector<std::size_t> bitOffsets;

    /**
     * Second prefix filled by the duplicated validate pass
     * (decodeInto with duplicate_validate = true); compared against
     * bitOffsets before any tile is decoded.
     */
    std::vector<std::size_t> dupOffsets;

    /**
     * Fault-injection hook (src/fault): when duplicate validation is
     * on, called with the *first* walk's offsets after that walk
     * completes and before the duplicate walk runs, modeling an SEU in
     * the prefix table between computation and use. Never invoked on
     * the normal path (duplicate_validate = false leaves it untouched).
     */
    std::function<void(std::vector<std::size_t> &)> prefixFaultHook;
};

/** Base+Delta encoder/decoder with a configurable square tile size. */
class BdCodec
{
  public:
    /**
     * @param tile_size Edge of the square tile (paper default 4).
     * @param bit_path Bit path of the emit pass, clamped to what this
     *        CPU runs fast (see BdBitPath); the bytes are the same on
     *        either.
     */
    explicit BdCodec(int tile_size = 4,
                     BdBitPath bit_path = activeBdBitPath());

    int tileSize() const { return tileSize_; }

    /**
     * Encode a frame to a self-describing BD bitstream.
     *
     * @param stats_out Optional bit accounting, filled in the same
     *        pass; identical to a separate analyze() call (tests
     *        assert this) without re-traversing the frame.
     */
    std::vector<uint8_t> encode(const ImageU8 &img,
                                BdFrameStats *stats_out = nullptr) const;

    /**
     * encode() into a caller-owned stream with optional parallelism.
     *
     * Three passes: (1) per-tile-channel min/width stats
     * (bdTileStats), parallel over tiles; (2) a serial prefix pass
     * turning the stats into exact per-tile bit offsets (and the
     * frame's total size); (3) emission —
     * @p out is sized exactly, the header written with
     * bdWriteStreamHeader, and tiles are split into contiguous chunks
     * that workers emit straight into @p out, each starting at its
     * tile's prefix offset (the serial encode is one chunk). A chunk
     * that ends mid-byte shares that byte with the next chunk; each
     * chunk holds its final partial byte back (BdEncodeScratch::seams)
     * and a serial pass merges them, so no two participants write the
     * same byte. The output is byte-identical to the serial encoder for
     * any thread count and any chunking: every tile's bits land at the
     * offset the prefix pass gave it either way (tests sweep thread
     * counts and assert equality with a per-field reference encoder).
     *
     * @param out Overwritten with the stream; its capacity is reused.
     * @param scratch Optional reusable working storage (see
     *        BdEncodeScratch); nullptr uses call-local buffers.
     * @param pool Optional worker pool; nullptr encodes serially.
     * @param participants Parallel slots when @p pool is given
     *        (clamped to the pool size, 0/1 = serial).
     * @throws std::invalid_argument when the frame's dimensions do not
     *         fit the 16-bit header fields (see bdWriteStreamHeader).
     */
    void encodeInto(const ImageU8 &img, BdFrameStats *stats_out,
                    std::vector<uint8_t> &out,
                    BdEncodeScratch *scratch = nullptr,
                    ThreadPool *pool = nullptr,
                    int participants = 1) const;

    /**
     * Size @p scratch's base / width tables for a @p width x @p height
     * frame, for a caller that computes the pass-1 stats itself (the
     * frame pipeline's tile loop, which has them from the adjust
     * kernels). Returns the frame's tile grid.
     */
    TileGrid prepareStats(BdEncodeScratch &scratch, int width,
                          int height) const;

    /**
     * Passes 2 and 3 of encodeInto, from pass-1 stats already in
     * @p scratch: prepareStats sized it for @p img's geometry, and each
     * tile's base / width entries hold what bdTileStats gives for that
     * tile of @p img. encodeInto is pass 1 plus this call, so there is
     * one emitter and the bytes are identical either way.
     */
    void encodeFromStats(const ImageU8 &img, BdFrameStats *stats_out,
                         std::vector<uint8_t> &out,
                         BdEncodeScratch &scratch,
                         ThreadPool *pool = nullptr,
                         int participants = 1) const;

    /**
     * Decode a BD bitstream produced by encode(). Thin wrapper over
     * decodeInto, so every caller gets the hardened validation.
     */
    static ImageU8 decode(const std::vector<uint8_t> &stream);

    /**
     * decode() into a caller-owned image with optional parallelism —
     * the hardened, allocation-free sibling of encodeInto.
     *
     * Two passes. Pass 1 (serial) validates the stream *before any
     * pixel is touched or any frame-sized buffer allocated*: the full
     * header (bdReadStreamHeader, so adversarial 0xFFFF x 0xFFFF
     * headers cannot overflow or trigger a huge allocation), then
     * every per-tile-channel record, then the stream end
     * (bdCheckStreamEnd) — a delta width field above 8 bits, a delta
     * payload running past the end of the stream (truncated mid-tile),
     * a stream whose byte count disagrees with the computed total bit
     * length (trailing garbage), or nonzero padding bits in the final
     * byte all throw std::runtime_error. The
     * walk only reads the 12-bit meta fields and seeks across delta
     * blocks, producing the exclusive prefix of per-tile bit offsets —
     * the exact dual of the encoder's prefix pass. Pass 2 decodes tiles
     * in parallel on the pool, each chunk's reader seeked to its tile's
     * offset, writing rows directly into @p out.
     *
     * The output is byte-identical to the serial decoder for any
     * participant count (tiles are disjoint), and a caller that reuses
     * @p out and @p scratch across same-geometry frames allocates
     * nothing in the steady state (tests pin the data pointers).
     *
     * @param out Overwritten with the decoded frame; reallocated only
     *        when the stream's dimensions differ from its own.
     * @param scratch Optional reusable working storage; nullptr uses
     *        call-local buffers.
     * @param pool Optional worker pool; nullptr decodes serially.
     * @param participants Parallel slots when @p pool is given
     *        (clamped to the pool size, 0/1 = serial).
     * @param max_pixels Decompression-bomb guard: a header claiming
     *        more pixels than this throws before anything is
     *        allocated, even when the stream is otherwise well-formed
     *        (flat tiles make multi-GB frames honestly encodable in a
     *        few hundred KB).
     * @param duplicate_validate Selective-EDDI hardening (ASPIS-style,
     *        see docs/FAULTS.md): run the serial validate+prefix pass
     *        twice into independent buffers and compare before
     *        decoding any tile. The walk is the one serial,
     *        unchecked-by-construction stage of the decode — a bit
     *        flip in its accumulator or offset table silently shifts
     *        every later tile's read position; duplication converts
     *        that into a detected error at ~2x walk cost (the walk is
     *        a small fraction of total decode time).
     * @param bit_path Bit path of the tile pass (see BdBitPath);
     *        clamped to what this CPU runs fast.
     * @throws std::runtime_error on any malformed or over-cap stream,
     *         before @p out is modified, and on duplicate-validate
     *         disagreement.
     */
    static void decodeInto(
        const std::vector<uint8_t> &stream, ImageU8 &out,
        BdDecodeScratch *scratch = nullptr, ThreadPool *pool = nullptr,
        int participants = 1,
        std::uint64_t max_pixels = kBdDefaultMaxDecodePixels,
        bool duplicate_validate = false,
        BdBitPath bit_path = activeBdBitPath());

    /**
     * Walk the per-tile-channel records of tiles [tile_begin, tile_end)
     * starting at payload bit @p payload_bit_begin, validating each
     * record against the buffer bounds exactly as decodeInto's pass 1
     * does (width field above 8 bits or a record running past the end
     * of @p data throws), and return the exclusive end payload bit
     * offset. This is the tile-range dual of the full-stream validate
     * walk: a receiver holding only a *slice* of a frame's stream (the
     * delivery tier's packets) can validate and locate its own tile
     * range without the rest of the frame, provided the slice's bytes
     * sit at their original positions in @p data.
     *
     * @param data Stream buffer (header at byte 0); bytes outside the
     *        walked range are never read.
     * @param grid The frame's tile grid (bdReadStreamHeader's result,
     *        or the manifest's geometry); tiles are its indices.
     * @param offsets_out Optional array of tile_end - tile_begin + 1
     *        entries, filled with the exclusive prefix of payload bit
     *        offsets (offsets_out[0] == payload_bit_begin).
     * @throws std::runtime_error on a malformed or out-of-bounds record.
     */
    static std::uint64_t walkTileRange(const std::uint8_t *data,
                                       std::size_t size_bytes,
                                       const TileGrid &grid,
                                       std::size_t tile_begin,
                                       std::size_t tile_end,
                                       std::uint64_t payload_bit_begin,
                                       std::size_t *offsets_out = nullptr);

    /**
     * Decode tiles [tile_begin, tile_end) of a stream buffer into
     * @p out, seeking straight to @p payload_bit_begin — the prefix
     * seek path of decodeInto's pass 2, exposed for partial-frame
     * decode. The caller must have validated the range first (
     * walkTileRange) and sized @p out to @p grid's frame; a width
     * field above 8 bits, which the walk rejects, throws
     * std::runtime_error here. Bytes of @p data outside the range's
     * bit span never affect the output (a read may load up to 8 bytes
     * past the span, never past @p size_bytes, and discards them), so a
     * partially reassembled frame buffer with holes decodes every
     * *present* tile range correctly regardless of what the holes
     * contain. At tile size 4, full tiles decode each channel as two
     * 8-field groups and write each row as 12 interleaved bytes; other
     * tiles take the same groups one byte store per sample.
     */
    static void decodeTileRangeInto(const std::uint8_t *data,
                                    std::size_t size_bytes,
                                    const TileGrid &grid,
                                    std::size_t tile_begin,
                                    std::size_t tile_end,
                                    std::uint64_t payload_bit_begin,
                                    ImageU8 &out,
                                    BdBitPath bit_path = activeBdBitPath());

    /**
     * Bit accounting without materializing a stream. Exactly matches
     * the bit count of encode() (tests assert this).
     */
    BdFrameStats analyze(const ImageU8 &img) const;

  private:
    int tileSize_;
    BdBitPath bitPath_;
};

/**
 * Fewest tiles a participant of a BD tile pass (decode, stats, emit)
 * is given. Below it the pool hand-off eats what sharing the tiles
 * saves: at 128x128 (1024 tiles of 4x4) four participants decode no
 * faster than one in isolation, and slower inside the service
 * (docs/PERF.md, "BD prefix and emit").
 */
inline constexpr std::size_t kBdMinTilesPerParticipant = 1024;

/**
 * Participants a BD tile pass over @p n_tiles tiles runs on:
 * @p participants capped so each gets at least
 * kBdMinTilesPerParticipant tiles, and 1 without a @p pool. A result
 * of 1 means the pass runs inline, with no pool dispatch.
 */
int bdPassParticipants(const ThreadPool *pool, int participants,
                       std::size_t n_tiles);

/** Number of delta bits for a [min, max] range: ceil(log2(range+1)). */
inline unsigned
bdDeltaWidth(uint8_t min_value, uint8_t max_value)
{
    return static_cast<unsigned>(
        std::bit_width(static_cast<unsigned>(max_value - min_value)));
}

/**
 * Pass-1 stats of one tile of @p img (encodeInto): per channel c, the
 * minimum into base[c] and bdDeltaWidth(minimum, maximum) into
 * width[c].
 */
void bdTileStats(const ImageU8 &img, const TileRect &rect,
                 uint8_t base[3], uint8_t width[3]);

/**
 * BD bit cost of one tile given its pixels' already-quantized sRGB
 * codes, @p n pixels of 3 interleaved channel bytes: per channel,
 * meta(4) + base(8) + n * ceil(log2(range+1)) bits. It backs
 * bdTileBits (core/adjust.hh), used by tests and the reference flow;
 * the tile flow takes the same cost from a candidate's value range
 * instead (bdTileBitsFromRange).
 */
std::size_t bdTileBitsFromCodes(const uint8_t *codes, std::size_t n);

} // namespace pce

#endif // PCE_BD_BD_CODEC_HH

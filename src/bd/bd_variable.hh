/**
 * @file
 * Variable bit-length Base+Delta codec (paper Sec. 3.1, footnote 1).
 *
 * The paper assumes one delta width per tile ("It is possible, but
 * uncommon, to vary the number of bits to encode the deltas in a tile
 * with more hardware overhead... We consider variable bit-length an
 * orthogonal idea") and leaves it as an extension. This codec implements
 * that extension so the repository can quantify the trade:
 *
 *   per tile, per channel: [1-bit mode]
 *     mode 0 (uniform):  [4-bit w][8-bit base][N x w deltas]
 *     mode 1 (per-row):  [8-bit base][per row: 4-bit w_r][w_r deltas]
 *
 * The base is the tile minimum in both modes; mode 1 lets rows that are
 * locally flat spend zero delta bits while a single busy row pays for
 * itself only. The encoder picks the cheaper mode per channel, so the
 * stream costs at most one extra bit per tile-channel over BdCodec.
 */

#ifndef PCE_BD_BD_VARIABLE_HH
#define PCE_BD_BD_VARIABLE_HH

#include <cstdint>
#include <vector>

#include "bd/bd_codec.hh"
#include "image/image.hh"

namespace pce {

/** The variable codec's format: "BDV", records of at least mode +
 *  width + base bits (mode 1 pays at least one 4-bit row width). */
inline constexpr BdStreamFormat kBdVariableFormat{
    0x424456, 1 + kBdWidthFieldBits + kBdBaseBits};

/** Frame accounting for the variable codec. */
struct BdVariableFrameStats
{
    std::size_t pixels = 0;
    std::size_t totalBits = 0;
    std::size_t uniformChannels = 0;  ///< tile-channels using mode 0
    std::size_t perRowChannels = 0;   ///< tile-channels using mode 1

    double bitsPerPixel() const
    {
        return pixels == 0 ? 0.0
                           : static_cast<double>(totalBits) /
                                 static_cast<double>(pixels);
    }
};

/** The footnote-1 extension codec. */
class BdVariableCodec
{
  public:
    explicit BdVariableCodec(int tile_size = 4);

    int tileSize() const { return tileSize_; }

    /**
     * Encode to a self-describing stream (distinct magic from BD).
     * @throws std::invalid_argument when the frame breaks the geometry
     *         rule (see bdWriteStreamHeader).
     */
    std::vector<uint8_t> encode(const ImageU8 &img) const;

    /**
     * Decode a stream produced by encode(). Thin wrapper over
     * decodeInto, so every caller gets the hardened validation.
     */
    static ImageU8 decode(const std::vector<uint8_t> &stream);

    /**
     * decode() into a caller-owned image — the hardened,
     * allocation-free sibling, with the same walk-validate-then-decode
     * structure as BdCodec::decodeInto.
     *
     * Pass 1 (serial) validates the stream before any pixel is touched
     * or any frame-sized buffer allocated: the shared header reader
     * (bdReadStreamHeader with kBdVariableFormat: geometry rule,
     * decompression-bomb pixel cap, payload floor), then a walk over
     * every per-tile-channel record reading only the mode bits and
     * 4-bit width fields (delta blocks are stepped over
     * arithmetically), then the shared stream-end rule
     * (bdCheckStreamEnd). A width field above 8 bits, a record running
     * past the end of the stream (truncated mid-tile), a byte count
     * that disagrees with the computed total bit length (trailing
     * garbage), or nonzero padding bits all throw std::runtime_error.
     * The walk yields the exclusive prefix of
     * per-tile bit offsets; pass 2 decodes tiles in parallel on the
     * pool from those offsets, byte-identical to the serial decode for
     * any participant count.
     *
     * @param out Overwritten with the decoded frame; reallocated only
     *        when the stream's dimensions differ from its own.
     * @param scratch Optional reusable working storage (shared
     *        BdDecodeScratch type; a caller may reuse one across both
     *        codecs, the grid cache re-keys itself); nullptr uses
     *        call-local buffers.
     * @param pool Optional worker pool; nullptr decodes serially.
     * @param participants Parallel slots when @p pool is given
     *        (clamped to the pool size, 0/1 = serial).
     * @param max_pixels Decompression-bomb guard, as in
     *        BdCodec::decodeInto.
     * @throws std::runtime_error on any malformed or over-cap stream,
     *         before @p out is modified.
     */
    static void decodeInto(
        const std::vector<uint8_t> &stream, ImageU8 &out,
        BdDecodeScratch *scratch = nullptr, ThreadPool *pool = nullptr,
        int participants = 1,
        std::uint64_t max_pixels = kBdDefaultMaxDecodePixels);

    /** Bit accounting; matches encode()'s length to byte padding. */
    BdVariableFrameStats analyze(const ImageU8 &img) const;

  private:
    int tileSize_;
};

} // namespace pce

#endif // PCE_BD_BD_VARIABLE_HH

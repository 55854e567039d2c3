/**
 * @file
 * Bit-granular writer/reader used by every codec in the library.
 *
 * The BD codec (src/bd) packs per-tile fields of 0..16 bits; the DEFLATE
 * implementation (src/png) needs LSB-first bit order per RFC 1951. Both
 * orders are provided. All sizes are tracked in bits so the benchmark
 * harness can report exact bandwidth numbers rather than byte-rounded
 * approximations.
 */

#ifndef PCE_COMMON_BITSTREAM_HH
#define PCE_COMMON_BITSTREAM_HH

#include <cstdint>
#include <cstddef>
#include <vector>

namespace pce {

/**
 * MSB-first bit writer.
 *
 * Bits are appended most-significant-first within each byte, which is the
 * natural order for fixed-width fields (the BD bitstream). The writer can
 * report its exact length in bits at any time.
 */
class BitWriter
{
  public:
    BitWriter() = default;

    /**
     * Append the low @p width bits of @p value, MSB first.
     *
     * @param value Field value; bits above @p width are ignored.
     * @param width Number of bits, 0..32. Width 0 writes nothing.
     */
    void putBits(uint32_t value, unsigned width);

    /** Append a full byte (8 bits). */
    void putByte(uint8_t b) { putBits(b, 8); }

    /**
     * Pre-allocate capacity for @p bits more bits so subsequent writes
     * never reallocate.
     */
    void reserve(std::size_t bits)
    { bytes_.reserve((bitCount_ + bits + 7) / 8); }

    /** Pad with zero bits up to the next byte boundary. */
    void alignToByte();

    /** Exact number of bits written so far. */
    std::size_t bitCount() const { return bitCount_; }

    /** Bytes written (the final partial byte counts as one). */
    std::size_t byteCount() const { return (bitCount_ + 7) / 8; }

    /** The underlying buffer; the final byte may be partially filled. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    /** Move the buffer out, leaving the writer empty. */
    std::vector<uint8_t> take();

  private:
    std::vector<uint8_t> bytes_;
    std::size_t bitCount_ = 0;
};

/**
 * MSB-first bit reader over an external byte buffer.
 *
 * Reading past the end is reported via exhausted() and yields zero bits,
 * so malformed streams fail loudly in tests rather than crashing.
 */
class BitReader
{
  public:
    BitReader(const uint8_t *data, std::size_t size_bytes)
        : data_(data), sizeBits_(size_bytes * 8)
    {}

    explicit BitReader(const std::vector<uint8_t> &buf)
        : BitReader(buf.data(), buf.size())
    {}

    /** Read @p width bits (0..32), MSB first. */
    uint32_t getBits(unsigned width);

    /** Read one full byte. */
    uint8_t getByte() { return static_cast<uint8_t>(getBits(8)); }

    /** Skip forward to the next byte boundary. */
    void alignToByte();

    /**
     * Jump to an absolute bit position (clamped to the end of the
     * buffer). The BD validate walk seeks from width field to width
     * field across delta blocks; exhausted() is left untouched.
     */
    void seek(std::size_t bit_pos);

    /** Bits consumed so far. */
    std::size_t bitPosition() const { return pos_; }

    /** True once a read has gone past the end of the buffer. */
    bool exhausted() const { return exhausted_; }

    /** Bits remaining. */
    std::size_t bitsLeft() const
    { return pos_ >= sizeBits_ ? 0 : sizeBits_ - pos_; }

  private:
    const uint8_t *data_;
    std::size_t sizeBits_;
    std::size_t pos_ = 0;
    bool exhausted_ = false;
};

/**
 * LSB-first bit writer for RFC 1951 (DEFLATE) streams.
 *
 * Within each byte, bits are filled starting at the least-significant
 * position. Huffman codes are written with their own bit reversal as
 * required by the spec (handled by the caller).
 */
class LsbBitWriter
{
  public:
    /** Append the low @p width bits of @p value, LSB first. */
    void putBits(uint32_t value, unsigned width);

    /** Pad with zero bits to a byte boundary. */
    void alignToByte();

    /** Append a raw byte; requires byte alignment. */
    void putAlignedByte(uint8_t b);

    std::size_t bitCount() const { return bitCount_; }
    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> take();

  private:
    std::vector<uint8_t> bytes_;
    std::size_t bitCount_ = 0;
};

/** LSB-first bit reader for RFC 1951 streams. */
class LsbBitReader
{
  public:
    LsbBitReader(const uint8_t *data, std::size_t size_bytes)
        : data_(data), sizeBits_(size_bytes * 8)
    {}

    explicit LsbBitReader(const std::vector<uint8_t> &buf)
        : LsbBitReader(buf.data(), buf.size())
    {}

    /** Read @p width bits, LSB first. */
    uint32_t getBits(unsigned width);

    /** Read a single bit. */
    uint32_t getBit() { return getBits(1); }

    /** Skip to the next byte boundary. */
    void alignToByte();

    /** Read a byte; requires byte alignment. */
    uint8_t getAlignedByte();

    std::size_t bitPosition() const { return pos_; }
    bool exhausted() const { return exhausted_; }

  private:
    const uint8_t *data_;
    std::size_t sizeBits_;
    std::size_t pos_ = 0;
    bool exhausted_ = false;
};

} // namespace pce

#endif // PCE_COMMON_BITSTREAM_HH

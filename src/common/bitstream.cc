#include "common/bitstream.hh"

namespace pce {

void
BitWriter::putBits(uint32_t value, unsigned width)
{
    // Byte-chunked writes: the original bit-at-a-time loop (with its
    // per-bit buffer-growth check) dominated per-field encode profiles.
    if (width == 0)
        return;
    if (width < 32)
        value &= (1u << width) - 1u;
    const std::size_t end_bits = bitCount_ + width;
    if (bytes_.size() * 8 < end_bits)
        bytes_.resize((end_bits + 7) / 8, 0);
    unsigned remaining = width;
    while (remaining > 0) {
        const std::size_t byte_idx = bitCount_ / 8;
        const unsigned used = bitCount_ % 8;
        const unsigned space = 8 - used;
        const unsigned chunk = remaining < space ? remaining : space;
        const uint32_t top =
            (value >> (remaining - chunk)) & ((1u << chunk) - 1u);
        bytes_[byte_idx] |=
            static_cast<uint8_t>(top << (space - chunk));
        bitCount_ += chunk;
        remaining -= chunk;
    }
}

void
BitWriter::alignToByte()
{
    while (bitCount_ % 8 != 0)
        putBits(0, 1);
}

std::vector<uint8_t>
BitWriter::take()
{
    bitCount_ = 0;
    return std::move(bytes_);
}

uint32_t
BitReader::getBits(unsigned width)
{
    // Byte-chunked reads, mirroring BitWriter::putBits. Reading past the
    // end yields the available bits shifted up with zeros filling the
    // missing low bits, and sets exhausted().
    if (width == 0)
        return 0;
    unsigned avail = width;
    const std::size_t left = sizeBits_ - pos_;  // pos_ <= sizeBits_
    if (width <= 8 && width <= left) {
        // Fast path for fields of at most a byte (BD width fields and
        // bases, variable-BD deltas): the field spans at most two
        // bytes, extracted from one 16-bit window.
        const std::size_t byte = pos_ / 8;
        const unsigned used = pos_ % 8;
        pos_ += width;
        unsigned win = static_cast<unsigned>(data_[byte]) << 8;
        if (used + width > 8)
            win |= data_[byte + 1];
        return (win >> (16 - used - width)) & ((1u << width) - 1u);
    }
    if (width > left) {
        exhausted_ = true;
        avail = static_cast<unsigned>(left);
        if (avail == 0)
            return 0;
    }
    uint32_t v = 0;
    unsigned remaining = avail;
    while (remaining > 0) {
        const unsigned used = pos_ % 8;
        const unsigned space = 8 - used;
        const unsigned chunk = remaining < space ? remaining : space;
        const unsigned bits =
            (static_cast<unsigned>(data_[pos_ / 8]) >>
             (space - chunk)) &
            ((1u << chunk) - 1u);
        v = (v << chunk) | bits;
        pos_ += chunk;
        remaining -= chunk;
    }
    return v << (width - avail);
}

void
BitReader::alignToByte()
{
    pos_ = (pos_ + 7) / 8 * 8;
}

void
BitReader::seek(std::size_t bit_pos)
{
    pos_ = bit_pos < sizeBits_ ? bit_pos : sizeBits_;
}

void
LsbBitWriter::putBits(uint32_t value, unsigned width)
{
    for (unsigned i = 0; i < width; ++i) {
        const unsigned bit = (value >> i) & 1u;
        const std::size_t byte_idx = bitCount_ / 8;
        if (byte_idx == bytes_.size())
            bytes_.push_back(0);
        if (bit)
            bytes_[byte_idx] |= static_cast<uint8_t>(1u << (bitCount_ % 8));
        ++bitCount_;
    }
}

void
LsbBitWriter::alignToByte()
{
    while (bitCount_ % 8 != 0)
        putBits(0, 1);
}

void
LsbBitWriter::putAlignedByte(uint8_t b)
{
    // Callers must align first; falling through putBits keeps the
    // invariant even if they have not.
    putBits(b, 8);
}

std::vector<uint8_t>
LsbBitWriter::take()
{
    bitCount_ = 0;
    return std::move(bytes_);
}

uint32_t
LsbBitReader::getBits(unsigned width)
{
    uint32_t v = 0;
    for (unsigned i = 0; i < width; ++i) {
        if (pos_ >= sizeBits_) {
            exhausted_ = true;
            continue;
        }
        const unsigned bit = (data_[pos_ / 8] >> (pos_ % 8)) & 1u;
        v |= bit << i;
        ++pos_;
    }
    return v;
}

void
LsbBitReader::alignToByte()
{
    pos_ = (pos_ + 7) / 8 * 8;
}

uint8_t
LsbBitReader::getAlignedByte()
{
    alignToByte();
    return static_cast<uint8_t>(getBits(8));
}

} // namespace pce

#include "common/integrity.hh"

#include <array>
#include <cstring>

namespace pce {

namespace {

/**
 * Slicing-by-8 tables of the reflected CRC-32 polynomial: t[0] is the
 * classic byte table, and t[k][b] is the CRC of byte b followed by k
 * zero bytes, so one step can fold eight input bytes with eight
 * independent lookups.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t n = 0; n < 256; ++n) {
        uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (uint32_t n = 0; n < 256; ++n)
        for (int k = 1; k < 8; ++k)
            t[k][n] = t[0][t[k - 1][n] & 0xffu] ^ (t[k - 1][n] >> 8);
    return t;
}

const CrcTables &
crcTables()
{
    static const CrcTables tables = makeCrcTables();
    return tables;
}

/** Little-endian 32-bit word of 4 bytes, on any host byte order. */
inline uint32_t
le32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

constexpr uint32_t kAdlerMod = 65521;

/** SplitMix64 finalizer: a bijective 64-bit mix with full avalanche. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

void
Crc32::update(const uint8_t *data, std::size_t n)
{
    const CrcTables &t = crcTables();
    uint32_t c = state_;
    for (; n >= 8; data += 8, n -= 8) {
        const uint32_t a = c ^ le32(data);
        const uint32_t b = le32(data + 4);
        c = t[7][a & 0xffu] ^ t[6][(a >> 8) & 0xffu] ^
            t[5][(a >> 16) & 0xffu] ^ t[4][a >> 24] ^ t[3][b & 0xffu] ^
            t[2][(b >> 8) & 0xffu] ^ t[1][(b >> 16) & 0xffu] ^
            t[0][b >> 24];
    }
    for (; n > 0; ++data, --n)
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    state_ = c;
}

uint32_t
crc32(const uint8_t *data, std::size_t n)
{
    Crc32 c;
    c.update(data, n);
    return c.value();
}

void
Adler32::update(const uint8_t *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        a_ = (a_ + data[i]) % kAdlerMod;
        b_ = (b_ + a_) % kAdlerMod;
    }
}

uint32_t
adler32(const uint8_t *data, std::size_t n)
{
    Adler32 a;
    a.update(data, n);
    return a.value();
}

uint64_t
hash64(const void *data, std::size_t n)
{
    // XOR of independently mixed words, each salted with its position,
    // so the sum is order-sensitive without a sequential dependency
    // chain (the compiler is free to vectorize/unroll the loop).
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t acc = mix64(0x9e3779b97f4a7c15ull ^ n);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, 8);
        acc ^= mix64(word + 0x9e3779b97f4a7c15ull * (i / 8 + 1));
    }
    if (i < n) {
        uint64_t word = 0;
        std::memcpy(&word, bytes + i, n - i);
        acc ^= mix64(word + 0x9e3779b97f4a7c15ull * (i / 8 + 1));
    }
    return acc;
}

} // namespace pce

#include "common/integrity.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PCE_HASH64_AVX512 1
#endif

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

/** hash64's position salt: word k is salted with kHashSalt * (k + 1). */
constexpr uint64_t kHashSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kMix1 = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kMix2 = 0x94d049bb133111ebull;

/** SplitMix64 finalizer: a bijective 64-bit mix with full avalanche. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= kMix1;
    x ^= x >> 27;
    x *= kMix2;
    x ^= x >> 31;
    return x;
}

#ifdef PCE_HASH64_AVX512
/**
 * hash64's word loop, 8 words per step on the AVX-512 64-bit multiplier
 * (vpmullq, DQ): the XOR of the salted, mixed words 0 .. 8 * blocks - 1.
 * Lane j of a step holds word 8s + j, salted with kHashSalt * (8s + j +
 * 1) — a salt that advances by 8 * kHashSalt per step (mod 2^64). The
 * words are combined by XOR, so the lane order changes no bit.
 */
__attribute__((target("avx512f,avx512dq"))) uint64_t
mixWords8(const uint8_t *bytes, std::size_t blocks)
{
    const __m512i m1 = _mm512_set1_epi64(static_cast<long long>(kMix1));
    const __m512i m2 = _mm512_set1_epi64(static_cast<long long>(kMix2));
    const __m512i step =
        _mm512_set1_epi64(static_cast<long long>(8 * kHashSalt));
    __m512i salt = _mm512_mullo_epi64(
        _mm512_set1_epi64(static_cast<long long>(kHashSalt)),
        _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8));
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t b = 0; b < blocks; ++b) {
        __m512i x = _mm512_add_epi64(
            _mm512_loadu_si512(bytes + 64 * b), salt);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
        x = _mm512_mullo_epi64(x, m1);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
        x = _mm512_mullo_epi64(x, m2);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
        acc = _mm512_xor_si512(acc, x);
        salt = _mm512_add_epi64(salt, step);
    }
    alignas(64) uint64_t lanes[8];
    _mm512_store_si512(lanes, acc);
    uint64_t h = 0;
    for (const uint64_t lane : lanes)
        h ^= lane;
    return h;
}

/** CPUID, once: can mixWords8 run here? */
bool
hasWideHash()
{
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
}
#endif

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
    // chain: any grouping of the words gives the same value. On
    // AVX-512 hosts the whole 64-byte blocks go 8 words per step; the
    // scalar loop takes the rest (every word elsewhere).
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t acc = mix64(kHashSalt ^ n);
    std::size_t i = 0;
#ifdef PCE_HASH64_AVX512
    if (hasWideHash()) {
        acc ^= mixWords8(bytes, n / 64);
        i = n / 64 * 64;
    }
#endif
    for (; i + 8 <= n; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, 8);
        acc ^= mix64(word + kHashSalt * (i / 8 + 1));
    }
    if (i < n) {
        uint64_t word = 0;
        std::memcpy(&word, bytes + i, n - i);
        acc ^= mix64(word + kHashSalt * (i / 8 + 1));
    }
    return acc;
}

} // namespace pce

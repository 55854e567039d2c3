#include "common/integrity.hh"

#include <array>
#include <cstring>

#include "common/env.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PCE_HASH64_AVX512 1
#define PCE_CRC32_CLMUL 1
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

#ifdef PCE_CRC32_CLMUL
/** One fold step: the 128-bit x carried @p k's distance, plus @p data. */
__attribute__((target("pclmul"))) inline __m128i
foldStep(__m128i x, __m128i k, __m128i data)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         data);
}

/**
 * The CRC register after @p n bytes (n >= 64, a multiple of 16) from
 * register @p crc, by carry-less multiply. Four 128-bit accumulators
 * fold 64 bytes per step, then fold into one, which takes the remaining
 * 16-byte blocks; a Barrett reduction turns the 128-bit remainder into
 * the 32-bit register. The constants are x^k mod P for the reflected
 * polynomial (bit-reflected, as in Intel's paper): k1/k2 carry an
 * accumulator 512 bits, k3/k4 128 bits, k5 the last 64 bits, and mu/P'
 * are the Barrett constants.
 */
__attribute__((target("pclmul"))) uint32_t
crcFoldClmul(uint32_t crc, const uint8_t *p, std::size_t n)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, 0, 0);
    const auto load = [](const uint8_t *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };

    __m128i x0 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = foldStep(x0, k1k2, load(p));
        x1 = foldStep(x1, k1k2, load(p + 16));
        x2 = foldStep(x2, k1k2, load(p + 32));
        x3 = foldStep(x3, k1k2, load(p + 48));
    }
    x0 = foldStep(x0, k3k4, x1);
    x0 = foldStep(x0, k3k4, x2);
    x0 = foldStep(x0, k3k4, x3);
    for (; n >= 16; p += 16, n -= 16)
        x0 = foldStep(x0, k3k4, load(p));

    // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
    // Barrett reduction.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), mu_p, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
    x0 = _mm_xor_si128(x0, t);
    return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

/** CPUID, once: can crcFoldClmul run here? */
bool
hasClmul()
{
    static const bool ok = __builtin_cpu_supports("pclmul");
    return ok;
}
#endif

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
 * words are combined by XOR, so the lane order changes no bit. With
 * Copy, each loaded block is also stored to @p dst.
 */
template <bool Copy>
__attribute__((target("avx512f,avx512dq"))) uint64_t
mixWords8(const uint8_t *bytes, uint8_t *dst, std::size_t blocks)
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
        const __m512i w = _mm512_loadu_si512(bytes + 64 * b);
        if constexpr (Copy)
            _mm512_storeu_si512(dst + 64 * b, w);
        __m512i x = _mm512_add_epi64(w, salt);
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

/** CPUID, once: can mixWords8 run here, and does FOVE_SIMD allow it? */
bool
hasWideHash()
{
    static const bool ok = !envSimdOff() &&
                           __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
}
#endif

/**
 * hash64 of the @p n bytes at @p bytes; with Copy, each word is also
 * stored to @p dst as it is folded, so copy and hash take one read.
 */
template <bool Copy>
uint64_t
hashWords(const uint8_t *bytes, uint8_t *dst, std::size_t n)
{
    // XOR of independently mixed words, each salted with its position,
    // so the sum is order-sensitive without a sequential dependency
    // chain: any grouping of the words gives the same value. On
    // AVX-512 hosts the whole 64-byte blocks go 8 words per step; the
    // scalar loop takes the rest (every word elsewhere).
    uint64_t acc = mix64(kHashSalt ^ n);
    std::size_t i = 0;
#ifdef PCE_HASH64_AVX512
    if (hasWideHash()) {
        acc ^= mixWords8<Copy>(bytes, dst, n / 64);
        i = n / 64 * 64;
    }
#endif
    for (; i + 8 <= n; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, 8);
        if constexpr (Copy)
            std::memcpy(dst + i, &word, 8);
        acc ^= mix64(word + kHashSalt * (i / 8 + 1));
    }
    if (i < n) {
        uint64_t word = 0;
        std::memcpy(&word, bytes + i, n - i);
        if constexpr (Copy)
            std::memcpy(dst + i, bytes + i, n - i);
        acc ^= mix64(word + kHashSalt * (i / 8 + 1));
    }
    return acc;
}

} // namespace

const char *
crcPathName(CrcPath path)
{
    return path == CrcPath::Clmul ? "clmul" : "tables";
}

CrcPath
effectiveCrcPath(CrcPath requested)
{
#ifdef PCE_CRC32_CLMUL
    if (requested == CrcPath::Clmul && hasClmul())
        return CrcPath::Clmul;
#endif
    (void)requested;
    return CrcPath::Tables;
}

CrcPath
activeCrcPath()
{
    static const CrcPath path =
        envSimdOff() ? CrcPath::Tables : effectiveCrcPath(CrcPath::Clmul);
    return path;
}

void
Crc32::update(const uint8_t *data, std::size_t n)
{
    const CrcTables &t = crcTables();
    uint32_t c = state_;
#ifdef PCE_CRC32_CLMUL
    if (path_ == CrcPath::Clmul && n >= 64) {
        const std::size_t folded = n / 16 * 16;
        c = crcFoldClmul(c, data, folded);
        data += folded;
        n -= folded;
    }
#endif
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
crc32(const uint8_t *data, std::size_t n, CrcPath path)
{
    Crc32 c(path);
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
    return hashWords<false>(static_cast<const uint8_t *>(data), nullptr,
                            n);
}

uint64_t
copyHash64(const void *src, void *dst, std::size_t n)
{
    return hashWords<true>(static_cast<const uint8_t *>(src),
                           static_cast<uint8_t *>(dst), n);
}

} // namespace pce

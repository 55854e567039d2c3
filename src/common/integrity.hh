/**
 * @file
 * Data-integrity checksums shared across the pipeline.
 *
 * Grown out of src/png (where CRC-32 and Adler-32 guarded PNG chunks
 * and zlib containers) into a common utility once the fault-injection
 * campaign (src/fault, docs/FAULTS.md) showed the rest of the pipeline
 * needed the same defenses: sealed BD bitstreams, checksummed
 * eccentricity state, and verified service queue slots all detect
 * silent bit flips with the primitives below.
 *
 * Three checksums, chosen by surface:
 *  - Crc32 / crc32: CRC-32 (ISO 3309, the PNG chunk polynomial).
 *    Guaranteed detection of any burst shorter than 32 bits and of all
 *    1-3 bit flips at the stream sizes this repo seals (Hamming
 *    distance >= 4 below ~11 KB, >= 3 far beyond); the right choice
 *    for compact delivered artifacts (BD bitstreams, PNG chunks).
 *  - Adler32 / adler32: the zlib checksum (RFC 1950), kept for the
 *    PNG/zlib container format which mandates it.
 *  - hash64: a fast 64-bit mixing checksum for *large in-memory*
 *    surfaces (eccentricity maps, frame buffers, queue-slot input
 *    copies) where CRC table lookups would cost real per-frame time.
 *    Word-parallel (no sequential carry chain), position-dependent,
 *    and guaranteed to change when any bits within one aligned 8-byte
 *    word flip (the per-word mix is bijective); flips spread across
 *    words collide with probability ~2^-64.
 */

#ifndef PCE_COMMON_INTEGRITY_HH
#define PCE_COMMON_INTEGRITY_HH

#include <cstdint>
#include <cstddef>

namespace pce {

/** How Crc32::update folds the input. Both give the same value. */
enum class CrcPath
{
    Tables,  ///< slicing-by-8 tables, eight bytes per step, any CPU
    Clmul,   ///< carry-less multiply (x86 PCLMULQDQ), 64 bytes per step
};

/** Path name for reports and bench records ("tables" / "clmul"). */
const char *crcPathName(CrcPath path);

/**
 * The path CRCs take by default, decided once per process: Clmul when
 * CPUID reports PCLMULQDQ, unless FOVE_SIMD=off (or scalar / 0) selects
 * the tables.
 */
CrcPath activeCrcPath();

/** @p requested, or Tables when this CPU cannot run it. */
CrcPath effectiveCrcPath(CrcPath requested);

/**
 * Incrementally updatable CRC-32 as used by PNG. On the Clmul path
 * update() folds the 16-byte blocks of an input of 64 bytes or more by
 * carry-less multiply (Intel, "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ"); the tail and shorter inputs go eight
 * bytes per step through slicing-by-8 tables. The value is the same as
 * the byte-at-a-time form for any split of the input, either path and
 * any host byte order.
 */
class Crc32
{
  public:
    explicit Crc32(CrcPath path = activeCrcPath())
        : path_(effectiveCrcPath(path))
    {}

    /** Feed @p n bytes. */
    void update(const uint8_t *data, std::size_t n);

    /** Final checksum value. */
    uint32_t value() const { return state_ ^ 0xffffffffu; }

  private:
    CrcPath path_;
    uint32_t state_ = 0xffffffffu;
};

/** One-shot CRC-32 of a buffer. */
uint32_t crc32(const uint8_t *data, std::size_t n,
               CrcPath path = activeCrcPath());

/** Incrementally updatable Adler-32 as used by zlib (RFC 1950). */
class Adler32
{
  public:
    void update(const uint8_t *data, std::size_t n);
    uint32_t value() const { return (b_ << 16) | a_; }

  private:
    uint32_t a_ = 1;
    uint32_t b_ = 0;
};

/** One-shot Adler-32 of a buffer. */
uint32_t adler32(const uint8_t *data, std::size_t n);

/**
 * Fast 64-bit checksum of an arbitrary memory range (see the file
 * comment for the detection guarantees). Deterministic across runs
 * and platforms of the same endianness; @p data needs no alignment.
 */
uint64_t hash64(const void *data, std::size_t n);

/**
 * Copy @p n bytes from @p src to @p dst and return hash64(dst, n),
 * reading the source once: each word is folded as it is stored. The
 * ranges must not overlap; neither needs alignment.
 */
uint64_t copyHash64(const void *src, void *dst, std::size_t n);

} // namespace pce

#endif // PCE_COMMON_INTEGRITY_HH

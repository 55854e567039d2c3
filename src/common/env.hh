/**
 * @file
 * Environment-variable configuration helpers.
 *
 * The benchmark harness renders frames whose resolution dominates run
 * time. To let users scale experiments (e.g. CI vs. full reproduction),
 * benches read sizes from PCE_* environment variables with sensible
 * defaults via these helpers.
 */

#ifndef PCE_COMMON_ENV_HH
#define PCE_COMMON_ENV_HH

#include <string>

namespace pce {

/** Read an integer environment variable, falling back to @p def. */
long envInt(const char *name, long def);

/** Read a floating-point environment variable, falling back to @p def. */
double envDouble(const char *name, double def);

/** Read a string environment variable, falling back to @p def. */
std::string envString(const char *name, const std::string &def);

/**
 * True when the FOVE_SIMD override selects the portable paths ("off",
 * "scalar" or "0"): the scalar tile kernels, the portable BD bit path,
 * the table CRC-32 and hash64's one-word loop. Read on every call.
 */
bool envSimdOff();

} // namespace pce

#endif // PCE_COMMON_ENV_HH

#include "common/env.hh"

#include <cstdlib>

namespace pce {

long
envInt(const char *name, long def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    return end && *end == '\0' ? parsed : def;
}

double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    return end && *end == '\0' ? parsed : def;
}

std::string
envString(const char *name, const std::string &def)
{
    const char *v = std::getenv(name);
    return v && *v ? std::string(v) : def;
}

bool
envSimdOff()
{
    const std::string v = envString("FOVE_SIMD", "auto");
    return v == "off" || v == "scalar" || v == "0";
}

} // namespace pce

/**
 * @file
 * The one sanctioned doorway to the process environment.
 *
 * Ambient `std::getenv` calls scattered through the engine made
 * configuration untestable and per-session overrides impossible; the
 * context refactor confines environment access to the entry layer
 * (CLI / engine-context construction), which reads through these
 * helpers exactly once and carries the values in explicit config.
 * tools/check_globals.sh enforces the boundary.
 */

#ifndef SRSIM_UTIL_ENV_HH_
#define SRSIM_UTIL_ENV_HH_

#include <cstdlib>
#include <optional>
#include <string>

namespace srsim {

/** @return the variable's value, or nullopt when unset or empty. */
inline std::optional<std::string>
envString(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return std::nullopt;
    return std::string(v);
}

} // namespace srsim

#endif // SRSIM_UTIL_ENV_HH_

/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 convention: fatal() reports a user-caused condition and
 * exits cleanly; panic() reports an internal invariant violation and aborts.
 */

#ifndef MAXK_COMMON_LOGGING_HH
#define MAXK_COMMON_LOGGING_HH

#include <sstream>
#include <string>
#include <string_view>

namespace maxk
{

/** Severity for log(). */
enum class LogLevel { Debug, Info, Warn, Error };

/** Global minimum level; messages below it are suppressed. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Emit a log line (to stderr) at the given severity. */
void logMessage(LogLevel level, const std::string &msg);

/**
 * Terminate due to a user-visible misconfiguration (bad argument, bad
 * input file). Exits with status 1.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Terminate due to an internal bug (broken invariant). Aborts so that a
 * debugger or core dump captures the state.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Check a runtime invariant; panic with a formatted message on failure.
 * Kept as a function (not a macro) so call sites stay expression-like.
 * A string_view so that a literal message costs no heap allocation when
 * the check passes (per-row kernels call this on every row).
 */
inline void
checkInvariant(bool ok, std::string_view msg)
{
    if (!ok)
        panic(std::string(msg));
}

} // namespace maxk

#endif // MAXK_COMMON_LOGGING_HH

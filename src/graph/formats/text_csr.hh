/**
 * @file
 * The project's plain-text CSR format ("maxk-csr"), behind the
 * Expected/IoError path:
 *
 *   line 1: "maxk-csr 1 <numNodes> <numEdges>"
 *   line 2: numNodes+1 white-space separated rowPtr entries
 *   line 3: numEdges column indices
 *   line 4 (optional): numEdges fp32 edge values
 *
 * Tokens may in fact wrap lines arbitrarily (the format is token-, not
 * line-oriented) and CRLF endings are accepted. Unlike the legacy
 * loader, anything after the payload — including a non-numeric token
 * where the optional values block would start — is an error instead of
 * being silently ignored.
 */

#ifndef MAXK_GRAPH_FORMATS_TEXT_CSR_HH
#define MAXK_GRAPH_FORMATS_TEXT_CSR_HH

#include <string>

#include "graph/formats/io_error.hh"

namespace maxk::formats
{

/** Magic token opening a text-CSR file. */
inline constexpr const char *kTextCsrMagic = "maxk-csr";

/** Load a text-CSR graph; never terminates the process. */
GraphResult loadTextCsr(const std::string &path);

/** Parse text-CSR content already in memory (`path` labels errors). */
GraphResult parseTextCsr(std::string_view data, const std::string &path);

/**
 * Serialise to text CSR. Values are printed with %.9g so an fp32
 * round-trip is bitwise exact. Returns false on I/O failure.
 */
bool saveTextCsr(const CsrGraph &g, const std::string &path,
                 bool with_values = true);

} // namespace maxk::formats

#endif // MAXK_GRAPH_FORMATS_TEXT_CSR_HH

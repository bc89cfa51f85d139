/**
 * @file
 * Error taxonomy for the dataset-ingestion layer. Every loader in
 * graph/formats returns Expected<CsrGraph, IoError> so that malformed
 * input is a *value* the caller (and the test suite) can inspect, not a
 * process exit. A caller that cannot go on without the graph (the
 * dataset registry, the CLIs) turns the error into one itself.
 */

#ifndef MAXK_GRAPH_FORMATS_IO_ERROR_HH
#define MAXK_GRAPH_FORMATS_IO_ERROR_HH

#include <cstdint>
#include <string>

#include "common/expected.hh"
#include "graph/csr.hh"

namespace maxk
{

/** What went wrong while reading or writing a graph file. */
enum class IoErrorCode
{
    OpenFailed,       //!< file missing / unreadable / unwritable
    BadMagic,         //!< leading magic does not name a known format
    BadVersion,       //!< known magic, unsupported version
    BadHeader,        //!< header counts absent, unparsable, or absurd
    Truncated,        //!< file ends before the promised payload does
    ParseError,       //!< non-numeric token where a number is required
    RangeError,       //!< node/column index out of [0, numNodes)
    CountMismatch,    //!< rowPtr/nnz/edge counts disagree
    DuplicateEdge,    //!< strict (dedup-off) load saw a repeated edge
    TrailingData,     //!< well-formed payload followed by garbage
    ChecksumMismatch, //!< binary payload does not hash to the header value
    WriteFailed,      //!< output stream failed mid-write
};

/** Stable name for an IoErrorCode (test assertions, CLI output). */
const char *ioErrorCodeName(IoErrorCode code);

/** A failed graph I/O operation: code + location + human message. */
struct IoError
{
    IoErrorCode code = IoErrorCode::OpenFailed;
    std::string path;        //!< file the failure occurred in
    std::uint64_t line = 0;  //!< 1-based line for text formats, 0 = n/a
    std::string message;     //!< human-readable detail

    /** One-line rendering: "path:line: message [code]". */
    std::string describe() const;
};

/** The result type every graph loader returns. */
using GraphResult = Expected<CsrGraph, IoError>;

} // namespace maxk

#endif // MAXK_GRAPH_FORMATS_IO_ERROR_HH

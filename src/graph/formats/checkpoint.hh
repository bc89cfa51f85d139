/**
 * @file
 * Checksummed sectioned checkpoint container (".maxkckpt") — the
 * persistence half of the fault-tolerance subsystem (ISSUE 9).
 *
 * Layout (little-endian):
 *   bytes 0..7  magic "MAXKCKPT"
 *   u32          version (currently 1)
 *   u32          section count
 *   per section, sequentially:
 *     u32        name length
 *     bytes      name (UTF-8, no NUL)
 *     u64        payload bytes
 *     u64        FNV-1a 64 checksum of the payload
 *     payload
 *
 * Every section is independently checksummed, so corruption reports
 * name the damaged section and the byte offset where its payload
 * starts. Loading never terminates the process: every failure is a
 * typed IoError value (the .maxkb stance, reused).
 *
 * CheckpointStore layers crash-safe retention on top: atomic
 * write-temp-then-rename, keep-last-N pruning, and loadLatest() that
 * falls back to the previous good checkpoint when the newest one is
 * truncated or bit-flipped. Fault hooks (site "checkpoint.write")
 * let the injection subsystem corrupt images deterministically.
 */

#ifndef MAXK_GRAPH_FORMATS_CHECKPOINT_HH
#define MAXK_GRAPH_FORMATS_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "graph/formats/io_error.hh"
#include "tensor/matrix.hh"

namespace maxk::formats
{

/** Leading bytes of a .maxkckpt file. */
inline constexpr char kCheckpointMagic[8] = {'M', 'A', 'X', 'K',
                                             'C', 'K', 'P', 'T'};

/** Preferred file extension for checkpoint images. */
inline constexpr const char *kCheckpointExtension = ".maxkckpt";

/**
 * An in-memory checkpoint image: named byte sections plus typed
 * helpers for the shapes the trainers persist. Section payloads are
 * raw std::vector<std::uint8_t> buffers (untracked by AllocProbe), and
 * set() reuses an existing section's capacity, so repeated saves of a
 * fixed-shape trainer state perform zero tracked allocations after the
 * first — the contract bench_checkpoint pins.
 */
class Checkpoint
{
  public:
    Checkpoint() = default;

    /** Overwrite-or-create section `name` with a copy of the bytes. */
    void set(const std::string &name, const void *data,
             std::size_t bytes);

    bool has(const std::string &name) const;

    /** Payload of section `name`; typed IoError when absent. */
    Expected<const std::vector<std::uint8_t> *, IoError>
    section(const std::string &name) const;

    /* Typed helpers (little-endian raw encodings). */
    void setU64(const std::string &name, std::uint64_t v);
    Expected<std::uint64_t, IoError> getU64(const std::string &name) const;

    void setU64s(const std::string &name,
                 const std::vector<std::uint64_t> &v);
    Expected<std::vector<std::uint64_t>, IoError>
    getU64s(const std::string &name) const;
    /** Typed error unless section `name` holds exactly `count` u64
     *  words (no decode). */
    Expected<std::monostate, IoError>
    checkU64s(const std::string &name, std::size_t count) const;

    void setDoubles(const std::string &name,
                    const std::vector<double> &v);
    Expected<std::vector<double>, IoError>
    getDoubles(const std::string &name) const;

    void setU32s(const std::string &name,
                 const std::vector<std::uint32_t> &v);
    Expected<std::vector<std::uint32_t>, IoError>
    getU32s(const std::string &name) const;

    /** Matrix section: u64 rows, u64 cols, rows*cols f32 payload. */
    void setMatrix(const std::string &name, const Matrix &m);
    /** (rows, cols) of a matrix section whose payload matches its
     *  shape header, without decoding it. */
    Expected<std::pair<std::uint64_t, std::uint64_t>, IoError>
    matrixShape(const std::string &name) const;
    /** Restores into `m` via ensureShape (no tracked allocation when
     *  the shape already matches). */
    Expected<std::monostate, IoError>
    getMatrix(const std::string &name, Matrix &m) const;

    /** Serialise to the container byte layout (reuses `out`'s
     *  capacity). */
    void encode(std::vector<std::uint8_t> &out) const;

    /** Parse a container image; `path` labels errors. */
    static Expected<Checkpoint, IoError>
    decode(const std::vector<std::uint8_t> &bytes,
           const std::string &path);

    /**
     * Atomic save: encode, apply any scheduled checkpoint-write fault
     * (site "checkpoint.write": CheckpointTruncate cuts `payload`
     * bytes off the tail, CheckpointBitFlip flips bit `payload % size`),
     * write to `path + ".tmp"`, then rename over `path`. Returns the
     * byte count written.
     */
    Expected<std::uint64_t, IoError>
    save(const std::string &path, FaultInjector *faults = nullptr) const;

    /** Load + validate every section checksum. */
    static Expected<Checkpoint, IoError> load(const std::string &path);

    std::size_t sectionCount() const { return names_.size(); }

    /** Encoded size of the current image (header + all sections). */
    std::uint64_t encodedBytes() const;

  private:
    // Parallel arrays, insertion-ordered: lookup is linear (checkpoint
    // images hold tens of sections, not thousands) and re-encoding is a
    // stable byte-for-byte function of the set() sequence.
    std::vector<std::string> names_;
    std::vector<std::vector<std::uint8_t>> payloads_;
    mutable std::vector<std::uint8_t> encodeWs_; //!< save() scratch

    std::int64_t indexOf(const std::string &name) const;
};

/**
 * Directory of rotated checkpoints: `dir/basename-<epoch>.maxkckpt`.
 * save() is atomic (temp + rename) and prunes to the newest keepLast
 * images; loadLatest() walks newest-to-oldest and returns the first
 * image whose checksums verify, so a corrupted newest checkpoint
 * degrades to the previous good one instead of failing the resume.
 */
class CheckpointStore
{
  public:
    CheckpointStore(std::string dir, std::string basename,
                    std::uint32_t keep_last = 2);

    /** Save `ck` as the epoch-`epoch` image; prune old images. */
    Expected<std::uint64_t, IoError>
    save(const Checkpoint &ck, std::uint64_t epoch,
         FaultInjector *faults = nullptr) const;

    struct Loaded
    {
        Checkpoint checkpoint;
        std::uint64_t epoch = 0;
    };

    /**
     * Newest verifiable checkpoint, or a typed error: NotFound-style
     * OpenFailed when no image exists, else the newest image's load
     * error when every image is corrupt. Corrupt-but-skipped images are
     * reported through `skipped` (for logging / tests) when non-null.
     */
    Expected<Loaded, IoError>
    loadLatest(std::vector<IoError> *skipped = nullptr) const;

    /** Epochs with an image on disk, ascending. */
    std::vector<std::uint64_t> epochsOnDisk() const;

    std::string pathFor(std::uint64_t epoch) const;
    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    std::string basename_;
    std::uint32_t keepLast_;
};

} // namespace maxk::formats

#endif // MAXK_GRAPH_FORMATS_CHECKPOINT_HH

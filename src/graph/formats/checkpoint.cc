#include "graph/formats/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "common/trace.hh"
#include "graph/formats/binary_csr.hh" // fnv1a64

namespace maxk::formats
{

namespace
{

constexpr std::uint32_t kCkptVersion = 1;
constexpr std::size_t kCkptHeaderBytes = 16; // magic + version + count

Unexpected<IoError>
fail(IoErrorCode code, const std::string &path, std::string msg)
{
    return unexpected(IoError{code, path, 0, std::move(msg)});
}

template <class T>
void
appendRaw(std::vector<std::uint8_t> &out, T v)
{
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &v, sizeof(T));
}

template <class T>
T
readRaw(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

void
appendBytes(std::vector<std::uint8_t> &out, const void *data,
            std::size_t bytes)
{
    const std::size_t at = out.size();
    out.resize(at + bytes);
    if (bytes != 0)
        std::memcpy(out.data() + at, data, bytes);
}

} // namespace

std::int64_t
Checkpoint::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<std::int64_t>(i);
    return -1;
}

void
Checkpoint::set(const std::string &name, const void *data,
                std::size_t bytes)
{
    std::int64_t idx = indexOf(name);
    if (idx < 0) {
        idx = static_cast<std::int64_t>(names_.size());
        names_.push_back(name);
        payloads_.emplace_back();
    }
    std::vector<std::uint8_t> &dst =
        payloads_[static_cast<std::size_t>(idx)];
    dst.resize(bytes); // shrinks reuse capacity; no tracked allocation
    if (bytes != 0)
        std::memcpy(dst.data(), data, bytes);
}

bool
Checkpoint::has(const std::string &name) const
{
    return indexOf(name) >= 0;
}

Expected<const std::vector<std::uint8_t> *, IoError>
Checkpoint::section(const std::string &name) const
{
    const std::int64_t idx = indexOf(name);
    if (idx < 0)
        return fail(IoErrorCode::BadHeader, "",
                    "checkpoint section '" + name + "' missing");
    return &payloads_[static_cast<std::size_t>(idx)];
}

void
Checkpoint::setU64(const std::string &name, std::uint64_t v)
{
    set(name, &v, sizeof(v));
}

Expected<std::uint64_t, IoError>
Checkpoint::getU64(const std::string &name) const
{
    auto sec = section(name);
    if (!sec)
        return unexpected(std::move(sec.error()));
    if ((*sec.value()).size() != sizeof(std::uint64_t))
        return fail(IoErrorCode::CountMismatch, "",
                    "checkpoint section '" + name + "' is not one u64");
    return readRaw<std::uint64_t>(sec.value()->data());
}

namespace
{

template <class T>
Expected<std::vector<T>, IoError>
getArray(const Checkpoint &ck, const std::string &name)
{
    auto sec = ck.section(name);
    if (!sec)
        return unexpected(std::move(sec.error()));
    const std::vector<std::uint8_t> &bytes = *sec.value();
    if (bytes.size() % sizeof(T) != 0)
        return unexpected(
            IoError{IoErrorCode::CountMismatch, "", 0,
                    "checkpoint section '" + name +
                        "' size is not a multiple of the element size"});
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty())
        std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
}

} // namespace

void
Checkpoint::setU64s(const std::string &name,
                    const std::vector<std::uint64_t> &v)
{
    set(name, v.data(), v.size() * sizeof(std::uint64_t));
}

Expected<std::vector<std::uint64_t>, IoError>
Checkpoint::getU64s(const std::string &name) const
{
    return getArray<std::uint64_t>(*this, name);
}

Expected<std::monostate, IoError>
Checkpoint::checkU64s(const std::string &name, std::size_t count) const
{
    auto sec = section(name);
    if (!sec)
        return unexpected(std::move(sec.error()));
    if (sec.value()->size() != count * sizeof(std::uint64_t))
        return fail(IoErrorCode::CountMismatch, "",
                    "checkpoint section '" + name + "' must hold " +
                        std::to_string(count) + " u64 words");
    return std::monostate{};
}

void
Checkpoint::setDoubles(const std::string &name,
                       const std::vector<double> &v)
{
    set(name, v.data(), v.size() * sizeof(double));
}

Expected<std::vector<double>, IoError>
Checkpoint::getDoubles(const std::string &name) const
{
    return getArray<double>(*this, name);
}

void
Checkpoint::setU32s(const std::string &name,
                    const std::vector<std::uint32_t> &v)
{
    set(name, v.data(), v.size() * sizeof(std::uint32_t));
}

Expected<std::vector<std::uint32_t>, IoError>
Checkpoint::getU32s(const std::string &name) const
{
    return getArray<std::uint32_t>(*this, name);
}

void
Checkpoint::setMatrix(const std::string &name, const Matrix &m)
{
    std::int64_t idx = indexOf(name);
    if (idx < 0) {
        idx = static_cast<std::int64_t>(names_.size());
        names_.push_back(name);
        payloads_.emplace_back();
    }
    std::vector<std::uint8_t> &dst =
        payloads_[static_cast<std::size_t>(idx)];
    dst.resize(16 + m.size() * sizeof(Float));
    const std::uint64_t rows = m.rows(), cols = m.cols();
    std::memcpy(dst.data(), &rows, 8);
    std::memcpy(dst.data() + 8, &cols, 8);
    if (m.size() != 0)
        std::memcpy(dst.data() + 16, m.data(),
                    m.size() * sizeof(Float));
}

Expected<std::pair<std::uint64_t, std::uint64_t>, IoError>
Checkpoint::matrixShape(const std::string &name) const
{
    auto sec = section(name);
    if (!sec)
        return unexpected(std::move(sec.error()));
    const std::vector<std::uint8_t> &bytes = *sec.value();
    if (bytes.size() < 16)
        return fail(IoErrorCode::Truncated, "",
                    "checkpoint matrix section '" + name +
                        "' too short for its shape header");
    const std::uint64_t rows = readRaw<std::uint64_t>(bytes.data());
    const std::uint64_t cols = readRaw<std::uint64_t>(bytes.data() + 8);
    if (bytes.size() != 16 + rows * cols * sizeof(Float))
        return fail(IoErrorCode::CountMismatch, "",
                    "checkpoint matrix section '" + name +
                        "' payload does not match its shape header");
    return std::pair{rows, cols};
}

Expected<std::monostate, IoError>
Checkpoint::getMatrix(const std::string &name, Matrix &m) const
{
    auto shape = matrixShape(name);
    if (!shape)
        return unexpected(std::move(shape.error()));
    const auto [rows, cols] = shape.value();
    m.ensureShape(static_cast<std::size_t>(rows),
                  static_cast<std::size_t>(cols));
    if (rows * cols != 0)
        std::memcpy(m.data(), section(name).value()->data() + 16,
                    rows * cols * sizeof(Float));
    return std::monostate{};
}

void
Checkpoint::encode(std::vector<std::uint8_t> &out) const
{
    out.clear();
    appendBytes(out, kCheckpointMagic, sizeof(kCheckpointMagic));
    appendRaw(out, kCkptVersion);
    appendRaw(out, static_cast<std::uint32_t>(names_.size()));
    for (std::size_t i = 0; i < names_.size(); ++i) {
        const std::string &name = names_[i];
        const std::vector<std::uint8_t> &payload = payloads_[i];
        appendRaw(out, static_cast<std::uint32_t>(name.size()));
        appendBytes(out, name.data(), name.size());
        appendRaw(out, static_cast<std::uint64_t>(payload.size()));
        appendRaw(out, fnv1a64(payload.data(), payload.size()));
        appendBytes(out, payload.data(), payload.size());
    }
}

std::uint64_t
Checkpoint::encodedBytes() const
{
    std::uint64_t total = kCkptHeaderBytes;
    for (std::size_t i = 0; i < names_.size(); ++i)
        total += 4 + names_[i].size() + 16 + payloads_[i].size();
    return total;
}

Expected<Checkpoint, IoError>
Checkpoint::decode(const std::vector<std::uint8_t> &bytes,
                   const std::string &path)
{
    if (bytes.size() < kCkptHeaderBytes)
        return fail(IoErrorCode::Truncated, path,
                    "file too short for the 16-byte checkpoint header (" +
                        std::to_string(bytes.size()) + " bytes)");
    if (std::memcmp(bytes.data(), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0)
        return fail(IoErrorCode::BadMagic, path,
                    "leading bytes are not the MAXKCKPT magic");
    const std::uint32_t version = readRaw<std::uint32_t>(bytes.data() + 8);
    if (version != kCkptVersion)
        return fail(IoErrorCode::BadVersion, path,
                    "unsupported checkpoint version " +
                        std::to_string(version));
    const std::uint32_t count = readRaw<std::uint32_t>(bytes.data() + 12);

    Checkpoint ck;
    std::size_t at = kCkptHeaderBytes;
    for (std::uint32_t s = 0; s < count; ++s) {
        auto need = [&](std::size_t n, const char *what)
            -> Expected<std::monostate, IoError> {
            if (bytes.size() - at < n)
                return fail(IoErrorCode::Truncated, path,
                            "section " + std::to_string(s) + ": file ends inside " +
                                what + " (offset " + std::to_string(at) +
                                ")");
            return std::monostate{};
        };
        if (auto r = need(4, "the name length"); !r)
            return unexpected(std::move(r.error()));
        const std::uint32_t name_len =
            readRaw<std::uint32_t>(bytes.data() + at);
        at += 4;
        if (auto r = need(name_len, "the section name"); !r)
            return unexpected(std::move(r.error()));
        std::string name(reinterpret_cast<const char *>(bytes.data() + at),
                         name_len);
        at += name_len;
        if (auto r = need(16, "the section size/checksum"); !r)
            return unexpected(std::move(r.error()));
        const std::uint64_t payload_bytes =
            readRaw<std::uint64_t>(bytes.data() + at);
        const std::uint64_t want_sum =
            readRaw<std::uint64_t>(bytes.data() + at + 8);
        at += 16;
        if (bytes.size() - at < payload_bytes)
            return fail(IoErrorCode::Truncated, path,
                        "section '" + name + "' payload truncated at byte offset " +
                            std::to_string(at) + " (" +
                            std::to_string(payload_bytes) +
                            " bytes promised, " +
                            std::to_string(bytes.size() - at) +
                            " present)");
        const std::uint64_t got_sum =
            fnv1a64(bytes.data() + at, payload_bytes);
        if (got_sum != want_sum)
            return fail(IoErrorCode::ChecksumMismatch, path,
                        "section '" + name +
                            "' checksum mismatch at byte offset " +
                            std::to_string(at) + " (file says " +
                            std::to_string(want_sum) + ", computed " +
                            std::to_string(got_sum) + ")");
        ck.set(name, bytes.data() + at,
               static_cast<std::size_t>(payload_bytes));
        at += payload_bytes;
    }
    if (at != bytes.size())
        return fail(IoErrorCode::TrailingData, path,
                    std::to_string(bytes.size() - at) +
                        " trailing bytes after the last section");
    return ck;
}

Expected<std::uint64_t, IoError>
Checkpoint::save(const std::string &path, FaultInjector *faults) const
{
    encode(encodeWs_);

    // Scheduled checkpoint-write corruption: applied to the in-memory
    // image so the on-disk file is damaged exactly the way a torn write
    // or a flaky medium would damage it — and so deterministically that
    // the recovery test can assert which image is bad.
    if (faults) {
        if (const FaultSpec *s = faults->fire("checkpoint.write")) {
            if (s->kind == FaultKind::CheckpointTruncate) {
                const std::size_t cut = std::min<std::size_t>(
                    encodeWs_.size(),
                    static_cast<std::size_t>(s->payload));
                encodeWs_.resize(encodeWs_.size() - cut);
                logMessage(LogLevel::Warn,
                           "checkpoint.save: injected truncation of " +
                               std::to_string(cut) + " bytes on " + path);
            } else if (s->kind == FaultKind::CheckpointBitFlip) {
                const std::size_t bit =
                    static_cast<std::size_t>(s->payload) %
                    (encodeWs_.size() * 8);
                encodeWs_[bit / 8] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
                logMessage(LogLevel::Warn,
                           "checkpoint.save: injected bit flip at bit " +
                               std::to_string(bit) + " on " + path);
            } else {
                throw InjectedFault(*s);
            }
        }
    }

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return fail(IoErrorCode::OpenFailed, tmp,
                        "cannot open for writing");
        out.write(reinterpret_cast<const char *>(encodeWs_.data()),
                  static_cast<std::streamsize>(encodeWs_.size()));
        if (!out)
            return fail(IoErrorCode::WriteFailed, tmp,
                        "write failed mid-image");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        return fail(IoErrorCode::WriteFailed, path,
                    "rename from temp failed: " + ec.message());
    return static_cast<std::uint64_t>(encodeWs_.size());
}

Expected<Checkpoint, IoError>
Checkpoint::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(IoErrorCode::OpenFailed, path,
                    "cannot open for reading");
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (!in)
        return fail(IoErrorCode::Truncated, path,
                    "read failed before the file ended");
    auto ck = decode(bytes, path);
    if (!ck)
        return unexpected(std::move(ck.error()));
    return std::move(ck.value());
}

/* ------------------------------------------------- CheckpointStore -- */

CheckpointStore::CheckpointStore(std::string dir, std::string basename,
                                 std::uint32_t keep_last)
    : dir_(std::move(dir)), basename_(std::move(basename)),
      keepLast_(std::max<std::uint32_t>(keep_last, 1))
{
    checkInvariant(!dir_.empty() && !basename_.empty(),
                   "CheckpointStore: empty dir or basename");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
}

std::string
CheckpointStore::pathFor(std::uint64_t epoch) const
{
    return dir_ + "/" + basename_ + "-" + std::to_string(epoch) +
           kCheckpointExtension;
}

std::vector<std::uint64_t>
CheckpointStore::epochsOnDisk() const
{
    std::vector<std::uint64_t> epochs;
    const std::string prefix = basename_ + "-";
    const std::string suffix = kCheckpointExtension;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= prefix.size() + suffix.size())
            continue;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        const std::string digits = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        epochs.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
    std::sort(epochs.begin(), epochs.end());
    return epochs;
}

Expected<std::uint64_t, IoError>
CheckpointStore::save(const Checkpoint &ck, std::uint64_t epoch,
                      FaultInjector *faults) const
{
    MAXK_TRACE_SCOPE("checkpoint.save");
    auto bytes = ck.save(pathFor(epoch), faults);
    if (bytes && maxk::telemetry::armed())
        maxk::telemetry::counterAdd("checkpoint.saved_bytes",
                                    bytes.value());
    if (!bytes)
        return bytes;
    // Keep-last-N retention: prune the oldest images beyond the window.
    std::vector<std::uint64_t> epochs = epochsOnDisk();
    if (epochs.size() > keepLast_) {
        for (std::size_t i = 0; i + keepLast_ < epochs.size(); ++i) {
            std::error_code ec;
            std::filesystem::remove(pathFor(epochs[i]), ec);
        }
    }
    return bytes;
}

Expected<CheckpointStore::Loaded, IoError>
CheckpointStore::loadLatest(std::vector<IoError> *skipped) const
{
    MAXK_TRACE_SCOPE("checkpoint.restore");
    const std::vector<std::uint64_t> epochs = epochsOnDisk();
    if (epochs.empty())
        return fail(IoErrorCode::OpenFailed, dir_,
                    "no '" + basename_ + "-<epoch>" + kCheckpointExtension +
                        "' checkpoint found");
    IoError newest_error;
    bool have_error = false;
    for (std::size_t i = epochs.size(); i-- > 0;) {
        auto ck = Checkpoint::load(pathFor(epochs[i]));
        if (ck)
            return Loaded{std::move(ck.value()), epochs[i]};
        logMessage(LogLevel::Warn,
                   "CheckpointStore: skipping corrupt checkpoint: " +
                       ck.error().describe());
        if (skipped)
            skipped->push_back(ck.error());
        if (!have_error) {
            newest_error = std::move(ck.error());
            have_error = true;
        }
    }
    return unexpected(std::move(newest_error));
}

} // namespace maxk::formats

#include "src/trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>

namespace sac {
namespace trace {

namespace {

constexpr std::uint32_t traceMagic = 0x53414354; // "SACT"
constexpr std::uint32_t traceVersion = 2;

/** On-disk bytes of one packed record, matching writeTrace(): addr,
    ref, delta, size, type, tags, spatialLevel. */
constexpr std::uint64_t recordDiskBytes =
    sizeof(Addr) + sizeof(RefId) + sizeof(std::uint16_t) +
    4 * sizeof(std::uint8_t);

/**
 * Bytes left in @p is from the current position, or nullopt when the
 * stream is not seekable. Unseekable (pipe-fed) streams are left
 * readable: a failed probe seek would otherwise set failbit and
 * poison every subsequent sequential read, so any fail state the
 * probe itself caused is cleared and the position restored before
 * reporting "unknown".
 */
std::optional<std::uint64_t>
remainingBytes(std::istream &is)
{
    if (!is)
        return std::nullopt;
    const auto here = is.tellg();
    if (here == std::istream::pos_type(-1)) {
        is.clear();
        return std::nullopt;
    }
    is.seekg(0, std::ios::end);
    if (!is) {
        // Streams that can tell but not seek (single-direction
        // filters) land here: un-poison and stay at the old position.
        is.clear();
        is.seekg(here);
        is.clear();
        return std::nullopt;
    }
    const auto end = is.tellg();
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || end < here)
        return std::nullopt;
    return static_cast<std::uint64_t>(end - here);
}

template <typename T>
void
writeScalar(std::ostream &os, T v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
readScalar(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return static_cast<bool>(is);
}

} // namespace

bool
writeTrace(const Trace &t, std::ostream &os)
{
    writeScalar(os, traceMagic);
    writeScalar(os, traceVersion);
    const auto name_len = static_cast<std::uint32_t>(t.name().size());
    writeScalar(os, name_len);
    os.write(t.name().data(), name_len);
    writeScalar(os, static_cast<std::uint64_t>(t.size()));
    for (const auto &r : t) {
        writeScalar(os, r.addr);
        writeScalar(os, r.ref);
        writeScalar(os, r.delta);
        writeScalar(os, static_cast<std::uint8_t>(r.size));
        writeScalar(os, static_cast<std::uint8_t>(r.type));
        const std::uint8_t tags = static_cast<std::uint8_t>(
            (r.temporal ? 1u : 0u) | (r.spatial ? 2u : 0u));
        writeScalar(os, tags);
        writeScalar(os, r.spatialLevel);
    }
    return static_cast<bool>(os);
}

bool
writeTraceFile(const Trace &t, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTrace(t, os);
}

bool
TraceStreamReader::open(std::istream &is)
{
    is_ = nullptr;
    failed_ = false;
    read_ = 0;
    std::uint32_t magic = 0, version = 0, name_len = 0;
    if (!readScalar(is, magic) || magic != traceMagic)
        return false;
    if (!readScalar(is, version) || version != traceVersion)
        return false;
    if (!readScalar(is, name_len) || name_len > (1u << 20))
        return false;
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!is)
        return false;
    if (!readScalar(is, count_))
        return false;
    name_ = std::move(name);
    is_ = &is;
    return true;
}

std::size_t
TraceStreamReader::read(Record *out, std::size_t max)
{
    if (!is_ || failed_)
        return 0;
    std::size_t n = 0;
    while (n < max && read_ < count_) {
        Record r;
        std::uint8_t size = 0, type = 0, tags = 0;
        if (!readScalar(*is_, r.addr) || !readScalar(*is_, r.ref) ||
            !readScalar(*is_, r.delta) || !readScalar(*is_, size) ||
            !readScalar(*is_, type) || !readScalar(*is_, tags) ||
            !readScalar(*is_, r.spatialLevel)) {
            failed_ = true;
            return 0;
        }
        // The size field is 4 bits wide: a larger byte would wrap.
        if (size > maxRecordSize || (type != 1 && type != 2)) {
            failed_ = true;
            return 0;
        }
        r.size = size;
        r.type = static_cast<AccessType>(type);
        r.temporal = (tags & 1u) != 0;
        r.spatial = (tags & 2u) != 0;
        out[n++] = r;
        ++read_;
    }
    return n;
}

std::uint64_t
TraceStreamReader::skip(std::uint64_t n)
{
    if (!is_ || failed_)
        return 0;
    const std::uint64_t want = std::min(n, remaining());
    if (want == 0)
        return 0;
    if (const auto bytes = remainingBytes(*is_)) {
        // Seekable: clamp to the whole records physically present
        // before seeking. A file stream happily seeks past EOF, so
        // trusting the header count would claim records a truncated
        // body does not hold and only surface on the next read.
        const std::uint64_t present = *bytes / recordDiskBytes;
        const std::uint64_t s = std::min(want, present);
        if (s < want)
            failed_ = true; // header promises more than the body holds
        if (s == 0)
            return 0;
        is_->seekg(static_cast<std::streamoff>(s * recordDiskBytes),
                   std::ios::cur);
        if (!*is_) {
            failed_ = true;
            return 0;
        }
        read_ += s;
        return s;
    }
    // Unseekable (pipe-fed) stream: decode and discard. read() keeps
    // the truncation accounting honest (failed() on a short body).
    Record scratch[256];
    std::uint64_t skipped = 0;
    while (skipped < want) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(want - skipped,
                                    sizeof(scratch) /
                                        sizeof(scratch[0])));
        const std::size_t got = read(scratch, chunk);
        if (got == 0)
            break;
        skipped += got;
    }
    return skipped;
}

bool
readTrace(std::istream &is, Trace &out)
{
    TraceStreamReader reader;
    if (!reader.open(is))
        return false;

    // A corrupt header can carry an absurd count; bound it by the
    // bytes actually left in the stream so a 16-byte file cannot
    // demand a multi-GB reservation before the first record parses.
    std::uint64_t reservation = reader.count();
    if (const auto remaining = remainingBytes(is)) {
        if (reader.count() > *remaining / recordDiskBytes)
            return false;
    } else {
        // Unseekable stream: cap the up-front reservation and let
        // push() grow as records actually arrive (truncation is then
        // caught by the per-record reads below).
        reservation = std::min<std::uint64_t>(reader.count(), 1u << 16);
    }

    Trace t(reader.name());
    t.reserve(reservation);
    Record batch[512];
    while (reader.remaining() > 0) {
        const std::size_t n =
            reader.read(batch, sizeof(batch) / sizeof(batch[0]));
        if (n == 0)
            return false; // truncated or malformed body
        for (std::size_t i = 0; i < n; ++i)
            t.push(batch[i]);
    }
    out = std::move(t);
    return true;
}

bool
readTraceFile(const std::string &path, Trace &out)
{
    std::ifstream is(path, std::ios::binary);
    return is && readTrace(is, out);
}

} // namespace trace
} // namespace sac

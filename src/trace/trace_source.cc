#include "src/trace/trace_source.hh"

#include <algorithm>

namespace sac {
namespace trace {

std::size_t
MemoryTraceSource::next(Record *out, std::size_t max)
{
    const std::size_t n = std::min(max, view_->size() - pos_);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = (*view_)[pos_ + i];
    pos_ += n;
    return n;
}

std::uint64_t
MemoryTraceSource::skip(std::uint64_t n)
{
    const std::uint64_t left = view_->size() - pos_;
    const std::uint64_t s = std::min<std::uint64_t>(n, left);
    pos_ += static_cast<std::size_t>(s);
    return s;
}

FileTraceSource::FileTraceSource(const std::string &path)
    : is_(path, std::ios::binary)
{
    ok_ = is_ && reader_.open(is_);
}

std::size_t
FileTraceSource::next(Record *out, std::size_t max)
{
    if (!ok_)
        return 0;
    return reader_.read(out, max);
}

std::uint64_t
FileTraceSource::skip(std::uint64_t n)
{
    if (!ok_)
        return 0;
    return reader_.skip(n);
}

} // namespace trace
} // namespace sac

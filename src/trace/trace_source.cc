#include "src/trace/trace_source.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace sac {
namespace trace {

std::uint64_t
TraceSource::skip(std::uint64_t n)
{
    Record scratch[256];
    std::uint64_t skipped = 0;
    while (skipped < n) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - skipped,
                                    std::size(scratch)));
        const std::size_t got = next(scratch, want);
        if (got == 0)
            break;
        skipped += got;
    }
    return skipped;
}

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

std::optional<std::uint64_t>
FileTraceSource::sizeHint() const
{
    if (!ok_)
        return std::nullopt;
    return reader_.count();
}

ChunkQueue::ChunkQueue(std::size_t max_chunks)
    : cap_(max_chunks == 0 ? 1 : max_chunks)
{
}

bool
ChunkQueue::push(std::vector<Record> &&chunk)
{
    std::unique_lock<std::mutex> lock(m_);
    SAC_ASSERT(!closed_, "push() on a closed ChunkQueue");
    cv_.wait(lock, [&] { return q_.size() < cap_ || aborted_; });
    if (aborted_)
        return false;
    q_.push_back(std::move(chunk));
    cv_.notify_all();
    return true;
}

void
ChunkQueue::close()
{
    std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
    cv_.notify_all();
}

void
ChunkQueue::abort()
{
    std::lock_guard<std::mutex> lock(m_);
    aborted_ = true;
    q_.clear();
    cv_.notify_all();
}

bool
ChunkQueue::pop(std::vector<Record> &out)
{
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock,
             [&] { return !q_.empty() || closed_ || aborted_; });
    if (q_.empty())
        return false;
    out = std::move(q_.front());
    q_.pop_front();
    cv_.notify_all();
    return true;
}

GeneratorTraceSource::GeneratorTraceSource(
    std::string name, std::function<void(const RecordSink &)> produce,
    std::size_t chunk_records, std::size_t max_chunks)
    : name_(std::move(name)), queue_(max_chunks)
{
    SAC_ASSERT(chunk_records > 0, "chunk size must be positive");
    producer_ = std::thread(
        [this, produce = std::move(produce), chunk_records] {
            std::vector<Record> chunk;
            chunk.reserve(chunk_records);
            bool accepted = true;
            const RecordSink sink = [&](const Record &r) {
                if (!accepted)
                    return; // consumer gone; drop the rest
                chunk.push_back(r);
                if (chunk.size() >= chunk_records) {
                    accepted = queue_.push(std::move(chunk));
                    chunk = {};
                    chunk.reserve(chunk_records);
                }
            };
            produce(sink);
            if (accepted && !chunk.empty())
                queue_.push(std::move(chunk));
            queue_.close();
        });
}

GeneratorTraceSource::~GeneratorTraceSource()
{
    queue_.abort();
    producer_.join();
}

std::size_t
GeneratorTraceSource::next(Record *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max) {
        if (pos_ == chunk_.size()) {
            pos_ = 0;
            chunk_.clear();
            if (!queue_.pop(chunk_))
                break; // stream ended
            if (chunk_.empty())
                continue;
        }
        const std::size_t take = std::min(max - n, chunk_.size() - pos_);
        for (std::size_t i = 0; i < take; ++i)
            out[n + i] = chunk_[pos_ + i];
        n += take;
        pos_ += take;
    }
    return n;
}

Trace
drainToTrace(TraceSource &src)
{
    Trace t(src.name());
    if (const auto hint = src.sizeHint())
        t.reserve(static_cast<std::size_t>(*hint));
    std::vector<Record> batch(TraceSource::defaultChunkRecords);
    while (const std::size_t n = src.next(batch.data(), batch.size())) {
        for (std::size_t i = 0; i < n; ++i)
            t.push(batch[i]);
    }
    return t;
}

} // namespace trace
} // namespace sac

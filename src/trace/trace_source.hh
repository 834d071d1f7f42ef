/**
 * @file
 * Pull-based streaming trace sources: the simulation engine consumes
 * records in bounded chunks instead of materializing whole traces, so
 * peak memory of a sweep is independent of trace length.
 *
 * A TraceSource yields batches of records in issue order. Adapters
 * exist for the three producers in the tree:
 *  - MemoryTraceSource: an in-memory trace::Trace (view or owned);
 *  - FileTraceSource: a .sactrace file, decoded incrementally;
 *  - GeneratorTraceSource: a producer callback (e.g. the loop-nest
 *    interpreter) run on a background thread, bridged through a
 *    bounded ChunkQueue for backpressure.
 *
 * Sources are single-consumer and not thread-safe; the thread-safe
 * piece is the ChunkQueue, which is a bounded SPSC channel.
 */

#ifndef SAC_TRACE_TRACE_SOURCE_HH
#define SAC_TRACE_TRACE_SOURCE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/trace/trace.hh"
#include "src/trace/trace_io.hh"

namespace sac {
namespace trace {

/** Push-side callback: receives one record at a time, in issue order. */
using RecordSink = std::function<void(const Record &)>;

/** A pull-based, single-consumer stream of trace records. */
class TraceSource
{
  public:
    /** Default batch size used by chunked replay loops. */
    static constexpr std::size_t defaultChunkRecords = 4096;

    virtual ~TraceSource() = default;

    /**
     * Copy up to @p max records into @p out.
     * @return the number of records written; 0 means end of stream
     *         (a source never returns 0 before its end)
     */
    virtual std::size_t next(Record *out, std::size_t max) = 0;

    /**
     * Fast-forward past up to @p n records without delivering them
     * (the sampled engine's skip phase). The base implementation
     * decodes into a scratch buffer and discards; sources with random
     * access override it with a position bump.
     * @return records actually skipped. A short return means the
     *         stream produced no more records: failed() distinguishes
     *         the clean end of the trace (false) from a mid-stream
     *         decode error such as a truncated body (true), so
     *         callers never mistake lost records for a short trace.
     */
    virtual std::uint64_t skip(std::uint64_t n);

    /**
     * Did the stream end with a mid-stream error (truncated or
     * malformed body) rather than a clean end of trace? In-memory and
     * generated sources cannot fail; decoding sources override this.
     */
    virtual bool failed() const { return false; }

    /** Benchmark name of the underlying trace. */
    virtual const std::string &name() const = 0;

    /** Total record count when known up front (for reservations). */
    virtual std::optional<std::uint64_t> sizeHint() const
    {
        return std::nullopt;
    }
};

/**
 * Adapter over an in-memory Trace. The view constructor does not copy
 * the records; the caller keeps the trace alive. The owning
 * constructor moves the trace in.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    /** Non-owning view of @p t (which must outlive the source). */
    explicit MemoryTraceSource(const Trace &t) : view_(&t) {}

    /** Owning adapter: the trace is moved into the source. */
    explicit MemoryTraceSource(Trace &&t)
        : owned_(std::move(t)), view_(&owned_)
    {
    }

    std::size_t next(Record *out, std::size_t max) override;

    /** O(1) fast-forward: a position bump, no copying. */
    std::uint64_t skip(std::uint64_t n) override;

    const std::string &name() const override { return view_->name(); }
    std::optional<std::uint64_t> sizeHint() const override
    {
        return view_->size();
    }

    /** Rewind to the first record. */
    void reset() { pos_ = 0; }

  private:
    Trace owned_;
    const Trace *view_;
    std::size_t pos_ = 0;
};

/**
 * Adapter over a .sactrace file, decoding records incrementally (the
 * file is never loaded whole). Check ok() after construction; a
 * malformed or truncated body makes next() return 0 early with
 * failed() set.
 */
class FileTraceSource : public TraceSource
{
  public:
    explicit FileTraceSource(const std::string &path);

    /** Did the file open with a valid header? */
    bool ok() const { return ok_; }

    /** Did decoding fail mid-stream (malformed or truncated body)? */
    bool failed() const override { return reader_.failed(); }

    std::size_t next(Record *out, std::size_t max) override;

    /**
     * Seek-based fast-forward (fixed on-disk record size), clamped to
     * the records the body physically holds: a truncated file yields
     * a short return with failed() set, never a phantom skip past
     * EOF.
     */
    std::uint64_t skip(std::uint64_t n) override;

    const std::string &name() const override { return reader_.name(); }
    std::optional<std::uint64_t> sizeHint() const override;

  private:
    std::ifstream is_;
    TraceStreamReader reader_;
    bool ok_ = false;
};

/**
 * Bounded SPSC channel of record chunks. push() blocks while the
 * queue is at capacity (backpressure on the producer); pop() blocks
 * until a chunk or close() arrives. abort() unsticks a blocked
 * producer by discarding further chunks, for consumers that stop
 * early.
 */
class ChunkQueue
{
  public:
    /** @param max_chunks capacity in chunks (>= 1) */
    explicit ChunkQueue(std::size_t max_chunks = 4);

    /**
     * Enqueue @p chunk, blocking while the queue is full.
     * @return false when the queue was aborted (chunk discarded)
     */
    bool push(std::vector<Record> &&chunk);

    /** Producer is done; pop() drains then returns false. */
    void close();

    /** Discard current and future chunks; unblocks push() and pop(). */
    void abort();

    /**
     * Dequeue the next chunk into @p out (contents replaced).
     * @return false when the queue is closed/aborted and drained
     */
    bool pop(std::vector<Record> &out);

  private:
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<std::vector<Record>> q_;
    std::size_t cap_;
    bool closed_ = false;
    bool aborted_ = false;
};

/**
 * Adapter that runs a producer callback on a background thread and
 * streams its records through a bounded ChunkQueue — the loop-nest
 * generator adapter. Generation overlaps consumption; memory is
 * bounded by the queue capacity. If the source is destroyed before
 * the stream is drained, the producer's remaining output is discarded
 * and the thread joined.
 */
class GeneratorTraceSource : public TraceSource
{
  public:
    /**
     * @param name benchmark name reported by name()
     * @param produce called once on the background thread; must emit
     *        every record into the provided sink and return
     * @param chunk_records producer-side chunking granularity
     * @param max_chunks queue capacity (backpressure bound)
     */
    GeneratorTraceSource(std::string name,
                         std::function<void(const RecordSink &)> produce,
                         std::size_t chunk_records = defaultChunkRecords,
                         std::size_t max_chunks = 4);

    ~GeneratorTraceSource() override;

    std::size_t next(Record *out, std::size_t max) override;
    const std::string &name() const override { return name_; }

  private:
    std::string name_;
    ChunkQueue queue_;
    std::thread producer_;
    std::vector<Record> chunk_;
    std::size_t pos_ = 0;
};

/**
 * Drain @p src into an in-memory Trace (the inverse adapter, mostly
 * for tests and tools).
 */
Trace drainToTrace(TraceSource &src);

} // namespace trace
} // namespace sac

#endif // SAC_TRACE_TRACE_SOURCE_HH

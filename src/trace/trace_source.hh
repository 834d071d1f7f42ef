/**
 * @file
 * Pull-based streaming trace sources: the simulation engine consumes
 * records in bounded chunks instead of materializing whole traces, so
 * peak memory of a sweep is independent of trace length.
 *
 * A TraceSource yields batches of records in issue order. Adapters
 * exist for the two stored forms of a trace:
 *  - MemoryTraceSource: an in-memory trace::Trace (view or owned);
 *  - FileTraceSource: a .sactrace file, decoded incrementally.
 * A generator is not a source: it pushes records into a RecordSink
 * (harness::Runner chunks them on the consuming thread).
 *
 * Sources are single-consumer and not thread-safe.
 */

#ifndef SAC_TRACE_TRACE_SOURCE_HH
#define SAC_TRACE_TRACE_SOURCE_HH

#include <cstddef>
#include <fstream>
#include <functional>
#include <string>

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
     * (the sampled engine's skip phase).
     * @return records actually skipped. A short return means the
     *         stream produced no more records: failed() distinguishes
     *         the clean end of the trace (false) from a mid-stream
     *         decode error such as a truncated body (true), so
     *         callers never mistake lost records for a short trace.
     */
    virtual std::uint64_t skip(std::uint64_t n) = 0;

    /**
     * Did the stream end with a mid-stream error (truncated or
     * malformed body) rather than a clean end of trace? In-memory and
     * generated sources cannot fail; decoding sources override this.
     */
    virtual bool failed() const { return false; }

    /** Benchmark name of the underlying trace. */
    virtual const std::string &name() const = 0;
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

  private:
    std::ifstream is_;
    TraceStreamReader reader_;
    bool ok_ = false;
};

} // namespace trace
} // namespace sac

#endif // SAC_TRACE_TRACE_SOURCE_HH

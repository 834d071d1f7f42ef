/**
 * @file
 * Experiment harness: runs configuration x workload matrices with
 * trace and result caching, extracts named metrics, and renders the
 * results as aligned tables or CSV. The figure-reproduction benches
 * are thin clients of this library.
 */

#ifndef SAC_HARNESS_EXPERIMENT_HH
#define SAC_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/phase_timer.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"
#include "src/util/table.hh"

namespace sac {

namespace util {
class ThreadPool;
} // namespace util

namespace harness {

struct SweepRequest;
struct SweepResult;

/** A metric extracted from one simulation run. */
struct Metric
{
    std::string name;
    std::function<double(const sim::RunStats &)> extract;
    int decimals = 3;
};

/** The metrics the paper reports. */
Metric amatMetric();
Metric missRatioMetric();
Metric wordsPerAccessMetric();
Metric mainHitShareMetric();
Metric auxHitShareMetric();

/** A named trace source (generated lazily, cached per runner). */
struct Workload
{
    std::string name;
    std::function<trace::Trace()> build;
    /**
     * Optional streaming producer: emit every record into the sink
     * without materializing the trace. When set, runStreamed() keeps
     * memory bounded by the chunk size instead of the trace length.
     */
    std::function<void(const trace::RecordSink &)> stream;
};

/**
 * Runs sweep requests, caching each generated trace and each cell
 * result so requests sharing points are free.
 *
 * Thread safety: traceOf(), warmup() and run() may be called
 * concurrently from any number of threads. Each trace is generated
 * exactly once (a per-workload once-latch blocks concurrent
 * requesters until the first generation finishes) and each cell is
 * computed exactly once. Cells live in one store keyed on the engine
 * that produced them plus the canonical serialized configuration
 * (core::Config::cacheKey()), never on the display name, so two
 * configs sharing a label cannot alias, and an exact, a stack-derived
 * and a sampled result of the same (workload, config) never do
 * either.
 */
class Runner
{
  public:
    Runner() = default;

    /** The trace of @p w, generated on first use. Thread-safe. */
    const trace::Trace &traceOf(const Workload &w);

    /**
     * Pre-generate every trace of @p workloads (the "warmup" phase),
     * so subsequent sweeps measure simulation alone.
     */
    void warmup(const std::vector<Workload> &workloads);

    /**
     * THE sweep entry point: plan one batched request (route each
     * (workload, config) cell to the fastest eligible engine, see
     * EngineSelect in sweep.hh), execute the plan, emit the requested
     * telemetry, and return the rendered table plus every cell's
     * routing record and statistics. Stack families run serially on
     * the calling thread, one single-pass traversal per workload;
     * exact and sampled cells run on one pool of max(jobs, intra)
     * workers built for the request. The request must be valid
     * (SweepRequest::validationError()).
     */
    SweepResult run(const SweepRequest &request);

    /**
     * Streamed sweep: simulate @p w under every configuration in one
     * pass over the trace, never holding more than a bounded window
     * of records. The producer (w.stream when set, else a fallback
     * that generates via w.build and replays) runs on its own thread
     * feeding a bounded chunk queue; each popped chunk is fanned out
     * over the per-config simulators in at most @p jobs groups (<= 1
     * = serial), with a barrier per chunk so all simulators advance
     * in lockstep. Chunks are double-buffered: the next chunk is
     * pulled from the queue while the workers replay the current one.
     * Results are NOT cached (the cell store holds materialized-trace
     * results only; the two are bit-identical, as the streaming
     * differential tests prove).
     *
     * @return one RunStats per configuration, in @p configs order
     */
    std::vector<sim::RunStats>
    runStreamed(const Workload &w,
                const std::vector<core::Config> &configs,
                unsigned jobs = 0,
                std::size_t chunk_records =
                    trace::TraceSource::defaultChunkRecords);

    /** Number of simulations actually executed (not served cached). */
    std::size_t runsExecuted() const { return runsExecuted_.load(); }

    /**
     * Value of one of this runner's "stack.pass.*" telemetry
     * counters (0 when never incremented):
     *   stack.pass.traversals     single-pass traversals executed
     *   stack.pass.records        records profiled by those passes
     *   stack.pass.cells          cells served fresh from a pass
     *   stack.pass.cached_cells   cells served from the cell store
     *   stack.pass.fallback_cells exact-replay cells in stack sweeps
     */
    std::uint64_t stackCounter(const std::string &name) const;

    /**
     * Value of one of this runner's "checkpoint.*" telemetry counters
     * (0 when never incremented):
     *   checkpoint.hits    cells served from a valid library
     *   checkpoint.misses  cells that warmed and wrote a library
     *   checkpoint.stale   rejected libraries (bad key/version/file)
     *   checkpoint.bytes   bytes moved through .saclp files
     */
    std::uint64_t checkpointCounter(const std::string &name) const;

    /**
     * Value of one of this runner's "parallel.*" telemetry counters
     * (0 when never incremented) — the intra-trace parallelism
     * account:
     *   parallel.windows   detailed windows replayed concurrently
     *                      (checkpointed window-replay shards)
     *   parallel.shards    set-shard stack-pass slices executed
     *   parallel.merge_ns  nanoseconds spent merging parallel
     *                      partial results in deterministic order
     */
    std::uint64_t parallelCounter(const std::string &name) const;

    /** Number of traces actually generated. */
    std::size_t tracesGenerated() const
    {
        return tracesGenerated_.load();
    }

    /**
     * Wall-clock phase account of this runner: "trace-gen" (workload
     * builds), "warmup" (warmup() calls), "sim" (exact replays),
     * "stack-pass" (stack traversals), "sweep" (request execution)
     * and "report" (table and manifest rendering). Phase adds are
     * thread-safe.
     */
    const telemetry::PhaseTimer &phases() const { return phases_; }

  private:
    /** One store entry: computed exactly once, then immutable. */
    struct StoredCell
    {
        /** Latch of exact and sampled cells. */
        std::once_flag once;
        /**
         * Stack cells are filled by a whole-family pass instead (under
         * the workload's pass mutex); set once the stats are stored.
         */
        std::atomic<bool> filled{false};
        sim::RunStats stats;      //!< exact and stack cells
        sim::SampleReport report; //!< sampled cells
        double seconds = 0.0;     //!< wall seconds of the replay
    };

    /** A request's cells, each routed to an engine and a store slot. */
    struct Plan;

    /** Decide every cell's engine, stack family and store slot. */
    Plan plan(const SweepRequest &request);

    /** The store slot under @p key, created on first use. */
    StoredCell &slot(const std::string &key);

    /** Replay one exact cell into @p cell (once). */
    void replayCell(StoredCell &cell, const Workload &w,
                    const core::Config &cfg);

    /**
     * Estimate one sampled cell into @p cell (once), over the
     * live-point library at @p library_dir when non-empty (the
     * trace's content hash is @p trace_hash). When @p pool is given
     * with @p intra > 1, the live-point replay fans its detailed
     * windows out over it — the report stays bit-identical to the
     * serial path.
     */
    void sampleCell(StoredCell &cell, const Workload &w,
                    const core::Config &cfg, const SweepRequest &request,
                    const std::string &library_dir,
                    std::uint64_t trace_hash, util::ThreadPool *pool,
                    unsigned intra);

    /**
     * Run one stack pass over @p w covering every config of
     * @p family, storing the stats of each member slot not yet
     * filled. @p intra > 1 splits the pass into that many set-shard
     * slices (sim::StackDistanceEngine shard mode) run on @p pool and
     * absorbed in shard order — bit-identical counts.
     */
    void runStackFamily(
        const Workload &w,
        const std::vector<std::pair<const core::Config *, StoredCell *>>
            &family,
        unsigned intra, util::ThreadPool *pool);

    /** Add @p delta to counter @p name (registered on first use). */
    void count(const char *name, const char *desc, std::uint64_t delta);

    /** A once-latched trace slot: built exactly once, then immutable. */
    struct TraceSlot
    {
        std::once_flag once;
        trace::Trace value;
    };

    /** Guards the maps below (not the slots) and the counters. */
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<TraceSlot>> traces_;
    /** The one cell store (see the class comment for its key). */
    std::map<std::string, std::unique_ptr<StoredCell>> cells_;
    /**
     * One pass mutex per workload: the whole check-store / traverse /
     * fill-store sequence of runStackFamily() holds it, so concurrent
     * requests over the same workload share one traversal instead of
     * racing to duplicate it.
     */
    std::map<std::string, std::unique_ptr<std::mutex>> passMutexes_;
    /** stack.pass.*, checkpoint.* and parallel.* counters. */
    telemetry::CounterRegistry counters_;
    std::atomic<std::size_t> runsExecuted_{0};
    std::atomic<std::size_t> tracesGenerated_{0};
    telemetry::PhaseTimer phases_;
};

/**
 * The nine paper benchmarks as harness workloads, their traces
 * generated with timing seed @p seed.
 */
std::vector<Workload> paperWorkloads(std::uint64_t seed = 0x7ac3ull);

/**
 * Is @p cfg a member of the stack family — a configuration whose
 * miss counts a single-pass stack traversal reproduces exactly? True
 * for plain LRU set-associative caches on the Standard feature path
 * (no aux cache, no virtual lines, no prefetch, no bypass) without
 * the non-temporal replacement preference (which alters the victim
 * choice), in a power-of-two bit-selection geometry.
 */
bool stackFamilyEligible(const core::Config &cfg);

/**
 * Does @p metric derive purely from counts a stack pass determines
 * (misses, hits, traffic)? True for "miss ratio", "words/ref",
 * "main-hit share" and "aux-hit share"; false for timing metrics
 * like AMAT, which need the exact replay's cycle model.
 */
bool stackDerivableMetric(const Metric &metric);

/** The stack lattice point of @p cfg's main-array geometry. */
sim::StackPoint stackPointOf(const core::Config &cfg);

/**
 * The RunStats a stack pass implies for @p cfg: access/read/write
 * counts, misses, main hits and fetch traffic are exact; timing and
 * miss-class fields stay zero (a stack pass yields counts, not
 * cycles). @p cfg must be covered by @p eng's lattice.
 */
sim::RunStats stackStatsFor(const sim::StackDistanceEngine &eng,
                            const core::Config &cfg);

/** Time-resolved instrumentation of an exact cell manifest. */
struct InstrumentOptions
{
    /**
     * Interval-stats period in records: > 0 writes the sibling
     * `<manifest stem>.intervals.jsonl` time series. 0 = off.
     */
    std::uint64_t intervalRecords = 0;

    /** Embed the per-set heat profile ("profile" manifest block). */
    bool heatmap = false;
};

/** Render a table as RFC-4180-style CSV (quoted where needed). */
std::string toCsv(const util::Table &table);

/** Write a table to a CSV file; returns false on I/O failure. */
bool writeCsvFile(const util::Table &table, const std::string &path);

} // namespace harness
} // namespace sac

#endif // SAC_HARNESS_EXPERIMENT_HH

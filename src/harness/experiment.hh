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
#include <utility>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/phase_timer.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"
#include "src/util/table.hh"

namespace sac {
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

/**
 * A named trace source. build() materializes the trace (cached per
 * runner); the optional stream() emits the same records into a sink
 * without materializing them, which Runner::run() prefers for a
 * workload whose trace is not resident. records is the trace's length
 * when known before generation (0 = unknown): Runner::run() starts the
 * traversals of the longest traces first, streamed or resident.
 */
struct Workload
{
    std::string name;
    std::function<trace::Trace()> build;
    trace::RecordStream stream;
    std::size_t records = 0;
};

/**
 * Runs sweep requests, caching each generated trace and each cell
 * result so requests sharing points are free.
 *
 * Thread safety: traceOf(), warmup() and run() may be called
 * concurrently from any number of threads. Each trace is materialized
 * at most once (a per-workload once-latch blocks concurrent
 * requesters until the first generation finishes) and each cell is
 * computed exactly once: a per-cell claim latch lets one task compute
 * it while every other requester waits, and a claimer that throws
 * hands the cell back. Cells live in one store keyed on the engine
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
     * so subsequent sweeps measure simulation alone. Traces not yet
     * resident are built on up to @p jobs threads; each is built once.
     */
    void warmup(const std::vector<Workload> &workloads, unsigned jobs = 1);

    /**
     * THE sweep entry point: plan one batched request (route each
     * (workload, config) cell to the fastest eligible engine, see
     * EngineSelect in sweep.hh), execute the plan, emit the requested
     * telemetry, and return the rendered table plus every cell's
     * routing record and statistics. A workload's exact and stack
     * cells are served by chunked traversals of its trace, each one
     * pool task that feeds every chunk to a stack engine over its
     * stack cells and then to each of its exact simulators. The
     * cells are split into units: one per line group of the stack
     * family, one per exact cell. The records come from the resident
     * trace when this runner holds it (one traversal per unit), else
     * from Workload::stream on the task's thread (the units dealt
     * round-robin over one traversal, or jobs / workloads traversals
     * when there are fewer workloads than workers; the trace is never
     * materialized), else from traceOf() on the calling thread before
     * the fan-out. The exact simulators classify their misses by
     * shadow outcomes the traversal supplies, one
     * sim::MissClassifier pass per distinct (line size, capacity): a
     * resident trace's outcomes are latched per geometry on first use
     * and serve every later exact cell of that trace and geometry; a
     * streamed traversal classifies each chunk once per geometry.
     * Sampled cells are one task each. A live-point request also
     * queues one task per trace whose content hash (traceHashOf(),
     * part of the library key) is not latched yet and that has a
     * cell to compute, ahead of the cells, largest trace first; the
     * cells of the traces whose hashes finish last run last, and
     * each cell replays its library before it waits for the hash
     * (sampleCell()). The tasks run on one pool of jobs workers,
     * built only when more than one task can run in parallel, in two
     * rounds: the first claims and fills every cell a task can and
     * waits for none, the second waits for the cells that other
     * requests hold (settle()). The request must be valid
     * (SweepRequest::validationError()).
     */
    SweepResult run(const SweepRequest &request);

    /** Number of simulations actually executed (not served cached). */
    std::size_t runsExecuted() const { return runsExecuted_.load(); }

    /**
     * Value of one of this runner's "stack.pass.*" telemetry
     * counters (0 when never incremented):
     *   stack.pass.traversals     single-pass traversals executed,
     *                             one per line group (a workload's
     *                             family over three line sizes
     *                             counts three)
     *   stack.pass.records        records profiled by those passes
     *   stack.pass.mru_records    records whose line every set count
     *                             of their group already held at MRU
     *                             (the pass stopped at the first one)
     *   stack.pass.cells          cells served fresh from a pass
     *   stack.pass.cached_cells   cells served from the cell store
     *   stack.pass.fallback_cells exact-replay cells in stack sweeps
     */
    std::uint64_t stackCounter(const std::string &name) const;

    /**
     * Value of one of this runner's "classify.*" telemetry counters
     * (0 when never incremented):
     *   classify.passes   shadow classification passes (one per
     *                     resident trace and geometry, plus one per
     *                     geometry of each streamed traversal)
     *   classify.records  records those passes classified
     *   classify.bytes    bytes of latched outcomes (2 bits a record)
     */
    std::uint64_t classifyCounter(const std::string &name) const;

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
     * Value of one of this runner's "manifest.*" telemetry counters
     * (0 when never incremented):
     *   manifest.renders  manifest documents rendered by emission
     *   manifest.reuses   emissions served a stored cell's document
     *   manifest.bytes    bytes of the documents stored with cells
     */
    std::uint64_t manifestCounter(const std::string &name) const;

    /**
     * Number of generator runs: traces materialized by traceOf() plus
     * traversals that streamed a workload without materializing it.
     */
    std::size_t tracesGenerated() const
    {
        return tracesGenerated_.load();
    }

    /**
     * Wall-clock phase account of this runner: "trace-gen" (workload
     * builds, and the generator's share of streamed traversals),
     * "warmup" (warmup() calls), "sim" (exact replays), "classify"
     * (shadow outcome passes, shared by a traversal's exact cells and
     * so outside each cell's seconds), "stack-pass" (stack
     * traversals), "sweep" (request execution) and "report" (table
     * and manifest rendering). Phase adds are thread-safe.
     */
    const telemetry::PhaseTimer &phases() const { return phases_; }

  private:
    /**
     * One store entry: computed exactly once, then immutable. Its
     * latch moves Empty -> Running when a task claims the cell and
     * Running -> Filled once the results are stored; a claimer that
     * fails moves it back to Empty, so a waiter can claim it anew.
     */
    struct StoredCell
    {
        enum State
        {
            Empty,
            Running,
            Filled
        };
        std::atomic<State> state{Empty};
        sim::RunStats stats;      //!< exact and stack cells
        sim::SampleReport report; //!< sampled cells
        /** Wall seconds of the cell's own simulator (exact, sampled). */
        double seconds = 0.0;
        /**
         * Live-point cells: this cell's library outcome (hits, misses
         * and stale are each 0 or 1) and the bytes it moved.
         */
        struct
        {
            std::uint64_t hits = 0, misses = 0, stale = 0, bytes = 0;
        } checkpoint;

        /**
         * The cell's manifest document, with the inputs beyond the
         * store key that shaped it: the config's display name
         * (cacheKey() leaves it out) and a stack cell's family size
         * (set by the request). A live-point cell's checkpoint block
         * is the slot's own outcome, so it needs no entry here.
         */
        struct Rendered
        {
            std::string configName;
            std::size_t stackFamilySize = 0;
            std::string document;
        };
        /**
         * Installed by the cell's first emission once Filled, first
         * writer wins (every writer renders the same bytes), then
         * immutable until the slot dies.
         */
        std::atomic<const Rendered *> manifest{nullptr};

        StoredCell() = default;
        StoredCell(const StoredCell &) = delete;
        StoredCell &operator=(const StoredCell &) = delete;
        ~StoredCell() { delete manifest.load(); }
    };

    /** A request's cells, each routed to an engine and a store slot. */
    struct Plan;

    /** Writes and streams one request's manifests (see sweep.cc). */
    struct Emitter;

    /** One exact or stack cell of a workload traversal. */
    struct TraversalCell
    {
        const core::Config *config = nullptr;
        StoredCell *slot = nullptr;
        bool stack = false; //!< served by the stack engine
        /** Exact cells: observers attached to the cell's simulator
         *  before its first chunk (nullptr = none). */
        telemetry::IntervalRecorder *recorder = nullptr;
        telemetry::SetProfiler *profiler = nullptr;
    };

    /** Decide every cell's engine, stack family and store slot. */
    Plan plan(const SweepRequest &request);

    /** The store slot under @p key, created on first use. */
    StoredCell &slot(const std::string &key);

    /**
     * Fill what this task can of @p slots: claim the Empty ones (all
     * at once, so concurrent requests split a workload's cells
     * without racing over them), call @p fill with the claimed
     * indices and publish them. Without @p wait that is all, and the
     * result says whether every slot is Filled; a request runs this
     * round for all its tasks first, so it never blocks on another
     * request's cell while one of its own is unclaimed. With @p wait
     * it then waits for the slots other tasks hold, repeats for any
     * whose claimer failed, and returns true. When @p fill throws,
     * the claims are released and the exception propagates.
     */
    bool
    settle(const std::vector<StoredCell *> &slots,
           const std::function<void(const std::vector<std::size_t> &)>
               &fill,
           bool wait);

    /**
     * One chunked traversal of @p w's records — from @p resident
     * when non-null, else from w.stream — feeding a stack engine over
     * the stack cells of @p cells and one simulator per exact cell
     * (with the cell's observers attached), then storing each cell's
     * stats and seconds.
     */
    void traverse(const Workload &w, const trace::Trace *resident,
                  const std::vector<const TraversalCell *> &cells);

    /**
     * Estimate one sampled cell into @p cell (@p cache_key is
     * cfg.cacheKey()), over the live-point library at @p library_dir
     * when non-empty. The library is loaded with every key field
     * checked but the trace hash and replayed first; only then is
     * its stored hash compared with traceHashOf(@p w), which a hash
     * task of the request is computing meanwhile. On a mismatch the
     * replay is dropped and the cell takes the stale path: warm a
     * fresh simulator, save, replay.
     */
    void sampleCell(StoredCell &cell, const Workload &w,
                    const core::Config &cfg, const std::string &cache_key,
                    const SweepRequest &request,
                    const std::string &library_dir);

    /** Add @p delta to counter @p name (registered on first use). */
    void count(const char *name, const char *desc, std::uint64_t delta);

    /** A shadow classifier geometry: (line bytes, cache bytes). */
    using ShadowGeometry = std::pair<std::uint32_t, std::uint64_t>;

    /** The shadow outcomes of one trace at one geometry, latched. */
    struct LatchedOutcomes
    {
        std::once_flag once;
        sim::PackedOutcomes value;
    };

    /**
     * A once-latched trace slot: built exactly once, then immutable.
     * Its content hash (sim::hashTrace, the live-point library
     * identity) and its shadow outcomes per geometry are latched
     * separately, on first request.
     */
    struct TraceSlot
    {
        std::once_flag once;
        std::atomic<bool> built{false}; //!< value is ready
        trace::Trace value;
        std::once_flag hashOnce;
        std::uint64_t hash = 0;
        std::atomic<bool> hashed{false}; //!< hash is ready
        /** Guarded by Runner::mutex_; the entries are stable. */
        std::map<ShadowGeometry, std::unique_ptr<LatchedOutcomes>>
            outcomes;
    };

    /** The slot of @p w, its trace generated on first use. */
    TraceSlot &slotOf(const Workload &w);

    /** The trace of @p w if already materialized, else nullptr. */
    const trace::Trace *residentTrace(const Workload &w);

    /**
     * sim::hashTrace of traceOf(@p w), computed once per trace by its
     * first caller (a hash task of a live-point request, normally)
     * while later callers wait.
     */
    std::uint64_t traceHashOf(const Workload &w);

    /** Has traceHashOf(@p w) been computed already? */
    bool traceHashed(const Workload &w);

    /**
     * The shadow outcomes of @p w's resident trace @p t at the
     * geometry of @p cfg, classified by the first caller (the
     * "classify" phase) while later callers wait.
     */
    const sim::PackedOutcomes &outcomesOf(const Workload &w,
                                          const trace::Trace &t,
                                          const core::Config &cfg);

    /** Guards the maps below (not the slots), claims and counters. */
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<TraceSlot>> traces_;
    /** The one cell store (see the class comment for its key). */
    std::map<std::string, std::unique_ptr<StoredCell>> cells_;
    /** stack.pass.*, classify.*, checkpoint.* and manifest.* counters. */
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
 * for plain LRU set-associative caches (no aux cache, no virtual
 * lines, no prefetch, no bypass) without
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

/** Render a table as RFC-4180-style CSV (quoted where needed). */
std::string toCsv(const util::Table &table);

/** Write a table to a CSV file; returns false on I/O failure. */
bool writeCsvFile(const util::Table &table, const std::string &path);

} // namespace harness
} // namespace sac

#endif // SAC_HARNESS_EXPERIMENT_HH

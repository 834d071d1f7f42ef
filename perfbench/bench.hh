/**
 * @file
 * Shared declarations of the repository benchmark driver (sacbench):
 * options, the metric report, the output oracle, request builders and
 * the span recorder used by the traced run. See README.md in this
 * directory for the workloads and the metric definitions.
 */

#ifndef SACBENCH_BENCH_HH
#define SACBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/sweep.hh"
#include "src/trace/trace.hh"
#include "src/util/json.hh"
#include "src/util/table.hh"
#include "src/workloads/workloads.hh"

namespace sacbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/** Seconds between two time points. */
double seconds(Clock::time_point a, Clock::time_point b);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Reduced inputs (benchmark self-tests): fewer workloads. */
    bool small = false;
    /** Golden digest file (read; or written in record mode). */
    std::string golden = "perfbench/golden.json";
    bool recordGolden = false;
    /** Corrupt every golden entry with this key prefix (self-test). */
    std::string plantWrongDigest;
    /** Scratch directory for libraries, sockets and span files. */
    std::string outDir = ".bench_out";
    /** Identity of the measured sources (commit or content hash). */
    std::string sourceId = "unknown";
    /** Parallelism of every workload: min(4, nproc). */
    unsigned jobs = 4;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports: metrics, attempted/failed operation counts,
 * and human-readable notes printed before the final JSON line.
 */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Oracle failures (each also counted in failed). */
    std::vector<std::string> failures;

    void add(const std::string &name, double value,
             const std::string &unit);
    void note(const std::string &line) { notes.push_back(line); }
    /** Record one failed operation with its reason. */
    void fail(const std::string &why);
};

// --- Statistics ---------------------------------------------------------

double median(std::vector<double> v);

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double percentile(std::vector<double> v, double p);

/**
 * The highest percentile of the ladder {50, 90, 95, 99, 99.9} that
 * leaves at least ten samples beyond it; 50 when none does.
 */
double tailPercentile(std::size_t samples);

/** Peak resident set size of this process (VmHWM), in MiB. */
double peakRssMb();

/** @p v as 16 hex digits. */
std::string hex64(std::uint64_t v);

/** FNV-1a 64-bit hash of @p s, as 16 hex digits. */
std::string hexDigest(const std::string &s);

// --- Oracle ---------------------------------------------------------------

/**
 * Expected digests recorded by `sacbench --record-golden`. Keys:
 *   cell|<workload>|<config key hash>|<engine>  manifest digest
 *   table|<workload>.<request>[.small]          canonical table digest
 *   trace|<workload>                             trace content hash
 * In record mode check() stores instead of comparing.
 */
class Golden
{
  public:
    bool load(const std::string &path, std::string *error);
    bool save(const std::string &path) const;

    void setRecording(bool on) { recording_ = on; }

    /**
     * Replace every entry whose key starts with @p pattern, in which
     * each '*' matches any run of characters.
     */
    std::size_t plantWrong(const std::string &pattern);

    /**
     * Compare @p actual with the entry for @p key (store it when
     * recording). A mismatch or a missing key counts as a failure in
     * @p report. Thread-safe.
     */
    bool check(const std::string &key, const std::string &actual,
               Report &report);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::string> entries_;
    bool recording_ = false;
};

/** Golden key of one sweep cell. */
std::string cellKey(const std::string &workload,
                    const std::string &cache_key,
                    const std::string &engine);

/**
 * Digest of one manifest document: workload, cache key, engine,
 * counters and metrics. Timing, the git id and the runner-lifetime
 * "checkpoint" and request-dependent "stack" blocks are left out, so
 * the digest depends on the cell alone. Fills @p key with the cell's
 * golden key. False when @p manifest lacks a manifest's members.
 */
bool manifestDigest(const sac::util::Json &manifest, std::string *key,
                    std::string *digest);

/**
 * Digest of a rendered table independent of row and column order:
 * the sorted (row label, column header, cell) triples. @p request
 * supplies the cache key of each column.
 */
std::string tableDigest(const sac::util::Table &table,
                        const sac::harness::SweepRequest &request);

/**
 * Check a pass's table: its shape and labels follow @p request, and
 * its canonical digest matches golden entry @p key.
 */
bool checkTable(const sac::util::Table &table,
                const sac::harness::SweepRequest &request,
                const std::string &key, Golden &golden,
                Report &report);

/**
 * Re-run @p request on @p runner (every cell is cached by then) with
 * a manifest sink and check each cell's manifest digest against the
 * golden file; @p inspect (optional) sees every parsed manifest.
 * Returns the number of manifests checked.
 */
std::size_t
checkCells(sac::harness::Runner &runner,
           sac::harness::SweepRequest request, Golden &golden,
           Report &report,
           const std::function<void(const sac::util::Json &)> &inspect =
               {});

// --- Inputs ---------------------------------------------------------------

/** A pre-generated trace shared by the workloads that copy it. */
using SharedTrace = std::shared_ptr<const sac::trace::Trace>;

/** The nine paper programs; MDG, TRF and SpMV when @p small. */
std::vector<sac::workloads::Benchmark> paperPrograms(bool small);

/**
 * The Section-4 kernels: BlockedMV (n 1200, block 20/100/1200) and
 * CopiedMM (n 80, ld 116/126, block 16, with and without copying).
 */
std::vector<sac::workloads::Benchmark> kernelPrograms(bool small);

/**
 * Workloads whose build() runs the tagging pipeline on @p programs;
 * each trace is named after its program's workload name.
 */
std::vector<sac::harness::Workload>
generatingWorkloads(const std::vector<sac::workloads::Benchmark> &programs);

/** generatingWorkloads(paperPrograms(small)). */
std::vector<sac::harness::Workload> paperWorkloads(bool small);

/** generatingWorkloads(kernelPrograms(small)). */
std::vector<sac::harness::Workload> kernelWorkloads(bool small);

/** Workloads whose build() copies the given pre-generated traces. */
std::vector<sac::harness::Workload>
copyingWorkloads(const std::vector<SharedTrace> &traces);

/** Generate every trace of @p workloads (jobs threads). */
std::vector<SharedTrace>
generateTraces(const std::vector<sac::harness::Workload> &workloads,
               unsigned jobs);

/** Configurations of the named presets, in order. */
std::vector<sac::core::Config>
presetConfigs(const std::vector<std::string> &keys);

/**
 * The warm re-sweep lattice: {1..64} KB x {1,2,4,8} ways x
 * {16,32,64} B standard caches.
 */
std::vector<sac::core::Config> standardLattice();

/** Sampling geometry of every sampled request: 512 / 4096 / 2048. */
sac::sim::SamplingOptions samplingGeometry();

/** The presets whose live-point libraries set-up builds. */
const std::vector<std::string> &sampledPresets();

/** Seeded Fisher-Yates permutation of @p v. */
template <typename T>
void shuffle(std::vector<T> &v, std::uint64_t &state);

/** splitmix64 step: the benchmark's one seeded generator. */
std::uint64_t nextRandom(std::uint64_t &state);

template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t &state)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[nextRandom(state) % i]);
}

/** A batch request and the name of its golden table digest. */
struct NamedRequest
{
    std::string name;
    sac::harness::SweepRequest request;
};

sac::harness::SweepRequest
makeRequest(std::vector<sac::harness::Workload> workloads,
            std::vector<sac::core::Config> configs,
            sac::harness::Metric metric, unsigned jobs);

/**
 * The cold-reproduce requests: Figs 3, 6 and 12 over the paper
 * workloads (together the nine presets of the reproduction) and the
 * Section-4 kernels of Fig 11, all AMAT, over generating workloads.
 */
std::vector<NamedRequest> coldRequests(bool small, unsigned jobs);

/**
 * The warm-resweep requests over @p workloads: miss ratio and words/ref
 * over standardLattice(), then sampled-livepoint AMAT over
 * sampledPresets() from the libraries under @p library. A non-null
 * @p rng permutes the rows and columns.
 */
std::vector<NamedRequest>
warmRequests(std::vector<sac::harness::Workload> workloads,
             const std::string &library, unsigned jobs,
             std::uint64_t *rng);

/** Golden key of a batch request's table. */
std::string tableKey(const std::string &workload,
                     const std::string &request, bool small);

/**
 * Build the live-point libraries of @p traces x sampledPresets() under
 * @p dir, the files a sampled-livepoint Runner::run request would
 * write, without copying the traces (jobs threads).
 */
void buildLibraries(const std::vector<const sac::trace::Trace *> &traces,
                    const std::string &dir, unsigned jobs);

/** buildLibraries() over shared traces. */
void buildLibraries(const std::vector<SharedTrace> &traces,
                    const std::string &dir, unsigned jobs);

// --- sacd client -----------------------------------------------------------

/** One generated sacd submit and what its reply must contain. */
struct SacdRequest
{
    std::string kind;    //!< point | suite | stack | sampled
    std::string engine;  //!< engine every streamed manifest must name
    std::string payload; //!< the submit frame
    std::size_t cells = 0;
    std::vector<std::string> workloads;
    /** Manifest file name of every cell (sorted). */
    std::vector<std::string> files;
};

/**
 * Request @p index of the seeded sacd stream: in every block of ten,
 * five point AMAT requests, two figure-shaped suites, two stack slices
 * and one sampled-livepoint request over the libraries under
 * @p library_dir, in seeded order with seeded workloads and presets.
 */
SacdRequest sacdRequest(std::uint64_t seed, std::size_t index, bool small,
                        const std::string &library_dir);

/** Client-side account of one submit. */
struct SacdReply
{
    bool ok = false;
    bool rejected = false; //!< "queue full"
    std::string error;
    Clock::time_point submit, accepted, firstManifest, done;
    std::size_t manifests = 0;
    std::size_t frames = 0;
    std::size_t bytes = 0;
    std::string table;
};

/**
 * Submit @p request on a fresh connection to @p socket and read the
 * reply to its end, checking that it is accepted, then one manifest
 * per cell (each for a cell of the request, from the request's
 * engine), then done. @p on_manifest (optional) sees every manifest's
 * file name, engine and whole frame.
 */
SacdReply sacdSubmit(
    const std::string &socket, const SacdRequest &request,
    const std::function<void(const std::string &, const std::string &,
                             const std::string &)> &on_manifest = {});

// --- Spans (traced run) -------------------------------------------------

/**
 * In-memory span recorder: name, start, end, parent and request id,
 * written as Chrome trace_event JSON at exit. Thread-safe.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint64_t request = 0;
        std::uint64_t thread = 0;
    };

    /** Open a span; returns its id. */
    int begin(const std::string &name, int parent = -1,
              std::uint64_t request = 0);
    /** Close span @p id; returns its duration in seconds. */
    double end(int id);

    /** Record an already-measured interval. */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t request);

    /** Copy of every span recorded so far. */
    std::vector<Span> snapshot() const;

    /** Summed duration (s) of spans named @p name. */
    double total(const std::string &name) const;

    /**
     * Self time of span @p id: its duration minus the union of the
     * intervals its direct children cover.
     */
    double selfSeconds(int id) const;

    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

// --- Workloads ------------------------------------------------------------

/** Run workload @p opt.workload untraced and fill @p report. */
bool runWorkload(const Options &opt, Golden &golden, Report &report);

/** The traced per-layer run of @p opt.workload. */
bool runTraced(const Options &opt, Golden &golden, Report &report);

/** Record the golden digests of every cell any seed can request. */
bool recordGolden(const Options &opt, Golden &golden, Report &report);

} // namespace sacbench

#endif // SACBENCH_BENCH_HH

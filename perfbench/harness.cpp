/**
 * @file
 * The spmrt benchmark harness: runs one workload for a fixed host-time
 * budget and prints one JSON result line (see perfbench/README.md).
 *
 *   spmrt_perfbench --workload <mem_dense|fleet_sweep>
 *                   --seed <n> --seconds <s> --trace <0|1>
 *                   [--spans <path>]
 *   spmrt_perfbench --machine-builds <n>
 *
 * A workload is a fixed suite of simulations built from --seed. After one
 * untimed warm-up round, the harness repeats the suite in rounds until
 * --seconds have passed and reports the median round. Everything is measured from outside the
 * library, by timing calls into its public functions; every simulation
 * is checked against its host reference, and every exact counter must
 * repeat bit for bit in every round. With --trace 1, untraced and traced
 * rounds alternate: the traced ones record spans at each layer boundary,
 * the pair gives the tracing overhead, and a counter mismatch between
 * them fails the run. --machine-builds only times paper-machine builds,
 * for run.py's paper_quick record.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "matrix/generators.hpp"
#include "runtime/static_runtime.hpp"
#include "runtime/ws_runtime.hpp"
#include "serve/server.hpp"
#include "serve/workloads.hpp"
#include "sim/abort.hpp"
#include "workloads/bfs.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/spm_transpose.hpp"
#include "workloads/spmv.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace perfbench {
namespace {

using namespace spmrt::workloads;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Seconds since the harness started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/** splitmix64: derives every input seed from the workload seed. */
uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z; // 0 disables schedule/fault seeds
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(p * (v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / v.size();
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

// ---- Spans --------------------------------------------------------------

/** One timed interval; parent < 0 for a root. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    uint32_t thread = 0; ///< 0 = harness thread, 1.. = fleet worker slots
};

/** Spans of the traced rounds, kept in memory and written once at exit. */
class SpanLog
{
  public:
    int64_t
    add(std::string name, double start, double end, int64_t parent,
        uint32_t thread = 0)
    {
        spans_.push_back({std::move(name), start, end, parent, thread});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    /** Re-time a span opened with add(name, start, start, ...). */
    void
    close(int64_t id, double end)
    {
        spans_[static_cast<size_t>(id)].end = end;
    }

    const std::vector<Span> &spans() const { return spans_; }

    void
    write(const std::string &path) const
    {
        FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
            return;
        }
        std::fprintf(file, "{\"schema\": \"spmrt-perfbench-spans-v1\", "
                           "\"unit\": \"s\", \"spans\": [");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(file,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start\": %.9f, \"end\": %.9f, "
                         "\"parent\": %" PRId64 ", \"thread\": %u}",
                         i == 0 ? "" : ",", i, s.name.c_str(), s.start,
                         s.end, s.parent, s.thread);
        }
        std::fprintf(file, "\n]}\n");
        std::fclose(file);
    }

  private:
    std::vector<Span> spans_;
};

/** The layer a span's self time is charged to ("" = unattributed). */
std::string
layerOf(const std::string &name)
{
    for (const char *layer : {"sim", "workloads", "runtime", "serve"}) {
        size_t n = std::strlen(layer);
        if (name.compare(0, n, layer) == 0 && name.size() > n &&
            name[n] == '.')
            return layer;
    }
    return "";
}

/**
 * Self time per layer (span duration minus its children's) over the
 * spans under @p root, with the self time of unlayered spans (the root's
 * own bookkeeping) as "unattributed", so the values add up to the root's
 * duration.
 */
std::map<std::string, double>
layerSplit(const std::vector<Span> &spans, int64_t root)
{
    std::vector<double> child(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.end - s.start;
    std::vector<bool> inside(spans.size(), false);
    inside[static_cast<size_t>(root)] = true;
    std::map<std::string, double> split = {
        {"sim", 0}, {"workloads", 0}, {"runtime", 0}, {"serve", 0},
        {"unattributed", 0}};
    for (size_t i = 0; i < spans.size(); ++i) {
        // Parents precede children, so one forward pass marks subtrees.
        if (spans[i].parent >= 0 &&
            inside[static_cast<size_t>(spans[i].parent)])
            inside[i] = true;
        if (!inside[i])
            continue;
        double self = spans[i].end - spans[i].start - child[i];
        std::string layer = layerOf(spans[i].name);
        split[layer.empty() ? "unattributed" : layer] += self;
    }
    return split;
}

// ---- Simulated counters -----------------------------------------------

/** Every exact counter one simulation produces. */
struct Counters
{
    uint64_t cycles = 0, syncPoints = 0, switches = 0, instructions = 0;
    uint64_t localSpmOps = 0, remoteSpmOps = 0, dramOps = 0;
    uint64_t nocPackets = 0, nocLinkCycles = 0;
    uint64_t llcHits = 0, llcMisses = 0, dramBytes = 0;
    uint64_t tasksSpawned = 0, tasksExecuted = 0, stealAttempts = 0;
    uint64_t stealHits = 0, spawnsInlined = 0;
    uint64_t framesPushed = 0, framesOverflowed = 0;

    template <typename Self>
    static auto
    fields(Self &c)
    {
        return std::tie(c.cycles, c.syncPoints, c.switches, c.instructions,
                        c.localSpmOps, c.remoteSpmOps, c.dramOps,
                        c.nocPackets, c.nocLinkCycles, c.llcHits,
                        c.llcMisses, c.dramBytes, c.tasksSpawned,
                        c.tasksExecuted, c.stealAttempts, c.stealHits,
                        c.spawnsInlined, c.framesPushed, c.framesOverflowed);
    }

    bool
    operator==(const Counters &o) const
    {
        return fields(*this) == fields(o);
    }

    Counters &
    operator+=(const Counters &o)
    {
        std::apply(
            [&](auto &...dst) {
                std::apply([&](const auto &...src) { ((dst += src), ...); },
                           fields(o));
            },
            fields(*this));
        return *this;
    }
};

/** Read a finished simulation's counters through the public accessors. */
Counters
readCounters(Machine &m, Cycles cycles)
{
    Counters c;
    c.cycles = cycles;
    c.syncPoints = m.engine().syncPointCount();
    c.switches = m.engine().switchCount();
    c.instructions = m.totalInstructions();
    const MemStats &mem = m.mem().stats();
    c.localSpmOps = mem.localSpmLoads + mem.localSpmStores;
    c.remoteSpmOps = mem.remoteSpmLoads + mem.remoteSpmStores;
    c.dramOps = mem.dramLoads + mem.dramStores;
    c.nocPackets = m.mem().noc().packetsRouted();
    c.nocLinkCycles = m.mem().noc().linkCyclesUsed();
    c.llcHits = m.mem().llc().hits();
    c.llcMisses = m.mem().llc().misses();
    c.dramBytes = m.mem().dram().bytesMoved();
    c.tasksSpawned = m.totalStat(&RuntimeStats::tasksSpawned);
    c.tasksExecuted = m.totalStat(&RuntimeStats::tasksExecuted);
    c.stealAttempts = m.totalStat(&RuntimeStats::stealAttempts);
    c.stealHits = m.totalStat(&RuntimeStats::stealHits);
    c.spawnsInlined = m.totalStat(&RuntimeStats::spawnsInlined);
    c.framesPushed = m.totalStat(&RuntimeStats::stackFramesPushed);
    c.framesOverflowed = m.totalStat(&RuntimeStats::stackFramesOverflowed);
    return c;
}

// ---- Result record --------------------------------------------------------

/** Host-time sums of one traced round, in seconds. */
struct RoundTimes
{
    double machineBuild = 0, prep = 0, runtimeBuild = 0, run = 0;
    double verify = 0;
    std::vector<double> queueWait, jobWall; // fleet, per attempted job
    double workerOverhead = 0;
    std::map<std::string, double> split; // layer -> self seconds
};

/** What one round produced. */
struct Round
{
    bool warm = false; ///< the untimed first round
    bool traced = false;
    double wall = 0;
    uint64_t sims = 0;       ///< simulations actually run
    uint64_t attempted = 0;  ///< jobs/simulations asked for
    uint64_t failed = 0;
    uint64_t cacheHits = 0, retries = 0;
    std::vector<double> caseWall; ///< per simulation, in suite order
    std::vector<Counters> perSim; ///< in suite order, for the audit
    Counters total;
    RoundTimes t;
};

class Result
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        char buffer[64];
        if (value >= 0 && value < 9007199254740992.0 &&
            value == static_cast<double>(static_cast<uint64_t>(value)))
            std::snprintf(buffer, sizeof(buffer), "%" PRIu64,
                          static_cast<uint64_t>(value));
        else
            std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buffer +
                 ", \"unit\": \"" + unit + "\"}";
    }

    void
    print(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                    correct ? "true" : "false", attempted, failed,
                    body_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string body_;
};

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

// ---- mem_dense: one simulation at a time ----------------------------------

/** One simulation's closures, bound to a machine's uploaded inputs. */
struct Instance
{
    std::function<void(TaskContext &)> root;
    std::function<bool(Machine &)> verify;
};

/** One simulation of a suite. */
struct SimCase
{
    std::string name;
    bool isStatic = false;
    RuntimeConfig runtime;
    std::function<Instance(Machine &)> prepare;
};

/**
 * Run one case on a fresh paper machine (16x8, the MachineConfig
 * defaults). Spans go under @p parent when @p log is non-null. Returns
 * false on a failed check or an aborted simulation.
 */
bool
runCase(const SimCase &sc, SpanLog *log, int64_t parent, Counters &out,
        RoundTimes &t)
{
    auto span = [&](const char *name, double start, double end) {
        if (log != nullptr)
            log->add(name, start, end, parent);
    };
    bool ok = false;
    try {
        double t0 = now();
        auto machine = std::make_unique<Machine>(MachineConfig());
        double t1 = now();
        Instance inst = sc.prepare(*machine);
        double t2 = now();
        double t3 = 0, t4 = 0;
        Cycles cycles = 0;
        auto runWith = [&](auto &rt) {
            t3 = now();
            cycles = rt.run(inst.root);
            t4 = now();
        };
        if (sc.isStatic) {
            StaticRuntime rt(*machine, sc.runtime);
            runWith(rt);
        } else {
            WorkStealingRuntime rt(*machine, sc.runtime);
            runWith(rt);
        }
        double t5 = now();
        ok = inst.verify(*machine);
        double t6 = now();
        out = readCounters(*machine, cycles);
        inst = Instance{}; // drop input references before the machine
        double t7 = now();
        machine.reset();
        double t8 = now();
        span("sim.machine_build", t0, t1);
        span("workloads.prep", t1, t2);
        span("runtime.build", t2, t3);
        span("runtime.run", t3, t4);
        span("runtime.build", t4, t5); // runtime teardown
        span("workloads.verify", t5, t6);
        span("sim.machine_build", t7, t8); // machine teardown
        t.machineBuild += (t1 - t0) + (t8 - t7);
        t.prep += t2 - t1;
        t.runtimeBuild += (t3 - t2) + (t5 - t4);
        t.run += t4 - t3;
        t.verify += t6 - t5;
        if (!ok)
            std::fprintf(stderr, "%s: result does not match the host "
                                 "reference\n", sc.name.c_str());
    } catch (const SimAbort &abort) {
        std::fprintf(stderr, "%s: simulation aborted: %s\n", sc.name.c_str(),
                     abort.summary().c_str());
        ok = false;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", sc.name.c_str(), e.what());
        ok = false;
    }
    return ok;
}

Round
runSuite(const std::vector<SimCase> &suite, SpanLog *log)
{
    Round r;
    r.traced = log != nullptr;
    double start = now();
    int64_t root = log ? log->add("round", start, start, -1) : -1;
    for (const SimCase &sc : suite) {
        double caseStart = now();
        int64_t parent =
            log ? log->add("case:" + sc.name, caseStart, 0, root) : -1;
        Counters c;
        bool ok = runCase(sc, log, parent, c, r.t);
        double caseEnd = now();
        if (log)
            log->close(parent, caseEnd);
        r.caseWall.push_back(caseEnd - caseStart);
        r.attempted += 1;
        r.sims += 1;
        r.failed += ok ? 0 : 1;
        r.perSim.push_back(c);
        r.total += c;
    }
    double end = now();
    r.wall = end - start;
    if (log) {
        log->close(root, end);
        r.t.split = layerSplit(log->spans(), root);
    }
    return r;
}

/**
 * Geometric UTS parameters whose tree, rooted at a seed drawn from
 * @p seed, has between @p lo and @p hi nodes. Tree sizes are heavy
 * tailed (many roots have no children), so the size window is what keeps
 * the work of one seed comparable to another's.
 */
UtsParams
sizedTree(uint32_t depth, double branch, uint64_t seed, uint64_t lo,
          uint64_t hi)
{
    for (uint64_t k = 0; k < 100000; ++k) {
        UtsParams params = UtsParams::geometric(depth, branch, mix(seed, k));
        uint64_t nodes = utsReference(params);
        if (nodes >= lo && nodes <= hi)
            return params;
    }
    throw std::runtime_error("no UTS tree of the requested size");
}

/**
 * mem_dense: PageRank, SpMV, BFS and SpMatrixTranspose on a power-law
 * ("email") and a banded ("c-58") input, as a Latin square over two
 * runtime legs: every kernel and every input runs once under the static
 * runtime with stacks in SPM and once under work stealing with stacks and
 * queues in DRAM. Sizes and shapes are Table 1's quick-mode inputs
 * (bench/rows.hpp), with generator seeds drawn from @p seed.
 */
std::vector<SimCase>
memDense(uint64_t seed)
{
    const uint32_t graphV = 1024, graphD = 8;
    const uint32_t matN = 1024, matNnz = 6;
    struct Input
    {
        std::shared_ptr<const HostGraph> graph;
        std::shared_ptr<const HostCsr> matrix;
    };
    const std::map<std::string, Input> inputs = {
        {"email",
         {std::make_shared<const HostGraph>(
              genPowerLaw(graphV, graphD, 0.7, mix(seed, 11))),
          std::make_shared<const HostCsr>(
              genCsrPowerLaw(matN, matN, matNnz, 0.7, mix(seed, 12)))}},
        // Band width |V|/170 keeps the BFS diameter near 170 levels, as
        // for the real c-58 at every size.
        {"c-58",
         {std::make_shared<const HostGraph>(
              genBanded(graphV, graphV / 170, graphD, mix(seed, 13))),
          std::make_shared<const HostCsr>(
              genCsrBanded(matN, 24, matNnz, mix(seed, 14)))}},
    };
    const uint64_t xSeed = mix(seed, 15);

    using Prepare = std::function<Instance(Machine &)>;
    auto kernel = [&](const std::string &name, const Input &in) -> Prepare {
        auto graph = in.graph;
        auto matrix = in.matrix;
        if (name == "pagerank")
            return [graph](Machine &m) {
                auto data =
                    std::make_shared<PageRankData>(pagerankSetup(m, *graph));
                return Instance{
                    [data](TaskContext &tc) { pagerankKernel(tc, *data, 1); },
                    [data, graph](Machine &mm) {
                        return pagerankVerify(mm, *data, *graph, 1);
                    }};
            };
        if (name == "spmv")
            return [matrix, xSeed](Machine &m) {
                auto data =
                    std::make_shared<SpmvData>(spmvSetup(m, *matrix, xSeed));
                auto x = std::make_shared<std::vector<float>>(
                    spmvInputVector(m, *data));
                return Instance{
                    [data](TaskContext &tc) { spmvKernel(tc, *data); },
                    [data, matrix, x](Machine &mm) {
                        return spmvVerify(mm, *data, *matrix, *x);
                    }};
            };
        if (name == "bfs")
            return [graph](Machine &m) {
                auto data = std::make_shared<BfsData>(bfsSetup(m, *graph, 0));
                return Instance{
                    [data](TaskContext &tc) { bfsKernel(tc, *data); },
                    [data, graph](Machine &mm) {
                        return bfsVerify(mm, *data, *graph);
                    }};
            };
        return [matrix](Machine &m) {
            auto data = std::make_shared<SpmTransposeData>(
                spmTransposeSetup(m, *matrix));
            return Instance{
                [data](TaskContext &tc) { spmTransposeKernel(tc, *data); },
                [data, matrix](Machine &mm) {
                    return spmTransposeVerify(mm, *data, *matrix);
                }};
        };
    };

    RuntimeConfig staticSpm;
    staticSpm.stackInSpm = true;
    struct Cell
    {
        const char *kernel;
        const char *input;
        bool isStatic;
    };
    const Cell square[] = {
        {"pagerank", "email", false}, {"pagerank", "c-58", true},
        {"spmv", "email", true},      {"spmv", "c-58", false},
        {"bfs", "email", true},       {"bfs", "c-58", false},
        {"spmt", "email", false},     {"spmt", "c-58", true},
    };
    std::vector<SimCase> suite;
    for (const Cell &cell : square) {
        SimCase sc;
        sc.name = std::string(cell.kernel) + "/" + cell.input +
                  (cell.isStatic ? "/static-spm-stack" : "/ws-dram-dram");
        sc.isStatic = cell.isStatic;
        sc.runtime = cell.isStatic ? staticSpm : RuntimeConfig::naive();
        sc.prepare = kernel(cell.kernel, inputs.at(cell.input));
        suite.push_back(std::move(sc));
    }
    return suite;
}

// ---- fleet_sweep ------------------------------------------------------------

/** The 4x4 machine of the fleet jobs (host_perf's 16-core scale). */
MachineConfig
fleetMachine()
{
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

/** One job of the batch, with its host reference. */
struct FleetJob
{
    serve::FleetWorkload spec;
    uint64_t scheduleSeed = 0;
    uint64_t faultSeed = 0;
    uint64_t reference = 0;
    int64_t firstOf = -1; ///< index of the job this one repeats
};

const uint32_t kFleetDistinct = 48;

/** Root seeds of the fleet's UTS trees (400-900 nodes), by job index. */
std::map<uint32_t, uint64_t>
fleetTrees(uint64_t seed)
{
    std::map<uint32_t, uint64_t> roots;
    for (uint32_t i = 2; i < kFleetDistinct; i += 4)
        roots[i] = sizedTree(7, 2.2, mix(seed, 200 + i), 400, 900).rootSeed;
    return roots;
}

/**
 * Distinct job specs, then a repeated subset (cache hits/coalesced).
 * @p roots comes from fleetTrees.
 */
std::vector<FleetJob>
fleetJobs(uint64_t seed, const std::map<uint32_t, uint64_t> &roots)
{
    const uint32_t distinct = kFleetDistinct;
    std::vector<FleetJob> jobs;
    for (uint32_t i = 0; i < distinct; ++i) {
        FleetJob j;
        switch (i % 4) {
          case 0:
            j.spec = {"fib", 12 + i / 4 % 3, 0, 0.0};
            break;
          case 1:
            j.spec = {"cilksort", 1024u << (i / 4 % 2), mix(seed, 100 + i),
                      0.0};
            break;
          case 2:
            j.spec = {"uts", 7, roots.at(i), 2.2};
            break;
          default:
            j.spec = {"nqueens", 6 + i / 4 % 2, 0, 0.0};
            break;
        }
        j.scheduleSeed = mix(seed, 300 + i);
        j.faultSeed = mix(seed, 400 + i);
        j.reference = serve::workloadReference(j.spec);
        jobs.push_back(j);
    }
    for (uint32_t i = 0; i < distinct; i += 3) {
        FleetJob again = jobs[i];
        again.firstOf = i;
        jobs.push_back(again);
    }
    return jobs;
}

/** What the wrapped prepare/digest closures saw of one attempt. */
struct Probe
{
    double submitted = 0, prepStart = 0, prepEnd = 0;
    double digestStart = 0, digestEnd = 0;
    uint32_t slot = 0;
    Counters counters;
    bool prepared = false;
};

/** Small dense ids for worker threads, for span records. */
uint32_t
workerSlot()
{
    static std::mutex mutex;
    static std::map<std::thread::id, uint32_t> slots;
    std::lock_guard<std::mutex> guard(mutex);
    auto it = slots.emplace(std::this_thread::get_id(),
                            static_cast<uint32_t>(slots.size()) + 1);
    return it.first->second;
}

Round
runFleet(const std::vector<FleetJob> &jobs, uint32_t workers, SpanLog *log,
         double &serverStart)
{
    Round r;
    r.traced = log != nullptr;
    const bool traced = r.traced;
    std::vector<std::unique_ptr<Probe>> probes;
    for (size_t i = 0; i < jobs.size(); ++i)
        probes.push_back(std::make_unique<Probe>());

    double s0 = now();
    serve::FleetConfig cfg;
    cfg.workers = workers;
    auto server = std::make_unique<serve::FleetServer>(cfg);
    double start = now();
    serverStart = start - s0;
    int64_t root = log ? log->add("round", start, start, -1) : -1;

    std::vector<serve::FleetServer::JobId> ids;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const FleetJob &j = jobs[i];
        serve::JobRequest req = serve::makeWorkloadRequest(j.spec);
        req.machine = fleetMachine();
        req.runtime = RuntimeConfig::full();
        req.scheduleSeed = j.scheduleSeed;
        req.faultSeed = j.faultSeed;
        req.armChecker = true;
        Probe *probe = probes[i].get();
        auto inner = std::move(req.prepare);
        req.prepare = [inner, probe, traced](Machine &m,
                                             serve::AssetCache &assets) {
            if (traced) {
                probe->slot = workerSlot();
                probe->prepStart = now();
            }
            serve::PreparedJob prep = inner(m, assets);
            if (traced)
                probe->prepEnd = now();
            probe->prepared = true;
            auto digest = std::move(prep.digest);
            prep.digest = [digest, probe, traced](Machine &mm) {
                if (traced)
                    probe->digestStart = now();
                uint64_t d = digest(mm);
                probe->counters = readCounters(mm, 0); // cycles: report
                if (traced)
                    probe->digestEnd = now();
                return d;
            };
            return prep;
        };
        double t = now();
        probe->submitted = t;
        ids.push_back(server->submit(std::move(req)));
        if (log)
            log->add("serve.submit", t, now(), root);
    }
    double settleStart = now();
    std::vector<serve::JobReport> reports;
    for (serve::FleetServer::JobId id : ids)
        reports.push_back(server->wait(id));
    double end = now();
    r.wall = end - start;

    for (size_t i = 0; i < jobs.size(); ++i) {
        const serve::JobReport &rep = reports[i];
        const FleetJob &j = jobs[i];
        bool ok = (rep.status == serve::JobStatus::Ok ||
                   rep.status == serve::JobStatus::CacheHit) &&
                  rep.digest == j.reference;
        if (ok && j.firstOf >= 0)
            ok = rep.cycles == reports[static_cast<size_t>(j.firstOf)].cycles;
        if (!ok)
            std::fprintf(stderr, "fleet job %s: status %s, digest %016" PRIx64
                                 " (reference %016" PRIx64 ") %s\n",
                         rep.name.c_str(), serve::jobStatusName(rep.status),
                         rep.digest, j.reference, rep.error.c_str());
        r.attempted += 1;
        r.failed += ok ? 0 : 1;
        r.cacheHits += rep.status == serve::JobStatus::CacheHit ? 1 : 0;
        r.retries += rep.attempts > 1 ? rep.attempts - 1 : 0;
        r.sims += rep.attempts;
        const Probe &p = *probes[i];
        if (rep.attempts == 0 || !p.prepared) {
            r.perSim.push_back(Counters{});
            continue;
        }
        Counters c = p.counters;
        c.cycles = rep.cycles;
        r.perSim.push_back(c);
        r.total += c;
        if (!traced)
            continue;
        double prep = p.prepEnd - p.prepStart;
        double run = p.digestStart - p.prepEnd;
        double digest = p.digestEnd - p.digestStart;
        double overhead = rep.wallMs / 1e3 - prep - run - digest;
        r.t.prep += prep;
        r.t.run += run;
        r.t.verify += digest;
        r.t.workerOverhead += overhead;
        r.t.machineBuild += overhead;
        r.t.queueWait.push_back(p.prepStart - p.submitted);
        r.t.jobWall.push_back(rep.wallMs / 1e3);
        log->add("serve.queue_wait", p.submitted, p.prepStart, root, p.slot);
        log->add("workloads.prep", p.prepStart, p.prepEnd, root, p.slot);
        log->add("runtime.run", p.prepEnd, p.digestStart, root, p.slot);
        log->add("workloads.verify", p.digestStart, p.digestEnd, root,
                 p.slot);
    }
    if (log) {
        log->add("serve.settle", settleStart, end, root);
        log->close(root, end);
        // Worker capacity (wall x workers) splits into the jobs' parts;
        // worker time outside any job (dispatch, queueing, the idle tail)
        // is the server's, so nothing is left unattributed. Normalized
        // back to wall seconds.
        r.t.split = {{"sim", r.t.workerOverhead / workers},
                     {"workloads", (r.t.prep + r.t.verify) / workers},
                     {"runtime", r.t.run / workers},
                     {"unattributed", 0}};
        r.t.split["serve"] = r.wall - r.t.split["sim"] -
                             r.t.split["workloads"] - r.t.split["runtime"];
    }
    server.reset(); // drained: every job has settled
    return r;
}

/**
 * The suite's host time over the timed rounds of one kind. For mem_dense
 * it sums each simulation's median time, so a burst of host noise in one
 * simulation is rejected without dropping the whole round; for the fleet
 * it is the median batch.
 */
double
suiteWall(const std::vector<Round> &rounds, bool traced)
{
    std::vector<std::vector<double>> perCase;
    std::vector<double> walls;
    for (const Round &r : rounds) {
        if (r.warm || r.traced != traced)
            continue;
        walls.push_back(r.wall);
        perCase.resize(r.caseWall.size());
        for (size_t c = 0; c < r.caseWall.size(); ++c)
            perCase[c].push_back(r.caseWall[c]);
    }
    if (perCase.empty())
        return median(walls);
    double sum = 0;
    for (const std::vector<double> &samples : perCase)
        sum += median(samples);
    return sum;
}

// ---- Command line -------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    int machineBuilds = 0; ///< > 0: only time this many machine builds
};

const int kSetupRepeats = 5;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: spmrt_perfbench --workload <mem_dense|"
                 "fleet_sweep> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n"
                 "       spmrt_perfbench --machine-builds <n>\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        if (arg == "--workload")
            o.workload = val;
        else if (arg == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(val.c_str());
        else if (arg == "--trace")
            o.trace = val == "1";
        else if (arg == "--spans")
            o.spansPath = val;
        else if (arg == "--machine-builds")
            o.machineBuilds = std::atoi(val.c_str());
        else
            usage(("unknown option " + arg).c_str());
    }
    if (o.machineBuilds > 0)
        return o;
    if (o.workload != "mem_dense" && o.workload != "fleet_sweep")
        usage(("unknown workload '" + o.workload + "'").c_str());
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/**
 * Build and destroy a paper machine (the MachineConfig defaults, which
 * table1_main builds once per simulation) @p n times; print the median in
 * ms as one JSON line.
 */
int
probeMachineBuild(int n)
{
    std::vector<double> samples;
    for (int k = 0; k < n; ++k) {
        double t0 = now();
        auto machine = std::make_unique<Machine>(MachineConfig());
        machine.reset();
        samples.push_back(now() - t0);
    }
    std::printf("{\"machine_build_ms\": %.9g}\n", median(samples) * 1e3);
    return 0;
}

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (opt.machineBuilds > 0)
        return probeMachineBuild(opt.machineBuilds);
    const bool fleet = opt.workload == "fleet_sweep";
    const uint32_t hw = std::thread::hardware_concurrency();
    const uint32_t workers = fleet ? std::max(1u, hw) : 1;

    // The fleet's UTS trees are picked first, untimed: picking draws root
    // seeds until a tree size falls in the window, which is the
    // benchmark's own input selection, and the number of draws varies
    // with the seed.
    const std::map<uint32_t, uint64_t> roots =
        fleet ? fleetTrees(opt.seed) : std::map<uint32_t, uint64_t>();

    // Set-up: the inputs and references shared by every round. They are
    // built several times before the first round and once more before
    // every later one, so the reported median spans the whole run, not
    // one moment of the host's speed.
    std::vector<double> setupSamples;
    std::vector<SimCase> suite;
    std::vector<FleetJob> jobs;
    auto setUp = [&] {
        double t0 = now();
        if (fleet)
            jobs = fleetJobs(opt.seed, roots);
        else
            suite = memDense(opt.seed);
        setupSamples.push_back(now() - t0);
    };
    for (int k = 0; k < kSetupRepeats; ++k)
        setUp();

    SpanLog log;
    std::vector<Round> rounds;
    std::vector<double> serverStarts;
    const double begin = now();
    // Round 0 warms the allocator and the host caches; it is checked like
    // every other round but not timed. Then untraced rounds, or
    // untraced/traced pairs under --trace 1, until the budget is spent.
    for (size_t i = 0;; ++i) {
        const bool warm = i == 0;
        const bool traced = opt.trace && !warm && i % 2 == 0;
        SpanLog *sl = traced ? &log : nullptr;
        if (!warm)
            setUp();
        if (fleet) {
            double serverStart = 0;
            rounds.push_back(runFleet(jobs, workers, sl, serverStart));
            serverStarts.push_back(serverStart);
        } else {
            rounds.push_back(runSuite(suite, sl));
        }
        rounds.back().warm = warm;
        std::fprintf(stderr, "round %zu%s: %.4f s\n", i,
                     warm ? " (warm-up)" : traced ? " (traced)" : "",
                     rounds.back().wall);
        const bool paired = !opt.trace || i % 2 == 0;
        if (!warm && paired && now() - begin >= opt.seconds)
            break;
    }

    // Correctness: every check passed, and every exact counter repeats
    // in every round, traced or not.
    uint64_t attempted = 0, failed = 0;
    bool deterministic = true;
    for (const Round &r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
        if (!(r.perSim == rounds.front().perSim)) {
            deterministic = false;
            std::fprintf(stderr, "exact counters differ between a %s round "
                                 "and the first round\n",
                         r.traced ? "traced" : "untraced");
        }
    }
    const bool correct = failed == 0 && deterministic;

    const Round &first = rounds.front();
    const double wall = suiteWall(rounds, false);
    double setup = median(setupSamples);
    if (fleet)
        setup += median(serverStarts);

    Result res;
    if (!opt.trace) {
        res.metric("wall_s", wall, "s");
        res.metric("setup_s", setup, "s");
        res.metric("sims_per_s", ratio(first.sims, wall), "1/s");
        res.metric("peak_rss_mb", peakRssMb(), "MB");
        res.metric("sim_cycles", first.total.cycles, "cycles");
        res.print(correct, attempted, failed);
        return correct ? 0 : 1;
    }

    // Per-layer record: counts from one round (they are identical in
    // all), host times as means over the traced rounds.
    std::vector<const Round *> traced;
    for (const Round &r : rounds)
        if (r.traced)
            traced.push_back(&r);
    auto traceMean = [&](auto field) {
        std::vector<double> v;
        for (const Round *r : traced)
            v.push_back(field(*r));
        return mean(v);
    };
    std::vector<double> queueWait, jobWall;
    for (const Round *r : traced) {
        queueWait.insert(queueWait.end(), r->t.queueWait.begin(),
                         r->t.queueWait.end());
        jobWall.insert(jobWall.end(), r->t.jobWall.begin(),
                       r->t.jobWall.end());
    }
    const Counters &c = first.total;
    const double tracedWallMean =
        traceMean([](const Round &r) { return r.wall; });
    const double capacity = tracedWallMean * workers;
    const double build = traceMean([](const Round &r) {
        return r.t.machineBuild;
    });
    const double run = traceMean([](const Round &r) { return r.t.run; });

    res.metric("failed_frac", ratio(failed, attempted), "ratio");
    res.metric("sim.machine_build_ms", build * 1e3, "ms");
    res.metric("sim.machine_build_share", ratio(build, capacity), "ratio");
    res.metric("sim.sync_points", c.syncPoints, "count");
    res.metric("sim.switches", c.switches, "count");
    res.metric("sim.instructions", c.instructions, "count");
    res.metric("sim.ns_per_sync_point", ratio(run * 1e9, c.syncPoints),
               "ns");
    res.metric("mem.local_spm_ops", c.localSpmOps, "count");
    res.metric("mem.remote_spm_ops", c.remoteSpmOps, "count");
    res.metric("mem.dram_ops", c.dramOps, "count");
    res.metric("mem.noc_packets", c.nocPackets, "count");
    res.metric("mem.noc_link_cycles", c.nocLinkCycles, "cycles");
    res.metric("mem.llc_hits", c.llcHits, "count");
    res.metric("mem.llc_misses", c.llcMisses, "count");
    res.metric("mem.llc_hit_ratio",
               ratio(c.llcHits, c.llcHits + c.llcMisses), "ratio");
    res.metric("mem.dram_bytes", c.dramBytes, "bytes");
    res.metric("mem.noc_packets_per_sync_point",
               ratio(c.nocPackets, c.syncPoints), "ratio");
    res.metric("runtime.build_ms",
               traceMean([](const Round &r) { return r.t.runtimeBuild; }) *
                   1e3,
               "ms");
    res.metric("runtime.run_ms", run * 1e3, "ms");
    res.metric("runtime.tasks_spawned", c.tasksSpawned, "count");
    res.metric("runtime.tasks_executed", c.tasksExecuted, "count");
    res.metric("runtime.steal_attempts", c.stealAttempts, "count");
    res.metric("runtime.steal_hits", c.stealHits, "count");
    res.metric("runtime.steal_hit_ratio",
               ratio(c.stealHits, c.stealAttempts), "ratio");
    res.metric("runtime.spawns_inlined", c.spawnsInlined, "count");
    res.metric("spm.frames_pushed", c.framesPushed, "count");
    res.metric("spm.frames_overflowed", c.framesOverflowed, "count");
    res.metric("spm.overflow_ratio",
               ratio(c.framesOverflowed, c.framesPushed), "ratio");
    res.metric("workloads.prep_ms",
               traceMean([](const Round &r) { return r.t.prep; }) * 1e3,
               "ms");
    res.metric("workloads.verify_ms",
               traceMean([](const Round &r) { return r.t.verify; }) * 1e3,
               "ms");
    res.metric("serve.queue_wait_ms.p50", percentile(queueWait, 0.5) * 1e3,
               "ms");
    res.metric("serve.queue_wait_ms.p90", percentile(queueWait, 0.9) * 1e3,
               "ms");
    res.metric("serve.job_ms.p50", percentile(jobWall, 0.5) * 1e3, "ms");
    res.metric("serve.job_ms.p90", percentile(jobWall, 0.9) * 1e3, "ms");
    res.metric("serve.worker_overhead_ms",
               traceMean([](const Round &r) { return r.t.workerOverhead; }) *
                   1e3,
               "ms");
    res.metric("serve.attempts", fleet ? first.sims : 0, "count");
    res.metric("serve.cache_hits", first.cacheHits, "count");
    res.metric("serve.retries", first.retries, "count");
    for (const char *layer :
         {"sim", "workloads", "runtime", "serve", "unattributed"})
        res.metric(std::string("layer.") + layer + "_s",
                   traceMean([&](const Round &r) {
                       return r.t.split.at(layer);
                   }),
                   "s");
    res.metric("obs.traced_wall_s", tracedWallMean, "s");
    res.metric("obs.trace_overhead_frac",
               ratio(suiteWall(rounds, true) - wall, wall), "ratio");
    res.print(correct, attempted, failed);
    if (!opt.spansPath.empty())
        log.write(opt.spansPath);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench
} // namespace spmrt

int
main(int argc, char **argv)
{
    return spmrt::perfbench::main(argc, argv);
}

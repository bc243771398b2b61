// Copyright 2026 The GRAPE+ Reproduction Authors.
// perfbench: time to a verified fixpoint. For one workload it generates the
// input from the seed, computes seq:: ground truth once, then repeats
// {set-up, one engine Run(), verification} until --seconds have passed and
// reports medians. Everything is timed from outside the library, around
// calls into each layer's public functions; with --trace 1 every other
// iteration runs the program through TracedProgram for the per-layer
// breakdown, and the untraced iterations in between give trace.overhead.
//
//   perfbench --workload pagerank-rmat|sssp-rmat-async|cc-store-stream
//             --seed N --seconds S --trace 0|1
//             [--data-dir DIR]   (default .bench_data: cached store, trace)
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/README.md documents every metric.
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/cc_pull.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/async_engine.h"
#include "core/threaded_engine.h"
#include "graph/chunked_arc_source.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/store/gcsr_store.h"
#include "obs/perf_counters.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "runtime/topology.h"
#include "runtime/worker_pool.h"
#include "spans.h"
#include "traced_program.h"

namespace perfbench {
namespace {

using namespace grape;  // NOLINT(google-build-using-namespace)

// ---------------------------------------------------------------- setup ---

constexpr FragmentId kFragments = 8;
constexpr uint32_t kMaxThreads = 4;
constexpr double kDamping = 0.85;
// Per-vertex residual threshold of the engine's PageRank (grape_cli's).
constexpr double kPageRankTol = 1e-6;
// Total-residual threshold of the seq::PageRank ground truth (negligible
// next to the engine's leftover mass in VerifyPageRank's bound).
constexpr double kTruthEps = 1e-4;
constexpr VertexId kSsspSource = 0;
constexpr uint64_t kStreamBudgetArcs = 65536;
// A later claim must also hold on this seed, which is kept out of tuning.
constexpr uint64_t kHeldOutSeed = 9973;
// Measured iterations per graph, even past its share of --seconds (trace
// runs need one of each kind), and the wall time after which no new
// iteration starts.
constexpr uint32_t kMinIterationsPerGraph = 2;
constexpr double kHardStopSeconds = 120.0;

enum class Workload { kPageRank, kSssp, kCc };

struct WorkloadSpec {
  Workload kind;
  const char* name;
  VertexId vertices;
  uint64_t edges;
  /// R-MAT graphs a run measures in turn. Solve times differ from graph to
  /// graph by more than from run to run, so the in-memory workloads average
  /// over three; one store keeps cc-store-stream's disk cache small.
  uint32_t graphs;
};

constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kPageRank, "pagerank-rmat", 1u << 18, 1ull << 21, 3},
    {Workload::kSssp, "sssp-rmat-async", 1u << 18, 1ull << 21, 3},
    {Workload::kCc, "cc-store-stream", 1u << 20, 1ull << 23, 1},
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Print / JSON order. perfbench/README.md gives each metric's layer and the
// end-to-end metric and workload it should move.
constexpr MetricDef kMetrics[] = {
    {"solve_s", "s", true},
    {"setup_s", "s", true},
    {"solve_cpu_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"verified_frac", "ratio", true},
    {"graph.open_s", "s", false},
    {"graph.peak_resident_arcs", "count", false},
    {"graph.lid_cache_hit_rate", "ratio", false},
    {"partition.assign_s", "s", false},
    {"partition.build_s", "s", false},
    {"partition.edge_cut", "ratio", false},
    {"partition.skew", "ratio", false},
    {"algos.peval_s", "s", false},
    {"algos.inceval_s", "s", false},
    {"algos.inceval_calls", "count", false},
    {"algos.inceval_p50_us", "us", false},
    {"algos.updates_in", "count", false},
    {"algos.entries_out", "count", false},
    {"algos.work_units", "count", false},
    {"algos.work_per_update", "ratio", false},
    {"algos.work_per_arc", "ratio", false},
    {"runtime.msgs", "count", false},
    {"runtime.msg_mb", "MB", false},
    {"runtime.entries_sent", "count", false},
    {"runtime.updates_applied", "count", false},
    {"core.rounds", "count", false},
    {"core.max_worker_rounds", "count", false},
    {"core.thread_busy_s", "s", false},
    {"core.thread_idle_s", "s", false},
    {"core.other_s", "s", false},
    {"core.run_self_s", "s", false},
    {"core.worklist_pushes", "count", false},
    {"core.worklist_steals", "count", false},
    {"core.termination_probes", "count", false},
    {"core.spurious_wakeups", "count", false},
    {"core.push_rounds", "count", false},
    {"core.pull_rounds", "count", false},
    {"core.direction_switches", "count", false},
    {"cost.seq_s", "s", false},
    {"cost.speedup", "ratio", false},
    {"trace.overhead", "ratio", false},
};

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string data_dir = ".bench_data";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pagerank-rmat|sssp-rmat-async|cc-store-stream --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (v == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) Usage("unknown workload " + v);
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      seed = *end == '\0' && !v.empty();
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      seconds = *end == '\0' && o.seconds > 0.0;
    } else if (flag == "--trace") {
      o.trace = v == "1";
      trace = v == "0" || v == "1";
    } else if (flag == "--data-dir") {
      o.data_dir = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workload == nullptr || !seed || !seconds || !trace) {
    Usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
  }
  return o;
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

/// Restarts the kernel's peak-RSS counter (VmHWM) so that each iteration's
/// peak covers its own set-up and solve only, not input generation or
/// earlier iterations. False when the kernel refuses; the peak then falls
/// back to the whole process's.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Fingerprint(const Options& o, uint32_t threads) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream s;
  s << "{\"workload\": " << JsonString(o.workload->name)
    << ", \"seed\": " << o.seed << ", \"held_out_seed\": " << kHeldOutSeed
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"usable_cpus\": " << UsableCpus()
    << ", \"numa_nodes\": " << numa::NumMemoryNodes()
    << ", \"perf_event_open\": " << (obs::PerfAvailable() ? "true" : "false")
    << ", \"compiler\": " << JsonString(compiler)
    << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"threads\": " << threads << ", \"fragments\": " << kFragments
    << "}";
  return s.str();
}

// ---------------------------------------------------------------- input ---

/// One of the run's inputs, made from the seed. Generation is the load
/// generator and is never timed as set-up.
struct Input {
  Graph graph;             // in-memory workloads
  std::string store_path;  // cc-store-stream
};

struct Truth {
  std::vector<double> values;    // PageRank scores / SSSP distances
  std::vector<VertexId> labels;  // CC
  double seconds = 0.0;
  double cost_seconds = 0.0;     // COST run (trace runs only)
};

Graph Generate(const WorkloadSpec& w, uint64_t seed, WorkerPool& pool) {
  RmatOptions r;
  r.num_vertices = w.vertices;
  r.num_edges = w.edges;
  r.directed = false;
  r.weighted = true;
  r.seed = seed;
  return MakeRmat(r, &pool);
}

/// The cc-store-stream input is saved once per seed (with the in-adjacency
/// extension) and reused by later runs of that seed; stores of other seeds
/// are removed so the cache holds one graph.
bool PrepareStore(const WorkloadSpec& w, const Options& o, uint64_t seed,
                  WorkerPool& pool, Input* in) {
  namespace fs = std::filesystem;
  const std::string prefix = std::string(w.name) + "-seed";
  in->store_path = o.data_dir + "/" + prefix + std::to_string(seed) + ".gcsr";
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(o.data_dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && e.path().string() != in->store_path) {
      fs::remove(e.path(), ec);
    }
  }
  {
    auto cached =
        MmapGraph::Open(in->store_path, MmapGraph::Verify::kHeaderOnly);
    if (cached.ok() && cached.value().has_in_adjacency() &&
        cached.value().View().num_vertices() == w.vertices) {
      return true;
    }
  }
  const Graph g = Generate(w, seed, pool);
  SaveOptions so;
  so.include_in_adjacency = true;
  const Status st = SaveBinary(g, in->store_path, so);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: cannot save %s: %s\n",
                 in->store_path.c_str(), st.ToString().c_str());
    return false;
  }
  // Write the store back now, so its dirty pages do not flush during the
  // first measured iterations.
  const int fd = open(in->store_path.c_str(), O_RDONLY);
  const bool synced = fd >= 0 && fsync(fd) == 0;
  if (fd >= 0) close(fd);
  if (!synced) {
    std::fprintf(stderr, "perfbench: cannot sync %s\n",
                 in->store_path.c_str());
  }
  return synced;
}

/// Runs the workload's seq:: algorithm on `g` and returns its wall time.
/// `pagerank_eps` is seq::PageRank's total-residual threshold.
double RunSeq(Workload w, const GraphView& g, double pagerank_eps,
              Truth* t) {
  const Clock::time_point start = Clock::now();
  switch (w) {
    case Workload::kPageRank:
      t->values = seq::PageRank(g, kDamping, pagerank_eps);
      break;
    case Workload::kSssp:
      t->values = seq::Sssp(g, kSsspSource);
      break;
    case Workload::kCc:
      t->labels = seq::ConnectedComponents(g);
      break;
  }
  return SecondsBetween(start, Clock::now());
}

/// Makes input `index` of the run and its ground truth, outside every
/// timing. Trace runs also time the COST baseline: one more seq:: run on
/// warm caches; PageRank's stops at the residual mass the engine may leave
/// behind (tol per vertex), so both sides solve to comparable accuracy.
bool PrepareInput(const WorkloadSpec& w, const Options& o, uint32_t index,
                  WorkerPool& pool, Input* in, Truth* truth) {
  const Clock::time_point t0 = Clock::now();
  const uint64_t seed = o.seed * w.graphs + index;
  std::optional<MmapGraph> store;
  GraphView view;
  if (w.kind == Workload::kCc) {
    if (!PrepareStore(w, o, seed, pool, in)) return false;
    auto opened =
        MmapGraph::Open(in->store_path, MmapGraph::Verify::kHeaderOnly);
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench: cannot open %s: %s\n",
                   in->store_path.c_str(), opened.status().ToString().c_str());
      return false;
    }
    store.emplace(std::move(opened.value()));
    view = store->View();
  } else {
    in->graph = Generate(w, seed, pool);
    view = in->graph.View();
  }
  std::printf("input %u/%u of %s (R-MAT seed %llu): %u vertices, %llu arcs, "
              "ready in %.2f s\n",
              index + 1, w.graphs, w.name,
              static_cast<unsigned long long>(seed), view.num_vertices(),
              static_cast<unsigned long long>(view.num_arcs()),
              SecondsBetween(t0, Clock::now()));
  truth->seconds = RunSeq(w.kind, view, kTruthEps, truth);
  std::printf("truth computed in %.3f s\n", truth->seconds);
  if (o.trace) {
    Truth scratch;
    truth->cost_seconds = RunSeq(
        w.kind, view, kPageRankTol * view.num_vertices(), &scratch);
  }
  return true;
}

// ------------------------------------------------------------- instance ---

/// Everything set-up builds; torn down after each iteration.
struct Instance {
  std::optional<MmapGraph> store;
  GraphView view;
  GraphView transpose;
  std::unique_ptr<ChunkedArcSource> out_source;
  std::unique_ptr<ChunkedArcSource> in_source;
  std::optional<Partition> partition;
};

struct SetupSpans {
  uint32_t open = 0, assign = 0, build = 0;
};

/// Set-up, from the input in hand to a partition the engine can run on.
SetupSpans SetUp(const WorkloadSpec& w, const Input& in, WorkerPool& pool,
                 SpanLog& log, uint32_t request, Instance* inst) {
  SetupSpans spans;
  Clock::time_point t0 = Clock::now();
  PartitionOptions popts;
  if (w.kind == Workload::kCc) {
    auto opened = MmapGraph::Open(in.store_path, MmapGraph::Verify::kFull);
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench: cannot open %s: %s\n",
                   in.store_path.c_str(), opened.status().ToString().c_str());
      std::exit(1);
    }
    inst->store.emplace(std::move(opened.value()));
    inst->view = inst->store->View();
    inst->transpose = inst->store->TransposeView();
    inst->out_source =
        std::make_unique<ChunkedArcSource>(*inst->store, kStreamBudgetArcs);
    inst->in_source = std::make_unique<ChunkedArcSource>(
        inst->transpose, kStreamBudgetArcs, ChunkedArcSource::Backend::kMapped);
    popts.arc_source = inst->out_source.get();
    popts.in_arc_source = inst->in_source.get();
  } else {
    inst->view = in.graph.View();
  }
  Clock::time_point t1 = Clock::now();
  spans.open = log.Add("graph.open", request, 0, t0, t1);
  std::vector<FragmentId> placement = LdgPartitioner().Assign(inst->view,
                                                              kFragments);
  Clock::time_point t2 = Clock::now();
  spans.assign = log.Add("partition.assign", request, 0, t1, t2);
  inst->partition.emplace(BuildPartition(inst->view, std::move(placement),
                                         kFragments, &pool, popts));
  spans.build = log.Add("partition.build", request, 0, t2, Clock::now());
  // Residency peaks cover the solve only, not the build's sweeps.
  for (const auto* src : {inst->out_source.get(), inst->in_source.get()}) {
    if (src != nullptr) src->ResetStats();
  }
  return spans;
}

// ---------------------------------------------------------------- solve ---

template <typename R>
struct Outcome {
  R result;
  RunStats stats;
  bool converged = false;
  uint64_t termination_probes = 0;
  uint64_t worklist_pushes = 0;
  uint64_t worklist_steals = 0;
  Clock::time_point start, end;
  double cpu_s = 0.0;
};

template <typename Engine, typename Prog>
Outcome<typename Prog::ResultT> Execute(const Partition& p, Prog prog,
                                        const EngineConfig& cfg) {
  Engine engine(p, std::move(prog), cfg);
  Outcome<typename Prog::ResultT> o;
  const double cpu0 = CpuSeconds();
  o.start = Clock::now();
  auto r = engine.Run();
  o.end = Clock::now();
  o.cpu_s = CpuSeconds() - cpu0;
  o.result = std::move(r.result);
  o.stats = std::move(r.stats);
  o.converged = r.converged;
  o.termination_probes = r.termination_probes;
  if constexpr (requires { r.worklist_pushes; }) {
    o.worklist_pushes = r.worklist_pushes;
    o.worklist_steals = r.worklist_steals;
  }
  return o;
}

/// One engine Run() of `prog`, through TracedProgram when `trace` is set.
template <template <typename> class EngineT, typename Prog>
Outcome<typename Prog::ResultT> Solve(const Partition& p, const Prog& prog,
                                      const EngineConfig& cfg,
                                      ProgramTrace* trace) {
  if (trace != nullptr) {
    using Traced = TracedProgram<Prog>;
    return Execute<EngineT<Traced>>(p, Traced(prog, trace), cfg);
  }
  return Execute<EngineT<Prog>>(p, prog, cfg);
}

// --------------------------------------------------------- verification ---

struct Verdict {
  bool ok = false;
  std::string detail;
};

/// Exact match for CC labels and SSSP distances.
template <typename T>
Verdict VerifyExact(const std::vector<T>& got, const std::vector<T>& truth) {
  if (got.size() != truth.size()) return {false, "size mismatch"};
  uint64_t bad = 0;
  for (size_t v = 0; v < got.size(); ++v) bad += got[v] != truth[v];
  return {bad == 0, std::to_string(bad) + " mismatches (exact)"};
}

/// PageRank: the engine stops with every inner residual and every outer
/// accumulator below tol, so at most L = tol * sum_i |V_i| (inner + outer
/// copies) of residual mass is never propagated, and it would add at most
/// L / (1 - d) to the scores' L1 norm. The ground truth leaves at most
/// kTruthEps total residual, likewise. Hence the fixed, derived bound
///   ||x - x*||_1 <= (L + kTruthEps) / (1 - d)  (+ 1e-9 relative rounding).
Verdict VerifyPageRank(const std::vector<double>& got,
                       const std::vector<double>& truth, const Partition& p) {
  if (got.size() != truth.size()) return {false, "size mismatch"};
  uint64_t locals = 0;
  for (const Fragment& f : p.fragments) locals += f.num_local();
  double err = 0.0, mass = 0.0;
  for (size_t v = 0; v < got.size(); ++v) {
    err += std::fabs(got[v] - truth[v]);
    mass += truth[v];
  }
  const double bound =
      (kPageRankTol * static_cast<double>(locals) + kTruthEps) /
          (1.0 - kDamping) +
      1e-9 * mass;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "L1 error %.4g <= bound %.4g", err, bound);
  return {std::isfinite(err) && err <= bound, buf};
}

// -------------------------------------------------------------- metrics ---

using Values = std::map<std::string, double>;

struct Iteration {
  bool warmup = false;
  bool traced = false;
  bool ok = false;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double solve_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  Values layers;  // traced iterations only
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename R>
Values LayerValues(const Instance& inst, const SpanLog& log,
                   const SetupSpans& setup, uint32_t run_span,
                   const ProgramTrace& trace, const Outcome<R>& o,
                   uint32_t threads) {
  Values m;
  const Partition& p = *inst.partition;
  const RunStats& s = o.stats;
  const double solve_s = SecondsBetween(o.start, o.end);

  m["graph.open_s"] = log.span(setup.open).seconds();
  uint64_t resident = 0;
  for (const auto* src : {inst.out_source.get(), inst.in_source.get()}) {
    if (src != nullptr) resident += src->peak_resident_arcs();
  }
  m["graph.peak_resident_arcs"] = static_cast<double>(resident);
  const LidCacheStats lid = p.TotalLidCacheStats();
  const uint64_t lookups = lid.hits + lid.misses;
  m["graph.lid_cache_hit_rate"] =
      lookups == 0 ? 0.0 : static_cast<double>(lid.hits) / lookups;

  m["partition.assign_s"] = log.span(setup.assign).seconds();
  m["partition.build_s"] = log.span(setup.build).seconds();
  const PartitionMetrics pm = ComputeMetrics(p);
  m["partition.edge_cut"] = pm.edge_cut_fraction;
  m["partition.skew"] = pm.skew;

  double peval_s = 0.0, inceval_s = 0.0, work = 0.0, inceval_work = 0.0;
  uint64_t calls = 0, updates = 0, entries = 0;
  std::vector<double> inceval_us;
  for (const FragmentTally& t : trace.tallies()) {
    calls += t.inceval_calls;
    updates += t.updates_in;
    entries += t.entries_out;
    work += t.peval_work + t.inceval_work;
    inceval_work += t.inceval_work;
    for (const CallSpan& c : t.spans) {
      const double sec = static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
      (c.inceval ? inceval_s : peval_s) += sec;
      if (c.inceval) inceval_us.push_back(sec * 1e6);
    }
  }
  m["algos.peval_s"] = peval_s;
  m["algos.inceval_s"] = inceval_s;
  m["algos.inceval_calls"] = static_cast<double>(calls);
  m["algos.inceval_p50_us"] = Median(std::move(inceval_us));
  m["algos.updates_in"] = static_cast<double>(updates);
  m["algos.entries_out"] = static_cast<double>(entries);
  m["algos.work_units"] = work;
  m["algos.work_per_update"] =
      updates == 0 ? 0.0 : inceval_work / static_cast<double>(updates);
  m["algos.work_per_arc"] = work / static_cast<double>(p.graph.num_arcs());

  uint64_t entries_sent = 0, applied = 0;
  for (const WorkerStats& ws : s.workers) {
    entries_sent += ws.entries_sent;
    applied += ws.updates_applied;
  }
  m["runtime.msgs"] = static_cast<double>(s.total_msgs());
  m["runtime.msg_mb"] = static_cast<double>(s.total_bytes()) / 1048576.0;
  m["runtime.entries_sent"] = static_cast<double>(entries_sent);
  m["runtime.updates_applied"] = static_cast<double>(applied);

  m["core.rounds"] = static_cast<double>(s.total_rounds());
  m["core.max_worker_rounds"] = static_cast<double>(s.max_rounds());
  m["core.thread_busy_s"] = s.total_thread_busy();
  m["core.thread_idle_s"] = s.total_thread_idle();
  m["core.other_s"] = threads * solve_s - s.total_thread_busy() -
                      s.total_thread_idle();
  m["core.run_self_s"] = log.SelfSeconds(run_span);
  m["core.worklist_pushes"] = static_cast<double>(o.worklist_pushes);
  m["core.worklist_steals"] = static_cast<double>(o.worklist_steals);
  m["core.termination_probes"] = static_cast<double>(o.termination_probes);
  m["core.spurious_wakeups"] = static_cast<double>(s.spurious_wakeups);
  m["core.push_rounds"] = static_cast<double>(s.total_push_rounds());
  m["core.pull_rounds"] = static_cast<double>(s.total_pull_rounds());
  m["core.direction_switches"] =
      static_cast<double>(s.total_direction_switches());
  return m;
}

// ------------------------------------------------------------------ run ---

struct Context {
  const Options& opts;
  const Input& input;
  const Truth& truth;
  WorkerPool& pool;
  SpanLog& log;
  EngineConfig cfg;
  uint32_t threads;
};

Iteration RunIteration(const Context& c, uint32_t request, bool traced) {
  const WorkloadSpec& w = *c.opts.workload;
  Instance inst;
  const SetupSpans setup = SetUp(w, c.input, c.pool, c.log, request, &inst);
  const Partition& p = *inst.partition;
  ProgramTrace trace(kFragments, c.log.epoch());
  ProgramTrace* tp = traced ? &trace : nullptr;

  Iteration it;
  it.warmup = request == 0;
  it.traced = traced;
  it.setup_s = static_cast<double>(c.log.span(setup.build).end_ns -
                                   c.log.span(setup.open).start_ns) *
               1e-9;

  const auto finish = [&](auto& o, const Verdict& v) {
    const uint32_t run_span = c.log.Add("core.run", request, 0, o.start, o.end);
    if (traced) c.log.AddProgramCalls(trace, request, run_span);
    it.solve_s = SecondsBetween(o.start, o.end);
    it.solve_cpu_s = o.cpu_s;
    it.ok = o.converged && v.ok;
    it.peak_rss_mb = PeakRssMb();
    if (traced) {
      it.layers =
          LayerValues(inst, c.log, setup, run_span, trace, o, c.threads);
    }
    std::printf(
        "iter %3u %-8s setup %.4f s  solve %.4f s  cpu %.3f s  rounds %llu  "
        "converged %s  verify %s (%s)\n",
        request, it.warmup ? "warmup" : traced ? "traced" : "untraced",
        it.setup_s, it.solve_s, it.solve_cpu_s,
        static_cast<unsigned long long>(o.stats.total_rounds()),
        o.converged ? "yes" : "NO", v.ok ? "ok" : "FAILED", v.detail.c_str());
  };

  switch (w.kind) {
    case Workload::kPageRank: {
      auto o = Solve<ThreadedEngine>(p, PageRankProgram(kDamping, kPageRankTol),
                                     c.cfg, tp);
      finish(o, VerifyPageRank(o.result, c.truth.values, p));
      break;
    }
    case Workload::kSssp: {
      auto o = Solve<AsyncEngine>(p, SsspProgram(kSsspSource), c.cfg, tp);
      finish(o, VerifyExact(o.result, c.truth.values));
      break;
    }
    case Workload::kCc: {
      EngineConfig cfg = c.cfg;
      cfg.direction.mode = DirectionConfig::Mode::kAuto;
      auto o = Solve<ThreadedEngine>(p, CcPullProgram{}, cfg, tp);
      finish(o, VerifyExact(o.result, c.truth.labels));
      break;
    }
  }
  return it;
}

int Main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  const WorkloadSpec& w = *opts.workload;
  const uint32_t threads = std::min(kMaxThreads, UsableCpus());
  const Clock::time_point process_start = Clock::now();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  const std::string fingerprint = Fingerprint(opts, threads);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  std::error_code ec;
  std::filesystem::create_directories(opts.data_dir, ec);
  WorkerPool pool(threads);

  SpanLog log(process_start);
  EngineConfig cfg;
  cfg.num_threads = threads;
  std::vector<Iteration> iters;
  std::vector<double> cost_s;
  bool rss_reset = false;
  uint32_t request = 0;
  // The run covers w.graphs inputs one after another, each for an equal
  // share of --seconds.
  for (uint32_t index = 0; index < w.graphs; ++index) {
    Input input;
    Truth truth;
    if (!PrepareInput(w, opts, index, pool, &input, &truth)) return 1;
    if (opts.trace) cost_s.push_back(truth.cost_seconds);
    const Context ctx{opts, input, truth, pool, log, cfg, threads};
    const auto run_one = [&](bool traced) {
      // Hand memory freed by earlier iterations back to the kernel first, so
      // every iteration's peak starts from the same live set.
      malloc_trim(0);
      rss_reset = ResetPeakRss();
      iters.push_back(RunIteration(ctx, request++, traced));
    };
    // Request 0 warms caches and lazy state up: it is verified and counted
    // as attempted, but its timings are left out.
    if (request == 0) run_one(false);
    const Clock::time_point segment_start = Clock::now();
    for (uint32_t done = 0;; ++done) {
      const Clock::time_point now = Clock::now();
      const bool enough = done >= kMinIterationsPerGraph &&
                          SecondsBetween(segment_start, now) >=
                              opts.seconds / w.graphs;
      const bool out_of_time =
          done > 0 && SecondsBetween(process_start, now) >= kHardStopSeconds;
      if (enough || out_of_time) break;
      // Trace runs alternate untraced and traced iterations, so both see the
      // same machine conditions for trace.overhead.
      run_one(opts.trace && request % 2 == 0);
    }
  }

  // ---- aggregate ----
  uint64_t failed = 0;
  std::vector<double> setup, solve, cpu, rss, traced_solve;
  std::map<std::string, std::vector<double>> layer_samples;
  for (const Iteration& it : iters) {
    failed += !it.ok;
    if (it.warmup) continue;
    if (it.traced) {
      traced_solve.push_back(it.solve_s);
      for (const auto& [k, v] : it.layers) layer_samples[k].push_back(v);
    } else {
      setup.push_back(it.setup_s);
      solve.push_back(it.solve_s);
      cpu.push_back(it.solve_cpu_s);
      rss.push_back(it.peak_rss_mb);
    }
  }
  const uint64_t attempted = iters.size();
  Values values;
  values["solve_s"] = Median(solve);
  values["setup_s"] = Median(setup);
  values["solve_cpu_s"] = Median(cpu);
  values["peak_rss_mb"] = Median(rss);
  values["verified_frac"] =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  if (opts.trace) {
    for (const auto& [k, v] : layer_samples) values[k] = Median(v);
    values["cost.seq_s"] = Median(cost_s);
    values["cost.speedup"] = values["solve_s"] > 0.0
                                 ? values["cost.seq_s"] / values["solve_s"]
                                 : 0.0;
    values["trace.overhead"] = values["solve_s"] > 0.0
                                   ? Median(traced_solve) / values["solve_s"]
                                   : 0.0;
  }

  // ---- report ----
  std::printf("peak rss source: %s\n",
              rss_reset ? "VmHWM, reset before each iteration"
                        : "whole process (VmHWM reset refused)");
  std::printf("%-28s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median",
              "min", "max", "n");
  const auto samples_of = [&](const std::string& name) -> std::vector<double> {
    if (name == "solve_s") return solve;
    if (name == "setup_s") return setup;
    if (name == "solve_cpu_s") return cpu;
    if (name == "peak_rss_mb") return rss;
    if (name == "cost.seq_s") return cost_s;
    auto found = layer_samples.find(name);
    return found == layer_samples.end() ? std::vector<double>{}
                                        : found->second;
  };
  for (const MetricDef& d : kMetrics) {
    if (!d.end_to_end && !opts.trace) continue;
    std::vector<double> smp = samples_of(d.name);
    if (smp.empty()) smp.push_back(values[d.name]);
    const auto [lo, hi] = std::minmax_element(smp.begin(), smp.end());
    std::printf("%-28s %-6s %14.6g %14.6g %14.6g %4zu\n", d.name, d.unit,
                values[d.name], *lo, *hi, smp.size());
  }
  std::printf("attempted %llu, failed %llu, failed_frac %.4g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));

  if (opts.trace) {
    const std::string path = opts.data_dir + "/trace-" + w.name + "-seed" +
                             std::to_string(opts.seed) + ".json";
    if (log.WriteChromeTrace(path, fingerprint)) {
      std::printf("spans written to %s (%zu spans)\n", path.c_str(),
                  log.spans().size());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : kMetrics) {
    if (d.end_to_end == opts.trace) continue;
    json << (first ? "" : ", ") << JsonString(d.name) << ": {\"value\": "
         << Num(values[d.name]) << ", \"unit\": " << JsonString(d.unit) << "}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

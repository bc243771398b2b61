// Copyright 2026 The GRAPE+ Reproduction Authors.
// TracedProgram must be invisible to the engines: on the deterministic
// SimEngine a wrapped run is bit-identical to the unwrapped one (result,
// rounds, work units, virtual makespan), and the adapter's own tallies
// agree with the engine's RunStats.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "algos/cc_pull.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/sim_engine.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "traced_program.h"

namespace perfbench {
namespace {

using grape::CcPullProgram;
using grape::DirectionConfig;
using grape::PageRankProgram;
using grape::SsspProgram;

// The adapter exposes exactly the optional surface of the inner program.
static_assert(grape::DualModeProgram<TracedProgram<PageRankProgram>>);
static_assert(grape::DualModeProgram<TracedProgram<CcPullProgram>>);
static_assert(!grape::DualModeProgram<TracedProgram<SsspProgram>>);
static_assert(grape::PrioritizedProgram<TracedProgram<SsspProgram>>);
static_assert(!grape::PrioritizedProgram<TracedProgram<PageRankProgram>>);

class AdapterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    grape::RmatOptions r;
    r.num_vertices = 1 << 10;
    r.num_edges = 1 << 13;
    r.directed = false;
    r.weighted = true;
    r.seed = 5;
    graph_ = grape::MakeRmat(r);
    transpose_ = grape::TransposeGraph(graph_);
    transpose_view_ = transpose_.View();
    grape::PartitionOptions popts;
    popts.in_adjacency = &transpose_view_;
    partition_.emplace(grape::BuildPartition(
        graph_, grape::LdgPartitioner().Assign(graph_, 4), 4, nullptr,
        popts));
  }

  template <typename Prog>
  void ExpectTransparent(const Prog& prog, DirectionConfig::Mode dir) {
    grape::EngineConfig cfg;
    cfg.direction.mode = dir;
    const grape::Partition& p = *partition_;
    auto plain = grape::SimEngine<Prog>(p, prog, cfg).Run();
    ProgramTrace trace(p.num_fragments(), Clock::now());
    using Traced = TracedProgram<Prog>;
    auto wrapped =
        grape::SimEngine<Traced>(p, Traced(prog, &trace), cfg).Run();

    EXPECT_TRUE(plain.converged);
    EXPECT_EQ(wrapped.converged, plain.converged);
    EXPECT_EQ(wrapped.result, plain.result);  // bit-identical values
    EXPECT_EQ(wrapped.stats.total_rounds(), plain.stats.total_rounds());
    EXPECT_EQ(wrapped.stats.total_msgs(), plain.stats.total_msgs());
    EXPECT_EQ(wrapped.stats.total_pull_rounds(),
              plain.stats.total_pull_rounds());
    EXPECT_EQ(wrapped.stats.makespan, plain.stats.makespan);
    ASSERT_EQ(wrapped.stats.workers.size(), plain.stats.workers.size());
    double work = 0.0;
    uint64_t applied = 0;
    for (size_t w = 0; w < plain.stats.workers.size(); ++w) {
      EXPECT_EQ(wrapped.stats.workers[w].work_units,
                plain.stats.workers[w].work_units);
      EXPECT_EQ(wrapped.stats.workers[w].rounds, plain.stats.workers[w].rounds);
      work += plain.stats.workers[w].work_units;
      applied += plain.stats.workers[w].updates_applied;
    }

    uint64_t pevals = 0, incevals = 0, updates = 0, spans = 0;
    double traced_work = 0.0;
    for (const FragmentTally& t : trace.tallies()) {
      pevals += t.peval_calls;
      incevals += t.inceval_calls;
      updates += t.updates_in;
      traced_work += t.peval_work + t.inceval_work;
      spans += t.spans.size();
      for (const CallSpan& c : t.spans) EXPECT_LE(c.start_ns, c.end_ns);
    }
    EXPECT_EQ(pevals, p.num_fragments());
    EXPECT_EQ(incevals, plain.stats.total_rounds());
    EXPECT_EQ(updates, applied);
    EXPECT_DOUBLE_EQ(traced_work, work);
    EXPECT_EQ(spans, pevals + incevals);
  }

  grape::Graph graph_;
  grape::Graph transpose_;
  grape::GraphView transpose_view_;
  std::optional<grape::Partition> partition_;
};

constexpr DirectionConfig::Mode kDirections[] = {
    DirectionConfig::Mode::kPush, DirectionConfig::Mode::kPull,
    DirectionConfig::Mode::kAuto};

TEST_F(AdapterTest, PageRankIsBitIdentical) {
  for (auto dir : kDirections) {
    SCOPED_TRACE(static_cast<int>(dir));
    ExpectTransparent(PageRankProgram(0.85, 1e-6), dir);
  }
}

TEST_F(AdapterTest, SsspIsBitIdentical) {
  ExpectTransparent(SsspProgram(0), DirectionConfig::Mode::kPush);
}

TEST_F(AdapterTest, CcPullIsBitIdentical) {
  for (auto dir : kDirections) {
    SCOPED_TRACE(static_cast<int>(dir));
    ExpectTransparent(CcPullProgram{}, dir);
  }
}

}  // namespace
}  // namespace perfbench

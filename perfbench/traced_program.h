// Copyright 2026 The GRAPE+ Reproduction Authors.
// TracedProgram: a forwarding adapter that times every PEval / IncEval call
// of a PIE program from outside the library. The engines see the wrapped
// program through exactly the same compile-time surface as the inner one —
// the SweepDirection overloads, UpdatePriority, HasLocalWork and
// BindStateMemory exist on the adapter iff they exist on the inner program —
// so DualModeProgram / PrioritizedProgram detection, and with it the
// engine's scheduling, is unchanged.
//
// Recording is per fragment and lock-free without atomics: an engine runs
// at most one call per fragment at a time (the worker claim serialises
// them, and the claim's acquire/release orders successive holders), so each
// fragment's tally has a single writer at any moment.
#ifndef PERFBENCH_TRACED_PROGRAM_H_
#define PERFBENCH_TRACED_PROGRAM_H_

#include <chrono>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/pie.h"
#include "partition/fragment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One PEval or IncEval call, in ns since the owning ProgramTrace's epoch.
struct CallSpan {
  bool inceval = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Everything recorded for one fragment. Cache-line aligned so that
/// neighbouring fragments' tallies, written by different threads, do not
/// false-share.
struct alignas(64) FragmentTally {
  uint64_t peval_calls = 0;
  uint64_t inceval_calls = 0;
  uint64_t updates_in = 0;   // update entries handed to IncEval
  uint64_t entries_out = 0;  // entries emitted by PEval + IncEval
  double peval_work = 0.0;   // program-reported work units
  double inceval_work = 0.0;
  std::vector<CallSpan> spans;
};

/// The per-fragment tallies of one engine run.
class ProgramTrace {
 public:
  ProgramTrace(grape::FragmentId num_fragments, Clock::time_point epoch)
      : epoch_(epoch), tallies_(num_fragments) {}

  int64_t SinceEpochNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  FragmentTally& tally(grape::FragmentId f) { return tallies_[f]; }
  const std::vector<FragmentTally>& tallies() const { return tallies_; }

 private:
  Clock::time_point epoch_;
  std::vector<FragmentTally> tallies_;
};

template <typename P>
  requires grape::PieProgram<P>
class TracedProgram {
 public:
  using Value = typename P::Value;
  using State = typename P::State;
  using ResultT = typename P::ResultT;
  using Updates = std::span<const grape::UpdateEntry<Value>>;
  static constexpr bool kOwnerBroadcast = P::kOwnerBroadcast;

  /// `trace` must outlive every engine run of this adapter.
  TracedProgram(P inner, ProgramTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  State Init(const grape::Fragment& f) const { return inner_.Init(f); }

  double PEval(const grape::Fragment& f, State& st,
               grape::Emitter<Value>* out) const {
    return Record(f, false, 0, out, [&] { return inner_.PEval(f, st, out); });
  }
  double PEval(const grape::Fragment& f, State& st,
               grape::Emitter<Value>* out, grape::SweepDirection dir) const
    requires grape::DualModeProgram<P>
  {
    return Record(f, false, 0, out,
                  [&] { return inner_.PEval(f, st, out, dir); });
  }

  double IncEval(const grape::Fragment& f, State& st, Updates updates,
                 grape::Emitter<Value>* out) const {
    return Record(f, true, updates.size(), out,
                  [&] { return inner_.IncEval(f, st, updates, out); });
  }
  double IncEval(const grape::Fragment& f, State& st, Updates updates,
                 grape::Emitter<Value>* out, grape::SweepDirection dir) const
    requires grape::DualModeProgram<P>
  {
    return Record(f, true, updates.size(), out,
                  [&] { return inner_.IncEval(f, st, updates, out, dir); });
  }

  Value Combine(const Value& a, const Value& b) const {
    return inner_.Combine(a, b);
  }

  double UpdatePriority(const Value& v) const
    requires grape::PrioritizedProgram<P>
  {
    return inner_.UpdatePriority(v);
  }

  bool HasLocalWork(const State& st) const
    requires requires(const P& p, const State& s) {
      { p.HasLocalWork(s) } -> std::convertible_to<bool>;
    }
  {
    return inner_.HasLocalWork(st);
  }

  void BindStateMemory(State& st, int node) const
    requires requires(const P& p, State& s) { p.BindStateMemory(s, 0); }
  {
    inner_.BindStateMemory(st, node);
  }

  ResultT Assemble(const grape::Partition& p,
                   const std::vector<State>& states) const {
    return inner_.Assemble(p, states);
  }

 private:
  template <typename Call>
  double Record(const grape::Fragment& f, bool inceval, size_t updates,
                grape::Emitter<Value>* out, Call&& call) const {
    FragmentTally& t = trace_->tally(f.id());
    const size_t emitted_before = out->entries().size();
    const Clock::time_point start = Clock::now();
    const double work = call();
    const Clock::time_point end = Clock::now();
    t.entries_out += out->entries().size() - emitted_before;
    if (inceval) {
      ++t.inceval_calls;
      t.updates_in += updates;
      t.inceval_work += work;
    } else {
      ++t.peval_calls;
      t.peval_work += work;
    }
    t.spans.push_back(CallSpan{inceval, trace_->SinceEpochNs(start),
                               trace_->SinceEpochNs(end)});
    return work;
  }

  P inner_;
  ProgramTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_PROGRAM_H_

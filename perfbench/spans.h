// Copyright 2026 The GRAPE+ Reproduction Authors.
// In-memory span log of the benchmark. Spans are recorded around calls into
// each library layer from the benchmark's own code (graph.open,
// partition.assign, partition.build, core.run) plus one span per program
// call taken from a ProgramTrace (algos.peval / algos.inceval, children of
// core.run). Spans of one set-up + solve share a request id. The log is
// kept in memory and written out once, when the benchmark ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "traced_program.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint32_t id = 0;       // 1-based; 0 = none
  uint32_t parent = 0;   // 0 = root
  uint32_t request = 0;  // set-up + solve iteration the span belongs to
  uint32_t lane = 0;     // 0 = benchmark thread, 1 + f = fragment f's calls
  int64_t start_ns = 0;  // since the log's epoch
  int64_t end_ns = 0;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  Clock::time_point epoch() const { return epoch_; }

  /// Records a finished span and returns its id.
  uint32_t Add(const char* name, uint32_t request, uint32_t parent,
               Clock::time_point start, Clock::time_point end);

  /// Records every call of `trace` (which must share this log's epoch) as a
  /// child of span `parent`.
  void AddProgramCalls(const ProgramTrace& trace, uint32_t request,
                       uint32_t parent);

  const Span& span(uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `id`: its duration minus the part of its interval
  /// that the union of its children's intervals covers.
  double SelfSeconds(uint32_t id) const;

  /// Writes the log in Chrome trace-event JSON (chrome://tracing,
  /// Perfetto); `metadata` is a JSON object stored under "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

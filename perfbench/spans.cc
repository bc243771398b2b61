// Copyright 2026 The GRAPE+ Reproduction Authors.
#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

uint32_t SpanLog::Add(const char* name, uint32_t request, uint32_t parent,
                      Clock::time_point start, Clock::time_point end) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back(Span{name, id, parent, request, 0, ns(start), ns(end)});
  return id;
}

void SpanLog::AddProgramCalls(const ProgramTrace& trace, uint32_t request,
                              uint32_t parent) {
  const auto& tallies = trace.tallies();
  for (size_t f = 0; f < tallies.size(); ++f) {
    for (const CallSpan& c : tallies[f].spans) {
      const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
      spans_.push_back(Span{c.inceval ? "algos.inceval" : "algos.peval", id,
                            parent, request, static_cast<uint32_t>(f) + 1,
                            c.start_ns, c.end_ns});
    }
  }
}

double SpanLog::SelfSeconds(uint32_t id) const {
  const Span& s = span(id);
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& c : spans_) {
    if (c.parent != id) continue;
    const int64_t b = std::max(c.start_ns, s.start_ns);
    const int64_t e = std::min(c.end_ns, s.end_ns);
    if (b < e) children.emplace_back(b, e);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = s.start_ns;
  for (const auto& [b, e] : children) {
    const int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
               metadata.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}%s\n",
                 s.name, s.request, s.lane,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#ifndef CROSSMINE_PERFBENCH_TRACE_H_
#define CROSSMINE_PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark driver. The driver wraps each
// call into a CrossMine module (storage, relational, core, serve) in a span;
// spans stay in memory while the run measures and are written out when it
// ends. A disabled tracer records nothing, so untraced runs pay one branch
// per call site.
//
// Spans are opened and closed on the driver's main thread only.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span; -1 for a root
  int64_t run_id = 0;    ///< shared by the spans of one repetition/request
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Seconds since construction (steady clock).
  double Now() const;

  /// Opens a span nested in the innermost open span; returns its index, or
  /// -1 when disabled.
  int Open(const std::string& name, int64_t run_id);
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start, end, parent, run_id.
  bool WriteJsonl(const std::string& path) const;

  /// Per-name table of count, total and self time, where a span's self time
  /// is its duration minus the part of it that its children cover.
  std::string SelfTimeTable() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t run_id)
      : tracer_(tracer), id_(tracer->Open(name, run_id)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // CROSSMINE_PERFBENCH_TRACE_H_

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::Open(const std::string& name, int64_t run_id) {
  if (!enabled_) return -1;
  int parent = open_.empty() ? -1 : open_.back();
  int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, Now(), 0.0, parent, run_id});
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans close in LIFO order on the main thread; tolerate a stray order by
  // dropping everything opened after `id`.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"run_id\":%lld}\n",
                 s.name.c_str(), s.start_s, s.end_s, s.parent,
                 static_cast<long long>(s.run_id));
  }
  return std::fclose(f) == 0;
}

std::string Tracer::SelfTimeTable() const {
  // Spans nest strictly (one thread, LIFO), so the children of a span never
  // overlap and the part they cover is the sum of their durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  struct Row {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  double root_total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double dur = s.end_s - s.start_s;
    Row& r = rows[s.name];
    ++r.count;
    r.total += dur;
    r.self += dur - covered[i];
    if (s.parent < 0) root_total += dur;
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %8s %12s %12s %7s\n", "span",
                "count", "total_s", "self_s", "self%");
  out += line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-34s %8lld %12.6f %12.6f %6.2f%%\n",
                  name.c_str(), static_cast<long long>(r.count), r.total,
                  r.self, root_total > 0 ? 100.0 * r.self / root_total : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench

#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

namespace perfbench {

namespace {

constexpr size_t kCycleEntries = size_t{1} << 22;  // 16 MiB of uint32_t
constexpr int kLanes = 8;
constexpr int kHashSteps = 3'000'000;   // per lane
constexpr int kChaseSteps = 150'000;    // per lane
constexpr int kSweeps = 4;

}  // namespace

HostSpeed::HostSpeed() : cycle_(kCycleEntries) {
  // One random cycle through every entry (Sattolo's shuffle), so a chase
  // visits the whole buffer before it repeats.
  for (size_t i = 0; i < kCycleEntries; ++i) {
    cycle_[i] = static_cast<uint32_t>(i);
  }
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (size_t i = kCycleEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(cycle_[i], cycle_[x % i]);
  }
}

void HostSpeed::Probe() {
  auto start = std::chrono::steady_clock::now();
  uint64_t h[kLanes];
  for (int j = 0; j < kLanes; ++j) h[j] = sink_ + static_cast<uint64_t>(j);
  for (int k = 0; k < kHashSteps; ++k) {
    for (int j = 0; j < kLanes; ++j) {
      h[j] = (h[j] * 6364136223846793005ULL + 1442695040888963407ULL) ^
             (h[j] >> 29);
    }
  }
  uint32_t p[kLanes];
  for (int j = 0; j < kLanes; ++j) {
    p[j] = static_cast<uint32_t>(h[j] % kCycleEntries);
  }
  for (int k = 0; k < kChaseSteps; ++k) {
    for (int j = 0; j < kLanes; ++j) p[j] = cycle_[p[j]];
  }
  uint64_t acc = 0;
  for (int s = 0; s < kSweeps; ++s) {
    for (size_t i = 0; i < kCycleEntries; ++i) acc += cycle_[i] * (i | 1);
  }
  auto end = std::chrono::steady_clock::now();
  for (int j = 0; j < kLanes; ++j) acc += h[j] + p[j];
  sink_ += acc;  // keeps every part live
  secs_.push_back(std::chrono::duration<double>(end - start).count());
}

double HostSpeed::reference_s(size_t first) const {
  if (first >= secs_.size()) return kNominalSeconds;
  std::vector<double> v(secs_.begin() + static_cast<std::ptrdiff_t>(first),
                        secs_.end());
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

#ifndef CROSSMINE_PERFBENCH_HOST_SPEED_H_
#define CROSSMINE_PERFBENCH_HOST_SPEED_H_

// Reference kernel that measures how fast the host runs right now.
//
// The benchmark's host is a KVM guest whose speed drifts with what other
// tenants do: within minutes the same code gets up to 1.4x faster or slower,
// and every phase of a run moves together. No run length averages that away,
// so the driver times a fixed reference kernel between its phases and reports
// each end-to-end timing scaled to a nominal host speed:
//
//   time reported = time measured * kNominalSeconds / reference seconds
//
// (rates the other way round), where the reference seconds are the median of
// the probes taken between the phases of the same run. Scaling each slice of
// a run by the two probes around it was tried and spread more: one probe is
// noisier than the host's drift over a few seconds. The kernel runs no
// CrossMine code, so a change to the program moves the measured times and
// never the reference.
//
// The kernel has three parts of fixed work, all throughput-bound: eight
// independent integer hash chains, eight independent pointer chases through a
// 16 MiB cycle, and one sequential multiply-accumulate sweep over the same
// 16 MiB. Single dependent chains (one hash chain, one pointer chase) were
// tried first and do not follow the program: they are latency-bound and
// barely notice a busy neighbour on the same core. Sampled next to CrossMine
// predict and train calls on the 4-vCPU host, this mix cut the interquartile
// spread of those calls over 20-60 s windows from 13.4-17.6 % to
// 4.9-7.3 % while the host was noisy, and raised it from 3.7-5.7 % to
// 4.6-8.2 % while the host was calm: scaling trades a little spread in calm
// hours for much less in noisy ones.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Reference seconds at the nominal host speed: near the median reference
  /// time on the 4-vCPU host that fixed the bounds, so scaled values stay
  /// close to the measured ones.
  static constexpr double kNominalSeconds = 0.090;

  /// Builds the 16 MiB cycle (untimed).
  HostSpeed();

  /// Runs the kernel once and records its time.
  void Probe();

  size_t probes() const { return secs_.size(); }

  /// Median time of the probes from the `first`-th on, in seconds.
  double reference_s(size_t first) const;

  /// Bytes the kernel keeps resident for the whole run.
  size_t resident_bytes() const { return cycle_.size() * sizeof(uint32_t); }

 private:
  std::vector<uint32_t> cycle_;
  std::vector<double> secs_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // CROSSMINE_PERFBENCH_HOST_SPEED_H_

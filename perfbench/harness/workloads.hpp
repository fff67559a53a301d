// The benchmark's workloads.
//
// Each workload is a closed loop: one client issues the workload's checks
// back to back.  Constructing a workload is its set-up (generate the
// seeded inputs, build the programs, prepare the known answers); round()
// runs every check once with tracing off, and traced_round() runs the same
// work through the traced paths that feed the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Verdict bookkeeping: every check or sweep is attempted once and fails if
/// its verdict differs from the known answer or it throws.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void record(bool ok, const std::string& what);
};

/// Wall-clock time of one check (or sweep) of an untraced round.
struct CheckTime {
  double seconds = 0;
  bool parallel = false;  // a jobs = nproc check or sweep (else serial)
  double specs = 0;       // SP+ spec executions it completed
};

/// One untraced round: every check of the workload, by name.
using RoundTimes = std::map<std::string, CheckTime>;

/// The end-to-end metrics of a set of rounds.  Each check is timed by its
/// median over the rounds; the serial and parallel totals sum those times,
/// and specs_per_s divides the specs completed by the time of the checks
/// that completed them.
struct Summary {
  double serial_s = 0;
  double parallel_s = 0;
  double specs_per_s = 0;
};
RoundTimes median_round(const std::vector<RoundTimes>& rounds);
/// The q-quantile of `v` by linear interpolation (0 for an empty `v`).
double quantile(std::vector<double> v, double q);
Summary summarize(const RoundTimes& round);

/// Per-layer metrics of one traced round, by name (perfbench/README.md).
using LayerMetrics = std::map<std::string, double>;

/// One per-layer metric.  A traced run reports every one of them on every
/// workload (0 where a layer does no work).  `exact` metrics are counts (or
/// ratios of counts) that must repeat exactly between traced rounds and
/// between runs with the same seed.
struct LayerMetricInfo {
  const char* name;
  const char* unit;
  bool exact;
};
const std::vector<LayerMetricInfo>& layer_metrics();

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void round(Tally& tally, RoundTimes& times) = 0;
  /// `untraced` holds the median times of the untraced rounds run in the
  /// same process (the bases of the derived ratios).
  virtual void traced_round(Tally& tally, const RoundTimes& untraced,
                            LayerMetrics& out) = 0;
};

/// Build (set up) workload `name` from `seed`, sweeping at `jobs`.  Returns
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned jobs);

const std::vector<std::string>& workload_names();

/// Harness self-test: a perturbed race-key set and a throwing check must
/// both count as failed, and TimingTool must keep race keys identical
/// across a checkpoint fork.  Returns the number of failed self-checks.
int self_test(std::uint64_t seed);

}  // namespace perfbench

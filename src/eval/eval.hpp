// Evaluation harness: runs the proposed router and the baselines on the
// benchmark suite and formats the paper's tables and figures.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "netlist/benchmark.hpp"
#include "route/router.hpp"

namespace sadp {

class RunContext;

/// One row of Table III / Table IV: a benchmark measured under one router.
struct ExperimentRow {
  std::string circuit;
  std::string router;
  int nets = 0;
  double routability = 0.0;     ///< percent
  std::int64_t overlayUnits = 0;  ///< scenario-model side-overlay units
  std::int64_t overlayNm = 0;     ///< physical side-overlay length
  int conflicts = 0;
  int hardOverlays = 0;
  double cpuSeconds = 0.0;
  bool na = false;  ///< timed out (reported as NA, like the paper)
  std::int64_t worstSlack = 0;        ///< post-route worst slack (timing on)
  std::int64_t negotiateOverflow = 0; ///< final negotiation overflow count
};

/// Runs the proposed overlay-aware router on an instance. Metrics and
/// spans go through `ctx` (the calling thread's bound context when null).
/// Every row field except cpuSeconds is deterministic for a given spec,
/// independent of concurrent runs.
ExperimentRow runProposed(const BenchmarkSpec& spec,
                          RunContext* ctx = nullptr);

/// As above with explicit router options (e.g. timing-driven or negotiated
/// modes); the row's router label gets `label`.
ExperimentRow runProposed(const BenchmarkSpec& spec,
                          const RouterOptions& opts, const std::string& label,
                          RunContext* ctx = nullptr);

/// Runs one baseline on an instance (same context contract as above).
ExperimentRow runBaselineRow(BaselineKind kind, const BenchmarkSpec& spec,
                             double timeoutSeconds = 1e18,
                             RunContext* ctx = nullptr);

/// Renders rows as an aligned text table, grouped by circuit. A final
/// normalized-comparison line (geometric means relative to `reference`)
/// mirrors the paper's "Comp." row.
void printComparisonTable(std::ostream& os,
                          const std::vector<ExperimentRow>& rows,
                          const std::string& reference);

/// Least-squares slope of log(t) vs log(n): the empirical runtime exponent
/// of Fig. 20 (the paper reports ~1.42). Returns nullopt with < 2 points.
std::optional<double> runtimeExponent(const std::vector<ExperimentRow>& rows);

/// Writes rows as CSV (for external plotting).
void writeCsv(std::ostream& os, const std::vector<ExperimentRow>& rows);

}  // namespace sadp

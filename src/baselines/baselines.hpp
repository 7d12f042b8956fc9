// Reconstructions of the three published comparison points (paper §IV).
//
// The original binaries were never released; the paper itself re-implemented
// [10] and [16] for its experiments, and we do the same from the published
// algorithm descriptions (DESIGN.md §5.10 records the reconstruction):
//
//  [11] Gao & Pan, "Flexible self-aligned double patterning aware detailed
//       routing with prescribed layout planning" (trim process): routing and
//       decomposition run simultaneously; colors are fixed greedily when a
//       net is routed; NO assistant core patterns are considered, so every
//       second-pattern side without a neighboring spacer is exposed.
//
//  [16] Kodama et al., "Self-aligned double and quadruple patterning aware
//       grid routing methods" (cut process): cut-process router that fixes
//       colors at route time, does not use the merge technique for odd
//       cycles, and merges assistant cores with core patterns without
//       overlay control.
//
//  [10] Du et al., "Spacer-is-dielectric-compliant detailed routing" (trim
//       process, multiple pin candidate locations): graph-model router that
//       enumerates every source x target candidate pair, evaluates each
//       complete route on the decomposition graph, and re-validates the
//       full layout after every net -- quality-seeking but super-linearly
//       slow (the paper measured > 1e5 seconds on Test9/10 and reports NA).
#pragma once

#include <string>

#include "route/router.hpp"

namespace sadp {

enum class BaselineKind {
  GaoPanTrim11,
  KodamaCut16,
  DuGraphModel10,
};

const char* toString(BaselineKind k);

/// Result of one baseline run, measured with the same sign-off pipeline as
/// the proposed router so comparisons are apples-to-apples.
struct BaselineResult {
  RoutingStats stats;
  std::int64_t overlayUnits = 0;  ///< scenario-model side-overlay units
  OverlayReport physical;         ///< bitmap ground truth
  int conflicts = 0;              ///< cut conflicts ([16]) / trim conflicts
  double seconds = 0.0;
  bool timedOut = false;          ///< exceeded the time budget (report NA)
};

/// Runs a baseline on the given problem. `timeoutSeconds` bounds the run
/// (chiefly for [10], whose runtime grows quadratically). Metrics and
/// spans go through `ctx` (the calling thread's bound context when null).
BaselineResult runBaseline(BaselineKind kind, RoutingGrid& grid,
                           const Netlist& netlist,
                           double timeoutSeconds = 1e18,
                           RunContext* ctx = nullptr);

}  // namespace sadp

// Output oracle for a cold route, owned by the benchmark. It judges the
// router's result against the generated instance and against a reference
// decomposition, never against the router's own bookkeeping alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "route/router.hpp"

namespace perfbench {

/// Checks every routed net's path. Each must be a chain of unit steps or
/// vias from a source candidate to a target candidate (the generator makes
/// two-pin nets only, so a net with taps is reported); no node may be owned
/// by two nets; no node may be blocked in `pristine`, an untouched copy of
/// the instance grid. Returns "" when all hold, else the first violation.
std::string checkPaths(const sadp::Netlist& nl,
                       const sadp::RoutingGrid& pristine,
                       const std::vector<sadp::NetRouteState>& states);

/// Recomputes every layer with a cache-less, single-threaded, whole-window
/// decomposeLayer(coloredFragments(l)). `report` (from physicalReport) must
/// equal the sum of the reference reports and `layerMaskFp` (fingerprints
/// of the signed-off masks) the reference fingerprints.
std::string checkSignoff(const sadp::OverlayAwareRouter& router,
                         const sadp::OverlayReport& report,
                         const std::vector<std::uint64_t>& layerMaskFp);

/// Corrupts copies of a passing route's paths (a broken chain, a node
/// shared with another net, a node on a blockage) and confirms checkPaths
/// rejects each. Returns "" when every corruption is caught.
std::string selfTest(const sadp::Netlist& nl,
                     const sadp::RoutingGrid& pristine,
                     const std::vector<sadp::NetRouteState>& states);

}  // namespace perfbench

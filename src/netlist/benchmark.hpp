// Synthetic benchmark generator mirroring the paper's Test1..Test10
// circuits (Tables III/IV): same net counts, die sizes (at 40 nm pitch),
// three routing layers; Test6..Test10 add multiple pin candidate locations.
//
// The paper's benchmarks are proprietary scaled-down industrial designs;
// this generator is the documented substitution (DESIGN.md §7): it matches
// the published net-count / die-area statistics and is fully seeded so every
// experiment is reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace sadp {

/// Parameters of one synthetic circuit.
struct BenchmarkSpec {
  std::string name;
  int netCount = 0;
  Track width = 0;       ///< tracks
  Track height = 0;      ///< tracks
  int layers = 3;
  int pinCandidates = 1; ///< 1 = fixed pins; >1 = multi-candidate benchmarks
  double blockageFraction = 0.02;  ///< fraction of layer-0 area blocked
  std::uint64_t seed = 1;

  /// Scales net count and die edge by sqrt(f)/f to shrink runtime while
  /// keeping net density identical. f in (0, 1].
  BenchmarkSpec scaled(double f) const;
};

/// The ten published circuits. Index 0..4 = Test1..Test5 (fixed pins,
/// Table III); 5..9 = Test6..Test10 (multi-candidate pins, Table IV).
std::vector<BenchmarkSpec> paperBenchmarks();

/// Looks up a paper benchmark by name ("Test1".."Test10").
BenchmarkSpec paperBenchmark(const std::string& name);

/// Largest design a CLI or service request may describe, in grid nodes
/// (width * height * layers). The largest paper circuit is 900^2 x 3, about
/// 2.4M nodes; the router keeps several words per node, so an unbounded
/// request would exhaust memory instead of failing.
constexpr std::int64_t kMaxGridNodes = std::int64_t(1) << 24;

/// Empty when a width x height x layers grid carrying `nets` generated nets
/// is admissible, otherwise a message naming the violated limit: positive
/// dimensions, at most kMaxGridNodes nodes, and at most width*height/2 nets
/// (each net takes two distinct pin nodes). Pass nets = 0 when the netlist
/// is not generated.
std::string designSizeError(std::int64_t width, std::int64_t height,
                            std::int64_t layers, std::int64_t nets);

/// A generated routing problem: the grid (with blockages painted) plus the
/// netlist. The grid does NOT yet have pins occupied; the router owns that.
struct BenchmarkInstance {
  BenchmarkSpec spec;
  RoutingGrid grid;
  Netlist netlist;
};

/// Deterministically generates an instance from a spec. Pins are placed on
/// distinct nodes of layer 0, biased to local nets (mean Manhattan length
/// a few tens of tracks) like standard-cell detailed routing.
BenchmarkInstance makeBenchmark(const BenchmarkSpec& spec);

}  // namespace sadp

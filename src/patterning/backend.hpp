// Pluggable k-patterning backends (DESIGN.md §5.13).
//
// A PatterningBackend bundles the three things that distinguish one
// patterning process from another:
//   1. a PatterningSpec -- how many colors exist and what each scenario
//      classification costs under a color assignment (the OCG consumes it);
//   2. a recoloring pass -- the backend-owned replacement for the paper's
//      §III-C color flipping (the SADP backend IS that flipping DP; the
//      TPL backend runs exhaustive/greedy+local-search 3-coloring);
//   3. mask synthesis -- via the PatterningSynthesizer base the
//      decomposition layer dispatches on (sadp/decompose.hpp), emitting k
//      exposure planes for k>2 processes.
//
// The router, CLI, and service select a backend by name ("sadp2", "tpl3");
// a null backend everywhere means sadp2 and leaves every code path -- and
// every output byte -- identical to the pre-backend pipeline.
#pragma once

#include <string_view>

#include "ocg/graph.hpp"
#include "ocg/overlay_model.hpp"
#include "ocg/patterning_spec.hpp"
#include "patterning/flipping.hpp"
#include "sadp/decompose.hpp"

namespace sadp {

class PatterningBackend : public PatterningSynthesizer {
 public:
  const char* name() const { return spec().name; }
  int colorCount() const { return spec().colorCount; }

  /// Cost interpretation handed to the constraint graphs.
  virtual const PatterningSpec& spec() const = 0;

  /// Spec pointer as OverlayModel/OverlayConstraintGraph constructors want
  /// it: null for the 2-color SADP backend (the graphs' built-in tables --
  /// the k=2 fast path), the spec itself otherwise.
  const PatterningSpec* graphSpec() const {
    return colorCount() == 2 ? nullptr : &spec();
  }

  /// Backend-owned recoloring of one layer graph: re-optimizes class
  /// colors, applies them, and reports cost movement. Must be monotone
  /// (never increase the graph's true cost) and deterministic.
  virtual FlipStats recolor(OverlayConstraintGraph& g) const = 0;

  /// Recolors every layer of a model; returns summed stats.
  FlipStats recolorAll(OverlayModel& model) const;
};

/// The 2-color SADP cut-process backend: OCG built-in tables, the paper's
/// flipping DP, the decomposeLayer mask pipeline. Byte-identical to the
/// pre-backend stack by construction.
const PatterningBackend& sadp2Backend();

/// The 3-color triple-patterning backend: equality-only hard classes (odd
/// must-differ cycles become colorable), exhaustive/greedy 3-coloring, one
/// metal exposure plane per color.
const PatterningBackend& tpl3Backend();

/// Backend registry lookup by CLI/service name; null if unknown.
const PatterningBackend* findPatterningBackend(std::string_view name);

/// Comma-separated registered names, for usage strings and error messages.
const char* knownBackendNames();

}  // namespace sadp

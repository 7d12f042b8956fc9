// Backend-supplied interpretation of scenario classifications (DESIGN.md
// §5.13).
//
// classify() names geometry, not masks: a tuple like "side-to-side @1
// track" (T1a) exists regardless of how many exposures print the layer.
// What that tuple *costs* under a color assignment is a property of the
// patterning process. For the 2-mask SADP-cut process the Classification
// carries the paper's packed Table-II arrays and no spec is needed; a
// k-patterning backend supplies this table-of-functions to reinterpret the
// same scenario types over k colors.
#pragma once

#include <cstdint>

#include "ocg/scenario.hpp"

namespace sadp {

/// How a patterning backend scores scenario classifications over k colors.
/// A null spec (or colorCount == 2) means the classic SADP interpretation:
/// the Classification's own overlay/cutRisk arrays, indexed by
/// assignmentIndex. All function pointers must be pure (the OCG calls them
/// from cost loops and caches nothing).
struct PatterningSpec {
  /// Number of assignable colors (mask planes), k >= 2.
  int colorCount = 2;
  const char* name = "sadp2";

  // k >= 3 hooks. Unused (and may be null) when colorCount == 2.

  /// Side-overlay units of a dependent pair under dense color indices
  /// (colorIndex) ia, ib; kHardCost marks a forbidden assignment.
  std::int64_t (*pairOverlay)(const Classification&, int ia, int ib) = nullptr;
  /// Whether the assignment additionally risks a Type-A cut conflict.
  bool (*pairCutRisk)(const Classification&, int ia, int ib) = nullptr;
  /// Whether the classification constrains coloring at all under this
  /// backend (the k-color analogue of Classification::material()).
  bool (*material)(const Classification&) = nullptr;
  /// Hard relation: -1 none, 0 must-be-same, 1 must-differ. Must agree
  /// with pairOverlay's kHardCost entries. Note that for k >= 3
  /// "must-differ" is not a single parity relation, so the OCG tracks such
  /// edges outside its ParityDsu (equality classes only).
  int (*hardRelation)(const Classification&) = nullptr;
};

}  // namespace sadp

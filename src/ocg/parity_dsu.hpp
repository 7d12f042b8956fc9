// Union-find with parity: the constant-time LELE odd-cycle detection the
// paper builds on (DESIGN.md §5.4).
//
// Each element carries the parity of its path to its representative;
// unite(u, v, rel) enforces color(u) ^ color(v) == rel. A contradiction (a
// cycle of hard edges whose parities sum to one, an odd cycle) makes unite
// return false. k >= 3 backends use rel 0 only (equality classes) and
// track must-differ edges on the side (ocg/graph.cpp): "different color" is
// not a single relation there.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace sadp {

class ParityDsu {
 public:
  /// Ensures element `v` exists.
  void ensure(std::size_t v) {
    if (v >= link_.size()) grow(v);
  }

  /// Representative of v plus the parity of v relative to it.
  std::pair<std::size_t, std::uint8_t> find(std::size_t v) {
    ensure(v);
    return findRaw(v);
  }

  /// Merges the classes of u and v enforcing color(u) ^ color(v) == rel.
  /// Returns false (leaving the classes merged-consistent only if they
  /// already were) when the relation contradicts existing ones.
  bool unite(std::size_t u, std::size_t v, std::uint8_t rel) {
    ensure(u > v ? u : v);  // one bounds check instead of one per find
    // The two root chases are findRaw's loop written out inline: unite is
    // the hot path of hard-edge insertion, where a call plus a pair return
    // per find is measurable.
    std::uint32_t* const links = link_.data();
    std::uint32_t ru = std::uint32_t(u), du = 0;
    for (;;) {
      const std::uint32_t l = links[ru];
      const std::uint32_t p = l >> 1;
      if (p == ru) break;
      const std::uint32_t lp = links[p];
      links[ru] = (lp & ~1u) | ((l ^ lp) & 1u);
      du ^= l & 1u;
      ru = p;
    }
    std::uint32_t rv = std::uint32_t(v), dv = 0;
    for (;;) {
      const std::uint32_t l = links[rv];
      const std::uint32_t p = l >> 1;
      if (p == rv) break;
      const std::uint32_t lp = links[p];
      links[rv] = (lp & ~1u) | ((l ^ lp) & 1u);
      dv ^= l & 1u;
      rv = p;
    }
    if (ru == rv) return ((du ^ dv) & 1u) == rel;
    const std::uint32_t parity = (du ^ dv ^ rel) & 1u;
    std::uint8_t* const ranks = rank_.data();
    if (ranks[ru] < ranks[rv]) {
      links[ru] = (rv << 1) | parity;  // attach ru under rv
    } else {
      links[rv] = (ru << 1) | parity;  // attach rv under ru
      if (ranks[ru] == ranks[rv]) ++ranks[ru];
    }
    return true;
  }

  /// True if u and v are already constrained to a relative parity != rel.
  bool contradicts(std::size_t u, std::size_t v, std::uint8_t rel) {
    auto [ru, du] = find(u);
    auto [rv, dv] = find(v);
    return ru == rv && ((du ^ dv) & 1u) != rel;
  }

  /// Makes an existing element a singleton again (self-parent, parity 0,
  /// rank 0). Only sound when every element of v's class is reset in the
  /// same step: no other element may still link to v.
  void reset(std::size_t v) {
    link_[v] = std::uint32_t(v) << 1;
    rank_[v] = 0;
  }

  std::size_t size() const { return link_.size(); }

 private:
  void grow(std::size_t v) {
    const std::size_t old = link_.size();
    link_.resize(v + 1);
    rank_.resize(v + 1, 0);
    for (std::size_t i = old; i <= v; ++i) {
      link_[i] = std::uint32_t(i) << 1;  // self-parent, parity 0
    }
  }

  /// find() without the existence check -- callers must have ensure()d v.
  std::pair<std::size_t, std::uint8_t> findRaw(std::size_t v) {
    // Single-pass path halving over a raw pointer, folding the parity of
    // the skipped hop into the rewritten link. Parities accumulated along
    // the walk are unaffected by the rewrites (they only touch nodes
    // already passed), so the returned (root, parity) pair matches the
    // full-compression reference exactly.
    std::uint32_t* const links = link_.data();
    std::uint32_t x = std::uint32_t(v);
    std::uint32_t d = 0;
    for (;;) {
      const std::uint32_t l = links[x];
      const std::uint32_t p = l >> 1;
      if (p == x) break;
      const std::uint32_t lp = links[p];
      links[x] = (lp & ~1u) | ((l ^ lp) & 1u);
      d ^= l & 1u;
      x = p;
    }
    return {x, std::uint8_t(d)};
  }

  /// Packed parent pointers: link_[v] = parent(v) << 1 | parity. One
  /// 32-bit word per element keeps find's pointer chase in a single cache
  /// stream.
  std::vector<std::uint32_t> link_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace sadp

#include "sadp/decompose.hpp"

#include "sadp/mask_cache.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

OverlayReport& OverlayReport::operator+=(const OverlayReport& o) {
  sideOverlayNm += o.sideOverlayNm;
  sideOverlaySections += o.sideOverlaySections;
  hardOverlays += o.hardOverlays;
  tipOverlays += o.tipOverlays;
  cutWidthConflicts += o.cutWidthConflicts;
  cutSpaceConflicts += o.cutSpaceConflicts;
  spacerOverTargetPx += o.spacerOverTargetPx;
  return *this;
}

Rect fragmentMetalNm(const Fragment& f, const DesignRules& rules) {
  const Nm p = rules.pitch();
  const Nm s = (p - rules.wLine) / 2;
  return Rect{Nm(f.xlo * p + s), Nm(f.ylo * p + s), Nm(f.xhi * p - s),
              Nm(f.yhi * p - s)};
}

namespace {

constexpr int kPxNm = 10;  ///< raster resolution

struct Raster {
  Rect windowNm;
  int w = 0, h = 0;
  int toX(Nm nm) const { return int((nm - windowNm.xlo) / kPxNm); }
  int toY(Nm nm) const { return int((nm - windowNm.ylo) / kPxNm); }
  void fill(Bitmap& b, const Rect& r) const {
    b.fillRect(toX(r.xlo), toY(r.ylo), toX(r.xhi), toY(r.yhi));
  }
};

/// One shape destined for the core mask: real (core-colored) metal or a
/// sacrificial assistant-core strip.
struct CoreShape {
  Rect nm;
  bool assist = false;
};

}  // namespace

std::vector<Rect> rasterToNmRects(const Bitmap& b, const Rect& windowNm) {
  // Collect row runs and merge vertically identical stacks. A row's runs
  // and the open stacks are both disjoint and sorted by x, so one
  // two-pointer pass per row matches each run to the stack with the same
  // span and closes the stacks it passes unmatched, in x order.
  struct Stack {
    int x0, x1, y0;
  };
  std::vector<Rect> out;
  auto close = [&](const Stack& s, int y1) {
    out.push_back(Rect{Nm(windowNm.xlo + s.x0 * kPxNm),
                       Nm(windowNm.ylo + s.y0 * kPxNm),
                       Nm(windowNm.xlo + s.x1 * kPxNm),
                       Nm(windowNm.ylo + y1 * kPxNm)});
  };
  std::vector<Stack> open, next;
  std::vector<std::pair<int, int>> runs;
  for (int y = 0; y <= b.height(); ++y) {
    runs.clear();
    if (y < b.height()) rowRuns(b, y, runs);
    next.clear();
    std::size_t i = 0;
    for (const auto& [x0, x1] : runs) {
      while (i < open.size() && open[i].x0 < x0) close(open[i++], y);
      if (i < open.size() && open[i].x0 == x0 && open[i].x1 == x1) {
        next.push_back(open[i++]);
      } else {
        next.push_back({x0, x1, y});
      }
    }
    while (i < open.size()) close(open[i++], y);
    std::swap(open, next);
  }
  return out;
}

namespace {

/// Axis-gap box between two rects (their "merge bridge" region).
Rect bridgeBox(const Rect& a, const Rect& b) {
  const Nm bx0 = (a.xhi <= b.xlo)   ? a.xhi
                 : (b.xhi <= a.xlo) ? b.xhi
                                    : std::max(a.xlo, b.xlo);
  const Nm bx1 = (a.xhi <= b.xlo)   ? b.xlo
                 : (b.xhi <= a.xlo) ? a.xlo
                                    : std::min(a.xhi, b.xhi);
  const Nm by0 = (a.yhi <= b.ylo)   ? a.yhi
                 : (b.yhi <= a.ylo) ? b.yhi
                                    : std::max(a.ylo, b.ylo);
  const Nm by1 = (a.yhi <= b.ylo)   ? b.ylo
                 : (b.yhi <= a.ylo) ? a.ylo
                                    : std::min(a.yhi, b.yhi);
  return Rect{bx0, by0, bx1, by1};
}

}  // namespace

namespace {

/// Sample count of a probe span: samples sit at lo, lo + kPxNm, ... < hi.
int probeSamples(Nm lo, Nm hi) {
  return hi > lo ? int((std::int64_t(hi) - lo + kPxNm - 1) / kPxNm) : 0;
}

/// Index range [lo, hi) of the samples of a probe span starting at `p0`
/// whose centers p0 + 10k + 5 lie in [vlo, vhi), clamped to [0, n).
std::pair<int, int> samplesCenteredIn(Nm p0, Nm vlo, Nm vhi, int n) {
  // Smallest k with p0 + kPxNm * k + kPxNm / 2 >= v: a ceiling division
  // that rounds toward +infinity for negative numerators too.
  auto first = [p0](Nm v) {
    const std::int64_t num = std::int64_t(v) - p0 - kPxNm / 2;
    return num >= 0 ? (num + kPxNm - 1) / kPxNm : -((-num) / kPxNm);
  };
  auto clampN = [n](std::int64_t k) {
    return int(std::clamp<std::int64_t>(k, 0, n));
  };
  return {clampN(first(vlo)), clampN(first(vhi))};
}

}  // namespace

bool thirdPartyMetalInProbe(const Bitmap& target, const Rect& windowNm,
                            const Rect& probeNm, const Rect& a,
                            const Rect& b) {
  const int nx = probeSamples(probeNm.xlo, probeNm.xhi);
  const int ny = probeSamples(probeNm.ylo, probeNm.yhi);
  if (nx == 0 || ny == 0) return false;
  const auto ax = samplesCenteredIn(probeNm.xlo, a.xlo, a.xhi, nx);
  const auto ay = samplesCenteredIn(probeNm.ylo, a.ylo, a.yhi, ny);
  const auto bx = samplesCenteredIn(probeNm.xlo, b.xlo, b.xhi, nx);
  const auto by = samplesCenteredIn(probeNm.ylo, b.ylo, b.yhi, ny);
  // The pixel a sample reads. Division truncates toward zero, so the two
  // samples around the window's low edge can read the same pixel; the
  // pixels of consecutive samples still form one contiguous span.
  auto pixelX = [&](int k) {
    return int((probeNm.xlo + k * kPxNm - windowNm.xlo) / kPxNm);
  };
  auto pixelY = [&](int j) {
    return int((probeNm.ylo + j * kPxNm - windowNm.ylo) / kPxNm);
  };
  // Bands of sample rows inside or outside each shape's rows; within a
  // band every row excludes the same sample columns.
  std::array<int, 6> cuts{0, ay.first, ay.second, by.first, by.second, ny};
  std::sort(cuts.begin(), cuts.end());
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const int j0 = cuts[c], j1 = cuts[c + 1];
    if (j0 >= j1) continue;
    std::array<std::pair<int, int>, 2> excluded;
    std::size_t n = 0;
    if (ay.first <= j0 && j1 <= ay.second) excluded[n++] = ax;
    if (by.first <= j0 && j1 <= by.second) excluded[n++] = bx;
    std::sort(excluded.begin(), excluded.begin() + std::ptrdiff_t(n));
    auto hits = [&](int k0, int k1) {
      return k0 < k1 && target.anyInRect(pixelX(k0), pixelY(j0),
                                         pixelX(k1 - 1) + 1,
                                         pixelY(j1 - 1) + 1);
    };
    int k = 0;
    for (std::size_t e = 0; e < n; ++e) {
      if (hits(k, excluded[e].first)) return true;
      k = std::max(k, excluded[e].second);
    }
    if (hits(k, nx)) return true;
  }
  return false;
}

static LayerDecomposition decomposeLayerUncached(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts) {
  RunContext& ctx = opts.ctx ? *opts.ctx : RunContext::current();
  RunContext::Scope bindCtx(ctx);
  SADP_SPAN_ARG("decompose", std::int64_t(frags.size()));
  MetricsRegistry& m = ctx.metrics();
  m.counter("decompose.calls").add(1);
  Histogram& windowWords = m.histogram("decompose.window_words");
  LayerDecomposition out;
  // Window: bounding box of all metal plus margin, aligned to pixels.
  Rect bbox;
  for (const ColoredFragment& cf : frags) {
    bbox = bbox.unionWith(fragmentMetalNm(cf.frag, rules));
  }
  if (bbox.empty()) bbox = Rect{0, 0, kPxNm, kPxNm};
  const Nm margin = std::max<Nm>(opts.margin, rules.pitch());
  bbox = bbox.inflated(margin);
  bbox.xlo -= bbox.xlo % kPxNm;
  bbox.ylo -= bbox.ylo % kPxNm;

  Raster rr;
  rr.windowNm = bbox;
  rr.w = int((bbox.xhi - bbox.xlo + kPxNm - 1) / kPxNm);
  rr.h = int((bbox.yhi - bbox.ylo + kPxNm - 1) / kPxNm);
  out.windowNm = bbox;

  const int spacerPx = rules.wSpacer / kPxNm;
  const int wCutPx = rules.wCut / kPxNm;
  const int dCutPx = rules.dCut / kPxNm;

  // Raster words per layer: a deterministic measure of the work below.
  windowWords.add(std::int64_t(Bitmap::wordsPerRow(rr.w)) * rr.h);

  // ---- Step 1: target metal and real core shapes ---------------------------
  Bitmap target(rr.w, rr.h), coreRaw(rr.w, rr.h);
  std::vector<CoreShape> shapes;
  {
    SADP_SPAN("decompose.paint");
    for (const ColoredFragment& cf : frags) {
      const Rect m = fragmentMetalNm(cf.frag, rules);
      rr.fill(target, m);
      if (cf.color != Color::Second) {
        rr.fill(coreRaw, m);
        shapes.push_back({m, /*assist=*/false});
      }
    }
  }

  // ---- Step 2: assistant core strips ---------------------------------------
  // Every second pattern gets a w_core-wide strip at w_spacer distance along
  // each side. Stub (square) fragments are fully ringed with four strips so
  // their boundaries are spacer-defined too.
  Bitmap assists(rr.w, rr.h);
  if (opts.insertAssists) {
    SADP_SPAN("decompose.assists");
    for (const ColoredFragment& cf : frags) {
      if (cf.color != Color::Second) continue;
      const Fragment& f = cf.frag;
      const Rect m = fragmentMetalNm(f, rules);
      const Nm off = rules.wSpacer;
      const Nm ow = rules.wCore;
      const bool stub = f.width() == f.height();
      std::vector<Rect> strips;
      // Stubs are ringed on all four sides; the ring's corner strips merge
      // (total-loss rule below), which nibbles the stub corners slightly --
      // the corner-rounding reality of a conformal spacer.
      if (stub || f.orient() == Orient::Horizontal) {
        strips.push_back({m.xlo, m.yhi + off, m.xhi, m.yhi + off + ow});
        strips.push_back({m.xlo, m.ylo - off - ow, m.xhi, m.ylo - off});
      }
      if (stub || f.orient() == Orient::Vertical) {
        strips.push_back({m.xhi + off, m.ylo, m.xhi + off + ow, m.yhi});
        strips.push_back({m.xlo - off - ow, m.ylo, m.xlo - off, m.yhi});
      }
      for (const Rect& s : strips) rr.fill(assists, s);
    }
    // Core material must keep >= w_spacer clearance from every metal shape
    // (its own wire sits at exactly w_spacer, so only foreign metal clips);
    // otherwise the assist's spacer would eat the neighboring pattern.
    assists.andNot(target.dilated(spacerPx));
    for (const Rect& s : rasterToNmRects(assists, rr.windowNm)) {
      shapes.push_back({s, /*assist=*/true});
    }
  }

  // ---- Step 3: merge technique / assist trimming ---------------------------
  // Core-mask shapes closer than d_core cannot print separately. Two real
  // metal shapes (or metal + assist) are merged by filling the gap between
  // them (Fig. 2); the separating cut then re-opens the bridge, which is
  // what produces the scenario overlays. When a merge involving a
  // sacrificial assist would push spacer material onto third-party metal,
  // the assist is trimmed back instead (locally sacrificing protection --
  // the resulting exposure is measured as overlay).
  Bitmap bridges(rr.w, rr.h);
  Bitmap trims(rr.w, rr.h);
  if (opts.mergeCores) {
    SADP_SPAN("decompose.merge");
    const std::int64_t dCoreSq = std::int64_t(rules.dCore) * rules.dCore;
    // Candidate pairs come from a sweep along the axis the shapes extend
    // less in (x on a vertical layer, y on a horizontal one): a shape can
    // only come within d_core of a later-sorted one whose low edge lies
    // below its own d_core-inflated high edge. Each pair is handled with
    // the lower index as `a`, and every plane it writes is a union, so
    // neither the axis nor the sweep order can change a pixel.
    std::int64_t extentX = 0, extentY = 0;
    for (const CoreShape& c : shapes) {
      extentX += c.nm.width();
      extentY += c.nm.height();
    }
    const bool alongY = extentY < extentX;
    struct SweepEntry {
      Nm lo, hi;
      std::uint32_t index;
    };
    std::vector<SweepEntry> sweep;
    sweep.reserve(shapes.size());
    for (std::uint32_t i = 0; i < shapes.size(); ++i) {
      const Rect& r = shapes[i].nm;
      sweep.push_back(alongY ? SweepEntry{r.ylo, r.yhi, i}
                             : SweepEntry{r.xlo, r.xhi, i});
    }
    std::sort(sweep.begin(), sweep.end(),
              [](const SweepEntry& p, const SweepEntry& q) {
                return p.lo != q.lo ? p.lo < q.lo : p.index < q.index;
              });
    for (std::size_t s = 0; s < sweep.size(); ++s) {
      const Nm reach = sweep[s].hi + rules.dCore;
      for (std::size_t t = s + 1; t < sweep.size() && sweep[t].lo < reach;
           ++t) {
        const auto [i, j] = std::minmax(sweep[s].index, sweep[t].index);
        const CoreShape& a = shapes[i];
        const CoreShape& b = shapes[j];
        if (!a.nm.inflated(rules.dCore).overlaps(b.nm)) continue;
        const std::int64_t d2 = distSq(a.nm, b.nm);
        if (d2 == 0 || d2 >= dCoreSq) continue;
        const Rect box = bridgeBox(a.nm, b.nm);
        // Merging is harmful only when the merged blob's spacer would land
        // on THIRD-party metal; the pair's own shapes are exempt (the cut
        // re-opening the bridge against them is the normal merge overlay).
        const bool harmless =
            !thirdPartyMetalInProbe(target, rr.windowNm,
                                    box.inflated(rules.wSpacer), a.nm, b.nm);
        // Trim reach is rounded up to 2*w_spacer so the remaining assist
        // end keeps the layout on the w_spacer lattice (a d_core trim would
        // leave sub-w_cut cut slivers between the spacers).
        const Nm trimReach = std::max<Nm>(rules.dCore, 2 * rules.wSpacer);
        const Rect trimA =
            a.assist ? b.nm.inflated(trimReach).intersect(a.nm) : Rect{};
        const Rect trimB =
            b.assist ? a.nm.inflated(trimReach).intersect(b.nm) : Rect{};
        // A trim that would erase an assist completely (typical for the
        // tiny strips of a stub ring) loses more protection than the merge
        // damages: prefer the merge and accept the corner nibble.
        const bool totalLoss =
            (a.assist && trimA == a.nm) || (b.assist && trimB == b.nm);
        if ((!a.assist && !b.assist) || harmless || totalLoss ||
            !opts.trimAssists) {
          rr.fill(bridges, box);
        } else {
          if (a.assist) rr.fill(trims, trimA);
          if (b.assist) rr.fill(trims, trimB);
        }
      }
    }
    bridges.andNot(target);  // a bridge never overrides foreign metal
  }

  assists.andNot(trims);
  Bitmap coreMask = coreRaw | assists | bridges;

  // ---- Step 4: spacer ring --------------------------------------------------
  // ---- Step 5: cut mask (spacer-is-dielectric complement) -------------------
  Bitmap spacer, eaten, cut(rr.w, rr.h);
  {
    SADP_SPAN("decompose.spacer");
    spacer = coreMask.dilated(spacerPx);
    spacer.andNot(coreMask);
    eaten = spacer;  // spacer intruding into metal: CD damage
    eaten &= target;
    spacer.andNot(target);
    cut.fillRect(0, 0, rr.w, rr.h);
    cut.andNot(spacer);
    cut.andNot(target);
    out.report.spacerOverTargetPx = std::int64_t(eaten.count());
  }

  // ---- Step 6: overlay metering ---------------------------------------------
  // A boundary pixel is unprotected when the outside pixel is cut-defined
  // or when the spacer intruded into the metal there (eaten edge).
  auto unprotectedAt = [&](int ix, int iy, int ox, int oy) {
    return cut.get(ox, oy) || eaten.get(ix, iy);
  };

  {
    SADP_SPAN("decompose.meter");
    for (const ColoredFragment& cf : frags) {
      const Fragment& f = cf.frag;
      const Rect m = fragmentMetalNm(f, rules);
      const int xlo = rr.toX(m.xlo), xhi = rr.toX(m.xhi);
      const int ylo = rr.toY(m.ylo), yhi = rr.toY(m.yhi);
      const bool stub = f.width() == f.height();
      const bool horiz = f.orient() == Orient::Horizontal;

      // Walks one boundary line; `sidewall` = true for the two long sides.
      auto walk = [&](bool sidewall, int outFixed, int inFixed, int lo, int hi,
                      bool vertEdge) {
        int run = 0;
        int runEnd = lo;
        bool tipHit = false;
        auto flush = [&]() {
          if (run == 0) return;
          if (sidewall) {
            ++out.report.sideOverlaySections;
            out.report.sideOverlayNm += std::int64_t(run) * kPxNm;
            if (run * kPxNm > rules.wLine) {
              ++out.report.hardOverlays;
              const int t0 = runEnd - run, t1 = runEnd;
              const Rect boxPx = vertEdge
                                     ? Rect{inFixed, t0, inFixed + 1, t1}
                                     : Rect{t0, inFixed, t1, inFixed + 1};
              out.hardOverlayBoxesNm.push_back(
                  Rect{Nm(rr.windowNm.xlo + boxPx.xlo * kPxNm),
                       Nm(rr.windowNm.ylo + boxPx.ylo * kPxNm),
                       Nm(rr.windowNm.xlo + boxPx.xhi * kPxNm),
                       Nm(rr.windowNm.ylo + boxPx.yhi * kPxNm)});
            }
          } else {
            tipHit = true;
          }
          run = 0;
        };
        for (int t = lo; t < hi; ++t) {
          const int ox = vertEdge ? outFixed : t;
          const int oy = vertEdge ? t : outFixed;
          const int ix = vertEdge ? inFixed : t;
          const int iy = vertEdge ? t : inFixed;
          if (target.get(ox, oy)) {  // interior edge (same-net abutment)
            flush();
            continue;
          }
          if (unprotectedAt(ix, iy, ox, oy)) {
            ++run;
            runEnd = t + 1;
          } else {
            flush();
          }
        }
        flush();
        if (!sidewall && tipHit) ++out.report.tipOverlays;
      };

      const bool topBottomAreSides = horiz && !stub;
      const bool leftRightAreSides = !horiz && !stub;
      walk(topBottomAreSides, yhi, yhi - 1, xlo, xhi, false);   // top
      walk(topBottomAreSides, ylo - 1, ylo, xlo, xhi, false);   // bottom
      walk(leftRightAreSides, xhi, xhi - 1, ylo, yhi, true);    // right
      walk(leftRightAreSides, xlo - 1, xlo, ylo, yhi, true);    // left
    }
  }

  // ---- Step 7: cut-mask MRC over target (Fig. 5 / §III-D) -------------------
  SADP_SPAN("decompose.mrc");
  // Width: a pixel is narrow when no w_cut x w_cut square of cut material
  // covers it (anchored opening); it is flagged when it defines a target
  // edge, i.e. lies within Chebyshev distance 1 of target metal -- a
  // word-wise AND against the dilated target.
  // Spacing: axis-aligned cut-gap-cut patterns with gap < d_cut where the
  // gap crosses target metal (two cut patterns defining opposite sides of
  // a feature, Fig. 15(b)).
  Bitmap flaggedWidth = cut;
  flaggedWidth.andNot(cut.openedAnchored(wCutPx));
  flaggedWidth &= target.dilated(1);
  const Bitmap flaggedSpace = narrowGapFlags(cut, target, dCutPx);
  const auto addConflictBoxes = [&](const Bitmap& flags) {
    const std::vector<Rect> boxes = componentBoxes(flags);
    for (const Rect& b : boxes) {
      out.conflictBoxesNm.push_back(
          Rect{Nm(rr.windowNm.xlo + b.xlo * kPxNm),
               Nm(rr.windowNm.ylo + b.ylo * kPxNm),
               Nm(rr.windowNm.xlo + b.xhi * kPxNm),
               Nm(rr.windowNm.ylo + b.yhi * kPxNm)});
    }
    return int(boxes.size());
  };
  out.report.cutWidthConflicts = addConflictBoxes(flaggedWidth);
  out.report.cutSpaceConflicts = addConflictBoxes(flaggedSpace);

  out.target = std::move(target);
  out.coreMask = std::move(coreMask);
  out.spacer = std::move(spacer);
  out.cut = std::move(cut);
  out.assists = std::move(assists);
  out.bridges = std::move(bridges);
  return out;
}

DecomposeOutputOptions outputOptions(const DecomposeOptions& opts) {
  return {opts.synth ? opts.synth->synthId() : kSadpCutSynthId,
          opts.insertAssists, opts.mergeCores, opts.trimAssists, opts.margin};
}

LayerDecomposition decomposeLayer(std::span<const ColoredFragment> frags,
                                  const DesignRules& rules,
                                  const DecomposeOptions& opts) {
  // Backend dispatch: a non-SADP synthesizer owns the whole layer
  // synthesis; null (or the SADP backend itself) takes the built-in
  // cut-process pipeline above, byte for byte.
  if (opts.synth != nullptr && opts.synth->synthId() != kSadpCutSynthId) {
    return opts.synth->synthesize(frags, rules, opts);
  }
  return decomposeLayerUncached(frags, rules, opts);
}

LayerSummary summarizeLayer(const LayerDecomposition& d) {
  LayerSummary s;
  s.report = d.report;
  s.conflictBoxesNm = d.conflictBoxesNm;
  s.hardOverlayBoxesNm = d.hardOverlayBoxesNm;
  s.windowNm = d.windowNm;
  return s;
}

std::shared_ptr<const LayerSummary> decomposeLayerShared(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts, LayerRequest request) {
  // The planes die here; the summary keeps what every reader reads.
  auto summarize = [](const LayerDecomposition& d, bool withFp) {
    LayerSummary s = summarizeLayer(d);
    if (withFp) s.maskFp = maskFingerprint(d);
    return s;
  };
  if (opts.cache == nullptr) {
    return std::make_shared<const LayerSummary>(
        summarize(decomposeLayer(frags, rules, opts), false));
  }
  RunContext& ctx = opts.ctx ? *opts.ctx : RunContext::current();
  const MaskCacheKey key = maskCacheKey(frags, rules, opts, request);
  if (std::shared_ptr<const LayerSummary> hit = opts.cache->lookup(key)) {
    ctx.metrics().counter("mask_cache.hits").add(1);
    return hit;
  }
  ctx.metrics().counter("mask_cache.misses").add(1);
  return opts.cache->insert(
      key, summarize(decomposeLayer(frags, rules, opts),
                     request == LayerRequest::WholeLayer));
}

std::uint64_t maskFingerprint(const LayerDecomposition& d) {
  // FNV-1a fold over the per-plane fingerprints plus the window box; any
  // single-bit mask difference flips it (up to hash collisions).
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Bitmap* b :
       {&d.target, &d.coreMask, &d.spacer, &d.cut, &d.assists, &d.bridges}) {
    fold(fingerprint(*b));
  }
  // k-patterning exposure planes. Folded only when present (with a count
  // prefix so plane boundaries matter), which keeps every SADP fingerprint
  // — including the committed goldens — byte-identical.
  if (!d.masks.empty()) {
    fold(std::uint64_t(d.masks.size()));
    for (const Bitmap& m : d.masks) fold(fingerprint(m));
  }
  fold(std::uint64_t(std::uint32_t(d.windowNm.xlo)));
  fold(std::uint64_t(std::uint32_t(d.windowNm.ylo)));
  fold(std::uint64_t(std::uint32_t(d.windowNm.xhi)));
  fold(std::uint64_t(std::uint32_t(d.windowNm.yhi)));
  return h;
}

namespace {

/// The 64 pixels [x0, x0 + 64) of a packed row of `wpr` words, LSB = x0;
/// pixels outside the row (x0 may be negative) read as unset.
std::uint64_t rowBitsAt(const std::uint64_t* row, int wpr, int x0) {
  const int j = x0 >> 6;  // floor division, also for negative x0
  const int bit = x0 & 63;
  const std::uint64_t lo = unsigned(j) < unsigned(wpr) ? row[j] : 0;
  if (bit == 0) return lo;
  const std::uint64_t hi =
      unsigned(j + 1) < unsigned(wpr) ? row[j + 1] : 0;
  return (lo >> bit) | (hi << (64 - bit));
}

}  // namespace

Bitmap narrowGapFlags(const Bitmap& cut, const Bitmap& target, int minGapPx) {
  if (cut.width() != target.width() || cut.height() != target.height()) {
    throw std::invalid_argument("narrowGapFlags: dimension mismatch");
  }
  const int w = cut.width(), h = cut.height();
  const int wpr = Bitmap::wordsPerRow(w);
  const int k = minGapPx;
  Bitmap flagged(w, h);
  // An unset pixel whose nearest cut pixels along one axis lie at
  // distances a, b >= 1 sits in a gap of a + b - 1 pixels, so it is
  // flagged iff a + b <= k. Pairing each left distance k - m with every
  // right distance <= m covers exactly those pairs; a gap with no cut on
  // one side (it touches the raster border) never pairs.
  for (int y = 0; y < h; ++y) {
    const std::uint64_t* cutRow = cut.rowWords(y);
    const std::uint64_t* tgtRow = target.rowWords(y);
    std::uint64_t* outRow = flagged.rowWords(y);
    for (int j = 0; j < wpr; ++j) {
      // Flags are kept only over metal, and cut pixels are never gaps.
      const std::uint64_t open = tgtRow[j] & ~cutRow[j];
      if (open == 0) continue;
      const int x0 = j << 6;
      std::uint64_t hits = 0, rightX = 0, rightY = 0;
      for (int m = 1; m < k; ++m) {
        rightX |= rowBitsAt(cutRow, wpr, x0 + m);
        hits |= rowBitsAt(cutRow, wpr, x0 - (k - m)) & rightX;
        if (y + m < h) rightY |= cut.rowWords(y + m)[j];
        if (y >= k - m) hits |= cut.rowWords(y - (k - m))[j] & rightY;
      }
      outRow[j] = hits & open;
    }
  }
  return flagged;
}

}  // namespace sadp

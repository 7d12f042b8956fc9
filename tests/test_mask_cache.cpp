// MaskCache contract tests (DESIGN.md §5.11): a key hit returns the
// summary a fresh decomposition gives, entries hold no planes, whole-layer
// and window requests keep separate entries, hit/miss/eviction accounting
// is deterministic, and the key covers exactly the output-affecting inputs
// (the ignored tileWords field is deliberately excluded).
#include <gtest/gtest.h>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "sadp/decompose.hpp"
#include "sadp/mask_cache.hpp"

namespace sadp {
namespace {

BenchmarkSpec tinySpec(std::uint64_t seed = 7) {
  BenchmarkSpec s;
  s.name = "cache-tiny";
  s.netCount = 30;
  s.width = 48;
  s.height = 48;
  s.seed = seed;
  return s;
}

/// Routed fragments of layer `layer` of a tiny deterministic instance.
std::vector<ColoredFragment> routedFragments(int layer,
                                             std::uint64_t seed = 7) {
  BenchmarkInstance inst = makeBenchmark(tinySpec(seed));
  OverlayAwareRouter router(inst.grid, inst.netlist);
  router.run();
  return router.coloredFragments(layer);
}

/// Every field a summary shares with the planes' decomposition.
void expectSummarizes(const LayerSummary& s, const LayerDecomposition& d) {
  EXPECT_EQ(s.report, d.report);
  EXPECT_EQ(s.conflictBoxesNm, d.conflictBoxesNm);
  EXPECT_EQ(s.hardOverlayBoxesNm, d.hardOverlayBoxesNm);
  EXPECT_EQ(s.windowNm, d.windowNm);
}

/// Bytes of the six mask planes of one decomposition.
std::int64_t planeBytes(const LayerDecomposition& d) {
  std::int64_t n = 0;
  for (const Bitmap* b :
       {&d.target, &d.coreMask, &d.spacer, &d.cut, &d.assists, &d.bridges}) {
    n += std::int64_t(b->words().size() * sizeof(std::uint64_t));
  }
  return n;
}

TEST(MaskCache, HitReturnsIdenticalSummary) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  ASSERT_FALSE(frags.empty());
  const DesignRules rules{};
  const LayerDecomposition ref = decomposeLayer(frags, rules);  // uncached

  // Without a cache the summary is computed fresh and never fingerprinted.
  const auto uncached = decomposeLayerShared(frags, rules, {},
                                             LayerRequest::WholeLayer);
  expectSummarizes(*uncached, ref);
  EXPECT_FALSE(uncached->maskFp.has_value());

  for (const LayerRequest request :
       {LayerRequest::Window, LayerRequest::WholeLayer}) {
    MaskCache cache;
    DecomposeOptions opts;
    opts.cache = &cache;
    decomposeLayer(frags, rules, opts);  // planes: never touches the cache
    const auto miss = decomposeLayerShared(frags, rules, opts, request);
    const auto hit = decomposeLayerShared(frags, rules, opts, request);

    const MaskCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.entries, 1);
    EXPECT_EQ(miss, hit);  // the resident entry itself
    expectSummarizes(*miss, ref);
    expectSummarizes(*hit, ref);
    if (request == LayerRequest::WholeLayer) {
      ASSERT_TRUE(hit->maskFp.has_value());
      EXPECT_EQ(*hit->maskFp, maskFingerprint(ref));
    } else {
      EXPECT_FALSE(hit->maskFp.has_value());
    }
  }
}

TEST(MaskCache, EntriesHoldNoPlanes) {
  BenchmarkInstance inst = makeBenchmark(tinySpec());
  MaskCache cache;
  RouterOptions ro;
  ro.maskCache = &cache;
  OverlayAwareRouter router(inst.grid, inst.netlist, ro);
  router.run();
  for (int layer = 0; layer < inst.grid.layers(); ++layer) {
    ASSERT_TRUE(router.decomposeShared(layer)->maskFp.has_value());
  }
  const MaskCacheStats s = cache.stats();
  EXPECT_GE(s.entries, inst.grid.layers());
  // Every cut check, repair probe and sign-off request of the run together
  // costs less than the planes of a single layer.
  EXPECT_LT(s.bytes, planeBytes(router.decompose(0)));
}

TEST(MaskCache, WholeLayerAndWindowRequestsKeepSeparateEntries) {
  const std::vector<ColoredFragment> frags = routedFragments(1);
  const DesignRules rules{};
  MaskCache cache;
  DecomposeOptions opts;
  opts.cache = &cache;
  EXPECT_NE(maskCacheKey(frags, rules, opts, LayerRequest::Window),
            maskCacheKey(frags, rules, opts, LayerRequest::WholeLayer));

  const auto window =
      decomposeLayerShared(frags, rules, opts, LayerRequest::Window);
  const auto whole =
      decomposeLayerShared(frags, rules, opts, LayerRequest::WholeLayer);
  const MaskCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2);  // the whole-layer request did not hit the window
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.entries, 2);
  EXPECT_FALSE(window->maskFp.has_value());
  ASSERT_TRUE(whole->maskFp.has_value());
  EXPECT_EQ(*whole->maskFp, maskFingerprint(decomposeLayer(frags, rules)));
  EXPECT_EQ(window->report, whole->report);
  EXPECT_EQ(window->windowNm, whole->windowNm);
}

TEST(MaskCache, KeyIgnoresTilingAndScheduling) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  const DesignRules rules{};

  MaskCache cache;
  DecomposeOptions a;
  a.cache = &cache;
  a.tileWords = 4;  // ignored by decomposeLayer
  DecomposeOptions b;
  b.cache = &cache;
  b.tileWords = -1;

  EXPECT_EQ(maskCacheKey(frags, rules, a), maskCacheKey(frags, rules, b));
  const auto first = decomposeLayerShared(frags, rules, a);
  const auto second = decomposeLayerShared(frags, rules, b);
  EXPECT_EQ(cache.stats().hits, 1);  // the ignored field never splits keys
  EXPECT_EQ(first, second);
}

TEST(MaskCache, KeyCoversOutputAffectingInputs) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  const DesignRules rules{};
  const DecomposeOptions base;
  const MaskCacheKey k0 = maskCacheKey(frags, rules, base);

  DecomposeOptions noAssists = base;
  noAssists.insertAssists = false;
  EXPECT_NE(k0, maskCacheKey(frags, rules, noAssists));

  DecomposeOptions noMerge = base;
  noMerge.mergeCores = false;
  EXPECT_NE(k0, maskCacheKey(frags, rules, noMerge));

  DecomposeOptions wideMargin = base;
  wideMargin.margin = base.margin + 10;
  EXPECT_NE(k0, maskCacheKey(frags, rules, wideMargin));

  DesignRules otherRules{};
  otherRules.wCut += 10;
  EXPECT_NE(k0, maskCacheKey(frags, otherRules, base));

  // Fragment order and content participate.
  std::vector<ColoredFragment> reversed(frags.rbegin(), frags.rend());
  const bool sameSequence =
      std::equal(reversed.begin(), reversed.end(), frags.begin(),
                 [](const ColoredFragment& a, const ColoredFragment& b) {
                   return a.frag == b.frag && a.color == b.color;
                 });
  if (reversed.size() > 1 && !sameSequence) {
    EXPECT_NE(k0, maskCacheKey(reversed, rules, base));
  }
  std::vector<ColoredFragment> flipped = frags;
  flipped.front().color =
      flipped.front().color == Color::Core ? Color::Second : Color::Core;
  EXPECT_NE(k0, maskCacheKey(flipped, rules, base));
}

TEST(MaskCache, EvictsLeastRecentlyUsedDeterministically) {
  const DesignRules rules{};
  const DecomposeOptions base;
  // Three distinct inputs: the three layers of the routed instance.
  std::vector<std::vector<ColoredFragment>> inputs;
  for (int layer = 0; layer < 3; ++layer) {
    inputs.push_back(routedFragments(layer));
  }

  auto runSequence = [&](MaskCache& cache) {
    DecomposeOptions opts = base;
    opts.cache = &cache;
    for (const auto& frags : inputs) decomposeLayerShared(frags, rules, opts);
    // Re-request the LAST input: with a 1-byte budget only the most
    // recent entry survives, so exactly this one hits.
    decomposeLayerShared(inputs.back(), rules, opts);
    decomposeLayerShared(inputs.front(), rules, opts);  // evicted -> miss
    return cache.stats();
  };

  MaskCache tiny(1);  // keeps exactly one (the newest) entry
  const MaskCacheStats s = runSequence(tiny);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 4);
  EXPECT_GE(s.evictions, 3);
  EXPECT_EQ(s.entries, 1);

  // Identical sequence, fresh cache: identical accounting.
  MaskCache again(1);
  const MaskCacheStats s2 = runSequence(again);
  EXPECT_EQ(s.hits, s2.hits);
  EXPECT_EQ(s.misses, s2.misses);
  EXPECT_EQ(s.evictions, s2.evictions);
  EXPECT_EQ(s.entries, s2.entries);
  EXPECT_EQ(s.bytes, s2.bytes);
}

TEST(MaskCache, LookupKeepsEntryAliveAcrossEviction) {
  const std::vector<ColoredFragment> a = routedFragments(0);
  const std::vector<ColoredFragment> b = routedFragments(1);
  const DesignRules rules{};
  const DecomposeOptions base;

  const LayerRequest whole = LayerRequest::WholeLayer;
  MaskCache cache(1);
  DecomposeOptions opts = base;
  opts.cache = &cache;
  decomposeLayerShared(a, rules, opts, whole);
  const std::shared_ptr<const LayerSummary> held =
      cache.lookup(maskCacheKey(a, rules, base, whole));
  ASSERT_TRUE(held);
  decomposeLayerShared(b, rules, opts, whole);
  // `a` was evicted but the shared_ptr keeps the summary readable.
  EXPECT_FALSE(cache.lookup(maskCacheKey(a, rules, base, whole)));
  ASSERT_TRUE(held->maskFp.has_value());
  EXPECT_EQ(*held->maskFp, maskFingerprint(decomposeLayer(a, rules)));
}

TEST(MaskCache, ClearResetsEntriesButKeepsTotals) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  const DesignRules rules{};
  MaskCache cache;
  DecomposeOptions opts;
  opts.cache = &cache;
  decomposeLayerShared(frags, rules, opts);
  decomposeLayerShared(frags, rules, opts);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  decomposeLayerShared(frags, rules, opts);
  EXPECT_EQ(cache.stats().misses, 2);  // cleared -> recompute once more
  EXPECT_EQ(cache.stats().hits, 1);
}

}  // namespace
}  // namespace sadp

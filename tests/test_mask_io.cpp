// Tests for mask extraction and the mask text format.
#include "sadp/mask_io.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

namespace sadp {
namespace {

LayerDecomposition sampleDecomposition() {
  const DesignRules rules;
  std::vector<ColoredFragment> frags{
      {Fragment{0, 0, 6, 1, 1}, Color::Core},
      {Fragment{0, 2, 6, 3, 2}, Color::Second},
  };
  return decomposeLayer(frags, rules);
}

TEST(MaskIo, ExtractionCoversBitmapExactly) {
  const LayerDecomposition d = sampleDecomposition();
  for (MaskLevel level : {MaskLevel::Target, MaskLevel::CoreMask,
                          MaskLevel::Spacer, MaskLevel::CutMask}) {
    const std::vector<Rect> rects = extractMaskRects(d, level);
    // Area of the extracted region equals the bitmap population (each
    // pixel is 10x10 nm).
    const Bitmap& b = level == MaskLevel::Target   ? d.target
                      : level == MaskLevel::CoreMask ? d.coreMask
                      : level == MaskLevel::Spacer   ? d.spacer
                                                     : d.cut;
    EXPECT_EQ(regionArea(rects), std::int64_t(b.count()) * 100)
        << toString(level);
    // Rects must be disjoint: area equals sum of areas.
    std::int64_t sum = 0;
    for (const Rect& r : rects) sum += r.area();
    EXPECT_EQ(sum, regionArea(rects)) << toString(level);
  }
}

TEST(MaskIo, WriteReadRoundTrip) {
  const LayerDecomposition d = sampleDecomposition();
  std::stringstream ss;
  writeMasks(ss, d, 2);
  const MaskFile f = readMasks(ss);
  EXPECT_EQ(f.layer, 2);
  EXPECT_EQ(regionArea(f.level(MaskLevel::Target)),
            std::int64_t(d.target.count()) * 100);
  EXPECT_EQ(regionArea(f.level(MaskLevel::CutMask)),
            std::int64_t(d.cut.count()) * 100);
}

TEST(MaskIo, RejectsGarbage) {
  std::stringstream bad("nope v1 0 0");
  EXPECT_THROW(readMasks(bad), std::runtime_error);
  std::stringstream trunc("sadp-masks v1 0 2\ntarget 0 0 10 10\n");
  EXPECT_THROW(readMasks(trunc), std::runtime_error);
  std::stringstream badLevel("sadp-masks v1 0 1\nbogus 0 0 10 10\n");
  EXPECT_THROW(readMasks(badLevel), std::runtime_error);
}

TEST(MaskIo, LevelsAreDisjointTargetSpacerCut) {
  const LayerDecomposition d = sampleDecomposition();
  const auto target = extractMaskRects(d, MaskLevel::Target);
  const auto spacer = extractMaskRects(d, MaskLevel::Spacer);
  const auto cut = extractMaskRects(d, MaskLevel::CutMask);
  for (const Rect& t : target) {
    for (const Rect& s : spacer) EXPECT_FALSE(t.overlaps(s));
    for (const Rect& c : cut) EXPECT_FALSE(t.overlaps(c));
  }
  for (const Rect& s : spacer) {
    for (const Rect& c : cut) EXPECT_FALSE(s.overlaps(c));
  }
}

/// writeMasks' text as an ostream formats it field by field: the reference
/// the block writer must reproduce byte for byte.
std::string streamFormattedMasks(const LayerDecomposition& d, int layer) {
  std::vector<std::pair<std::string, Rect>> records;
  for (MaskLevel level : {MaskLevel::Target, MaskLevel::CoreMask,
                          MaskLevel::Spacer, MaskLevel::CutMask}) {
    for (const Rect& r : extractMaskRects(d, level)) {
      records.emplace_back(toString(level), r);
    }
  }
  for (std::size_t i = 0; i < d.masks.size(); ++i) {
    for (const Rect& r : rasterToNmRects(d.masks[i], d.windowNm)) {
      records.emplace_back("mask" + std::to_string(i), r);
    }
  }
  std::ostringstream os;
  os << "sadp-masks v1 " << layer << ' ' << records.size() << "\n";
  for (const auto& [tag, r] : records) {
    os << tag << ' ' << r.xlo << ' ' << r.ylo << ' ' << r.xhi << ' ' << r.yhi
       << "\n";
  }
  return os.str();
}

Bitmap randomPlane(int w, int h, double density, std::mt19937& rng) {
  std::bernoulli_distribution on(density);
  Bitmap b(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) b.set(x, y, on(rng));
  }
  return b;
}

TEST(MaskIo, WriterMatchesStreamFormattedReference) {
  // Random planes over windows on both sides of the origin, some with
  // k-patterning exposure planes, some large enough to span several of
  // the writer's output blocks.
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> width(1, 400), height(1, 80),
      origin(-20'000'000, 20'000'000), layer(-3, 12);
  std::uniform_real_distribution<double> density(0.05, 0.6);
  for (int trial = 0; trial < 40; ++trial) {
    const int w = width(rng), h = height(rng);
    LayerDecomposition d;
    const Nm x0 = origin(rng), y0 = origin(rng);
    d.windowNm = Rect{x0, y0, Nm(x0 + w * 10), Nm(y0 + h * 10)};
    d.target = randomPlane(w, h, density(rng), rng);
    d.coreMask = randomPlane(w, h, density(rng), rng);
    d.spacer = randomPlane(w, h, density(rng), rng);
    d.cut = randomPlane(w, h, density(rng), rng);
    if (trial % 3 == 0) {
      for (int m = 0; m < 3; ++m) {
        d.masks.push_back(randomPlane(w, h, density(rng), rng));
      }
    }
    const int l = layer(rng);
    std::ostringstream got;
    writeMasks(got, d, l);
    ASSERT_EQ(got.str(), streamFormattedMasks(d, l)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sadp

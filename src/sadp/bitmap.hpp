// Dense binary raster at 10 nm resolution used by the cut-process mask
// synthesizer. 10 nm is the gcd of every design-rule value of the paper's
// 10 nm-node instance, so all mask geometry is pixel-exact.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/geom.hpp"

namespace sadp {

/// A W x H boolean raster, bit-packed 64 pixels per word (LSB-first within
/// a word, padded row stride). Morphological operations use square
/// (Chebyshev) structuring elements, which coincide with Euclidean checks
/// for every pixel offset achievable on the 20 nm layout lattice
/// (DESIGN.md §5.6). All kernels walk whole words; the unused tail bits of
/// each row's last word are kept zero as a class invariant, so popcounts
/// and word-wise equality need no per-row masking.
class Bitmap {
 public:
  Bitmap() = default;
  Bitmap(int width, int height)
      : w_(width),
        h_(height),
        wpr_(wordsPerRow(width)),
        words_(std::size_t(wpr_) * std::size_t(height), 0) {}

  int width() const { return w_; }
  int height() const { return h_; }
  std::size_t count() const;  ///< number of set pixels

  bool get(int x, int y) const {
    if (unsigned(x) >= unsigned(w_) || unsigned(y) >= unsigned(h_)) {
      return false;
    }
    return (words_[std::size_t(y) * wpr_ + (unsigned(x) >> 6)] >>
            (unsigned(x) & 63)) &
           1u;
  }
  void set(int x, int y, bool v = true) {
    if (unsigned(x) >= unsigned(w_) || unsigned(y) >= unsigned(h_)) return;
    std::uint64_t& word = words_[std::size_t(y) * wpr_ + (unsigned(x) >> 6)];
    const std::uint64_t bit = std::uint64_t(1) << (unsigned(x) & 63);
    if (v) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }

  /// Sets every pixel in the half-open box [xlo,xhi) x [ylo,yhi), clipped.
  void fillRect(int xlo, int ylo, int xhi, int yhi, bool v = true);

  /// True if any pixel in the half-open box is set.
  bool anyInRect(int xlo, int ylo, int xhi, int yhi) const;

  // In-place boolean ops; operands must have identical dimensions.
  Bitmap& operator|=(const Bitmap& o);
  Bitmap& operator&=(const Bitmap& o);
  Bitmap& andNot(const Bitmap& o);
  Bitmap& invert();

  friend Bitmap operator|(Bitmap a, const Bitmap& b) { return a |= b; }
  friend Bitmap operator&(Bitmap a, const Bitmap& b) { return a &= b; }

  bool operator==(const Bitmap& o) const = default;

  /// Chebyshev dilation by radius r (square SE of edge 2r+1).
  Bitmap dilated(int r) const;
  /// Chebyshev erosion by radius r (border pixels behave as set).
  Bitmap eroded(int r) const;
  /// Morphological closing: fills gaps of Chebyshev width <= 2r.
  Bitmap closed(int r) const { return dilated(r).eroded(r); }
  /// Morphological opening: removes features of Chebyshev width <= 2r.
  Bitmap opened(int r) const { return eroded(r).dilated(r); }

  /// Opening with a k x k structuring element anchored at its top-left
  /// corner (erosion over [x,x+k) x [y,y+k), then dilation with the
  /// reflected element). An opening is invariant under SE translation, so
  /// for odd k this equals opened((k-1)/2); the anchored form also handles
  /// even k, which has no centered counterpart on the pixel lattice
  /// (DESIGN.md §5.6). Border pixels behave as unset.
  Bitmap openedAnchored(int k) const;

  /// Packed rows, wordsPerRow(width()) words per row, LSB = lowest x.
  const std::vector<std::uint64_t>& words() const { return words_; }
  /// Row y's packed words, for word-parallel kernels outside this class.
  /// Writers must keep the bits past width() in the last word zero.
  const std::uint64_t* rowWords(int y) const {
    return words_.data() + std::size_t(y) * wpr_;
  }
  std::uint64_t* rowWords(int y) {
    return words_.data() + std::size_t(y) * wpr_;
  }
  static int wordsPerRow(int width) { return (width + 63) >> 6; }

 private:
  /// Mask of the valid bits in the last word of a row.
  std::uint64_t tailMask() const {
    const int rem = w_ & 63;
    return rem ? (std::uint64_t(1) << rem) - 1 : ~std::uint64_t(0);
  }

  int w_ = 0;
  int h_ = 0;
  int wpr_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Dispatch level of the word-parallel morphology kernels (the separable
/// dilate/erode filters). Scalar and Avx2 are byte-identical by contract
/// (tests/test_bitmap_simd.cpp); Avx2 is selected only when the CPU
/// reports support.
enum class SimdLevel : std::uint8_t { Auto, Scalar, Avx2 };

/// Runtime override of the kernel dispatch (process-wide, atomic).
/// `Auto` re-resolves from the environment and CPUID: scalar when
/// SADP_FORCE_SCALAR is set to a nonempty value other than "0", else AVX2
/// when the CPU supports it. Requesting Avx2 without CPU support resolves
/// to Scalar.
void setBitmapSimdLevel(SimdLevel lvl);
/// The level kernels actually dispatch to right now (never Auto).
SimdLevel activeBitmapSimdLevel();
/// CPUID probe for AVX2 (false on non-x86 builds).
bool cpuSupportsAvx2();

/// True if any pixel of `b` within Chebyshev distance `r` of (x, y) is set.
bool anyNear(const Bitmap& b, int x, int y, int r);

/// Order-sensitive 64-bit FNV-1a over dimensions and packed words (bytes
/// low first). Two bitmaps compare equal iff their fingerprints match (up
/// to hash collisions); used by the golden regression fixtures. All-zero
/// and all-one words fold in one multiply to the bytewise value.
std::uint64_t fingerprint(const Bitmap& b);

/// Replaces `runs` with the [x0,x1) spans of set pixels in row y.
void rowRuns(const Bitmap& b, int y, std::vector<std::pair<int, int>>& runs);

/// Number of 4-connected components of set pixels.
int componentCount(const Bitmap& b);

/// Bounding boxes (half-open pixel coords) of the 4-connected components,
/// ordered by each component's first pixel in row-major order.
std::vector<Rect> componentBoxes(const Bitmap& b);

}  // namespace sadp

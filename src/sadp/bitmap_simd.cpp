// AVX2 implementations of the Bitmap morphology kernels (DESIGN.md §5.9).
//
// This translation unit is compiled with -mavx2 when the toolchain allows
// it (see src/sadp/CMakeLists.txt); nothing here executes unless runtime
// dispatch -- CPUID plus SADP_FORCE_SCALAR / setBitmapSimdLevel() -- has
// confirmed AVX2 support, so file-level codegen flags are safe. Every
// kernel is bit-for-bit identical to its scalar reference in bitmap.cpp,
// enforced by the property suite in tests/test_bitmap_simd.cpp.
#include "sadp/bitmap_kernels.hpp"

#if defined(SADP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace sadp::detail {

namespace {

/// The words [j, j+4) of the row shifted right by d pixels: word j of the
/// result holds in[x + d] for x in [64j, 64j + 64). `row` points into a
/// zero-padded buffer, so the straddling loads need no bounds checks; the
/// arithmetic `>> 6` floor-divide makes one formula cover both shift
/// directions.
inline __m256i shiftedWords(const std::uint64_t* row, int j, int d) {
  const int wo = d >> 6;
  const int bo = d & 63;
  const std::uint64_t* p = row + j + wo;
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  if (bo != 0) {
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 1));
    v = _mm256_or_si256(_mm256_srl_epi64(v, _mm_cvtsi32_si128(bo)),
                        _mm256_sll_epi64(hi, _mm_cvtsi32_si128(64 - bo)));
  }
  return v;
}

/// Scalar single-word tail of shiftedWords.
inline std::uint64_t shiftedWord(const std::uint64_t* row, int j, int d) {
  const int wo = d >> 6;
  const int bo = d & 63;
  const std::uint64_t* p = row + j + wo;
  std::uint64_t v = p[0];
  if (bo != 0) v = (v >> bo) | (p[1] << (64 - bo));
  return v;
}

void avx2FilterRows(const std::uint64_t* in, std::uint64_t* out, int h,
                    int wpr, std::uint64_t tail, int lo, int hi, bool isAnd) {
  // Zero padding wide enough for every straddling load of shiftedWords:
  // word offsets span [lo >> 6, (hi >> 6) + 1] plus the +1 high word.
  const int maxAbs = std::max(std::abs(lo), std::abs(hi));
  const int pad = (maxAbs >> 6) + 2;
  std::vector<std::uint64_t> buf(std::size_t(wpr) + 2 * std::size_t(pad), 0);
  std::uint64_t* row = buf.data() + pad;
  for (int y = 0; y < h; ++y) {
    std::memcpy(row, in + std::size_t(y) * wpr,
                std::size_t(wpr) * sizeof(std::uint64_t));
    std::uint64_t* dst = out + std::size_t(y) * wpr;
    int j = 0;
    for (; j + 4 <= wpr; j += 4) {
      __m256i acc = shiftedWords(row, j, lo);
      if (isAnd) {
        for (int d = lo + 1; d <= hi; ++d) {
          acc = _mm256_and_si256(acc, shiftedWords(row, j, d));
        }
      } else {
        for (int d = lo + 1; d <= hi; ++d) {
          acc = _mm256_or_si256(acc, shiftedWords(row, j, d));
        }
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), acc);
    }
    for (; j < wpr; ++j) {
      std::uint64_t acc = shiftedWord(row, j, lo);
      for (int d = lo + 1; d <= hi; ++d) {
        if (isAnd) {
          acc &= shiftedWord(row, j, d);
        } else {
          acc |= shiftedWord(row, j, d);
        }
      }
      dst[j] = acc;
    }
    if (wpr > 0) dst[wpr - 1] &= tail;
  }
}

void avx2FilterCols(const std::uint64_t* in, std::uint64_t* out, int h,
                    int wpr, int lo, int hi, bool isAnd) {
  for (int y = 0; y < h; ++y) {
    std::uint64_t* dst = out + std::size_t(y) * wpr;
    if (isAnd && (y + lo < 0 || y + hi >= h)) {
      std::fill(dst, dst + wpr, 0);  // AND window reads past the raster
      continue;
    }
    const int k0 = std::max(0, y + lo), k1 = std::min(h - 1, y + hi);
    if (k0 > k1) {
      std::fill(dst, dst + wpr, 0);
      continue;
    }
    int j = 0;
    for (; j + 4 <= wpr; j += 4) {
      __m256i acc = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(in + std::size_t(k0) * wpr + j));
      if (isAnd) {
        for (int k = k0 + 1; k <= k1; ++k) {
          acc = _mm256_and_si256(
              acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                       in + std::size_t(k) * wpr + j)));
        }
      } else {
        for (int k = k0 + 1; k <= k1; ++k) {
          acc = _mm256_or_si256(
              acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                       in + std::size_t(k) * wpr + j)));
        }
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), acc);
    }
    for (; j < wpr; ++j) {
      std::uint64_t acc = in[std::size_t(k0) * wpr + j];
      for (int k = k0 + 1; k <= k1; ++k) {
        if (isAnd) {
          acc &= in[std::size_t(k) * wpr + j];
        } else {
          acc |= in[std::size_t(k) * wpr + j];
        }
      }
      dst[j] = acc;
    }
  }
}

}  // namespace

const BitmapKernels kAvx2Kernels{&avx2FilterRows, &avx2FilterCols};

}  // namespace sadp::detail

#else  // toolchain or architecture cannot produce AVX2 code

namespace sadp::detail {

// Alias the scalar reference so dispatch tables stay well-formed; runtime
// selection never picks this table unless CPUID reported AVX2, which
// cannot happen on these builds anyway.
const BitmapKernels kAvx2Kernels{&scalarFilterRows, &scalarFilterCols};

}  // namespace sadp::detail

#endif

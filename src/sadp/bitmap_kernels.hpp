// Internal kernel table for Bitmap's word-parallel morphology primitives
// (DESIGN.md §5.9). The two hot kernels -- the separable row/column
// OR/AND filters behind dilate/erode/open -- exist in a scalar form
// (always available, the semantic reference) and an AVX2 form compiled in
// bitmap_simd.cpp. Dispatch is resolved at runtime from CPUID, the
// SADP_FORCE_SCALAR environment variable, and the setBitmapSimdLevel()
// override; both forms are byte-identical by contract, property-tested in
// tests/test_bitmap_simd.cpp.
#pragma once

#include <cstdint>

namespace sadp::detail {

struct BitmapKernels {
  /// 1-D OR/AND filter along rows: out[x] = op over d in [lo, hi] of
  /// in[x + d] per row, pixels beyond the row reading as unset; the last
  /// word of each output row is masked with `tail`.
  void (*filterRows)(const std::uint64_t* in, std::uint64_t* out, int h,
                     int wpr, std::uint64_t tail, int lo, int hi, bool isAnd);
  /// 1-D OR/AND filter along columns, word-wise across rows; rows beyond
  /// the raster read as unset.
  void (*filterCols)(const std::uint64_t* in, std::uint64_t* out, int h,
                     int wpr, int lo, int hi, bool isAnd);
};

void scalarFilterRows(const std::uint64_t* in, std::uint64_t* out, int h,
                      int wpr, std::uint64_t tail, int lo, int hi, bool isAnd);
void scalarFilterCols(const std::uint64_t* in, std::uint64_t* out, int h,
                      int wpr, int lo, int hi, bool isAnd);

extern const BitmapKernels kScalarKernels;
/// AVX2 implementations (bitmap_simd.cpp); aliases the scalar kernels when
/// the toolchain or target architecture cannot produce AVX2 code.
extern const BitmapKernels kAvx2Kernels;

/// The table Bitmap methods currently dispatch through (atomic; resolved
/// lazily on first use).
const BitmapKernels& activeKernels();

}  // namespace sadp::detail

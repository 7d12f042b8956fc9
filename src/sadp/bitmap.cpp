#include "sadp/bitmap.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "sadp/bitmap_kernels.hpp"

namespace sadp {

std::size_t Bitmap::count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) n += std::size_t(std::popcount(w));
  return n;
}

void Bitmap::fillRect(int xlo, int ylo, int xhi, int yhi, bool v) {
  xlo = std::max(xlo, 0);
  ylo = std::max(ylo, 0);
  xhi = std::min(xhi, w_);
  yhi = std::min(yhi, h_);
  if (xlo >= xhi || ylo >= yhi) return;
  const int j0 = xlo >> 6, j1 = (xhi - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t(0) << (xlo & 63);
  const std::uint64_t last = (xhi & 63)
                                 ? (std::uint64_t(1) << (xhi & 63)) - 1
                                 : ~std::uint64_t(0);
  for (int y = ylo; y < yhi; ++y) {
    std::uint64_t* row = words_.data() + std::size_t(y) * wpr_;
    if (j0 == j1) {
      const std::uint64_t m = first & last;
      if (v) {
        row[j0] |= m;
      } else {
        row[j0] &= ~m;
      }
      continue;
    }
    if (v) {
      row[j0] |= first;
      for (int j = j0 + 1; j < j1; ++j) row[j] = ~std::uint64_t(0);
      row[j1] |= last;
    } else {
      row[j0] &= ~first;
      for (int j = j0 + 1; j < j1; ++j) row[j] = 0;
      row[j1] &= ~last;
    }
  }
}

bool Bitmap::anyInRect(int xlo, int ylo, int xhi, int yhi) const {
  xlo = std::max(xlo, 0);
  ylo = std::max(ylo, 0);
  xhi = std::min(xhi, w_);
  yhi = std::min(yhi, h_);
  if (xlo >= xhi || ylo >= yhi) return false;
  const int j0 = xlo >> 6, j1 = (xhi - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t(0) << (xlo & 63);
  const std::uint64_t last = (xhi & 63)
                                 ? (std::uint64_t(1) << (xhi & 63)) - 1
                                 : ~std::uint64_t(0);
  for (int y = ylo; y < yhi; ++y) {
    const std::uint64_t* row = words_.data() + std::size_t(y) * wpr_;
    if (j0 == j1) {
      if (row[j0] & first & last) return true;
      continue;
    }
    if (row[j0] & first) return true;
    for (int j = j0 + 1; j < j1; ++j) {
      if (row[j]) return true;
    }
    if (row[j1] & last) return true;
  }
  return false;
}

namespace {

void checkSameDims(const Bitmap& a, const Bitmap& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("Bitmap op: dimension mismatch");
  }
}

}  // namespace

Bitmap& Bitmap::operator|=(const Bitmap& o) {
  checkSameDims(*this, o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

Bitmap& Bitmap::operator&=(const Bitmap& o) {
  checkSameDims(*this, o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

Bitmap& Bitmap::andNot(const Bitmap& o) {
  checkSameDims(*this, o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

Bitmap& Bitmap::invert() {
  const std::uint64_t tail = tailMask();
  for (int y = 0; y < h_; ++y) {
    std::uint64_t* row = words_.data() + std::size_t(y) * wpr_;
    for (int j = 0; j < wpr_; ++j) row[j] = ~row[j];
    if (wpr_ > 0) row[wpr_ - 1] &= tail;
  }
  return *this;
}

namespace detail {

namespace {

/// out[x] = in[x + d] within one packed row, zero-filling beyond the row.
void shiftRowInto(const std::uint64_t* in, std::uint64_t* out, int wpr,
                  int d) {
  if (d == 0) {
    std::copy(in, in + wpr, out);
    return;
  }
  if (d > 0) {
    const int wo = d >> 6, bo = d & 63;
    for (int j = 0; j < wpr; ++j) {
      const int s = j + wo;
      std::uint64_t v = (s < wpr) ? (in[s] >> bo) : 0;
      if (bo && s + 1 < wpr) v |= in[s + 1] << (64 - bo);
      out[j] = v;
    }
  } else {
    const int wo = (-d) >> 6, bo = (-d) & 63;
    for (int j = wpr - 1; j >= 0; --j) {
      const int s = j - wo;
      std::uint64_t v = (s >= 0) ? (in[s] << bo) : 0;
      if (bo && s >= 1) v |= in[s - 1] >> (64 - bo);
      out[j] = v;
    }
  }
}

}  // namespace

/// 1-D OR/AND filter along rows: out[x] = op over d in [lo,hi] of in[x+d],
/// with pixels beyond the row reading as unset.
void scalarFilterRows(const std::uint64_t* in, std::uint64_t* out, int h,
                      int wpr, std::uint64_t tail, int lo, int hi,
                      bool isAnd) {
  std::vector<std::uint64_t> tmp(std::size_t(wpr), 0);
  for (int y = 0; y < h; ++y) {
    const std::uint64_t* src = in + std::size_t(y) * wpr;
    std::uint64_t* dst = out + std::size_t(y) * wpr;
    shiftRowInto(src, dst, wpr, lo);
    for (int d = lo + 1; d <= hi; ++d) {
      shiftRowInto(src, tmp.data(), wpr, d);
      if (isAnd) {
        for (int j = 0; j < wpr; ++j) dst[j] &= tmp[j];
      } else {
        for (int j = 0; j < wpr; ++j) dst[j] |= tmp[j];
      }
    }
    if (wpr > 0) dst[wpr - 1] &= tail;
  }
}

/// 1-D OR/AND filter along columns, word-wise across each row.
void scalarFilterCols(const std::uint64_t* in, std::uint64_t* out, int h,
                      int wpr, int lo, int hi, bool isAnd) {
  for (int y = 0; y < h; ++y) {
    std::uint64_t* dst = out + std::size_t(y) * wpr;
    if (isAnd && (y + lo < 0 || y + hi >= h)) {
      // An out-of-raster row reads as unset: the AND window is empty.
      std::fill(dst, dst + wpr, 0);
      continue;
    }
    const int k0 = std::max(0, y + lo), k1 = std::min(h - 1, y + hi);
    if (k0 > k1) {
      std::fill(dst, dst + wpr, 0);
      continue;
    }
    std::copy(in + std::size_t(k0) * wpr, in + std::size_t(k0) * wpr + wpr,
              dst);
    for (int k = k0 + 1; k <= k1; ++k) {
      const std::uint64_t* src = in + std::size_t(k) * wpr;
      if (isAnd) {
        for (int j = 0; j < wpr; ++j) dst[j] &= src[j];
      } else {
        for (int j = 0; j < wpr; ++j) dst[j] |= src[j];
      }
    }
  }
}

const BitmapKernels kScalarKernels{&scalarFilterRows, &scalarFilterCols};

namespace {

bool probeAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Resolution for SimdLevel::Auto: the SADP_FORCE_SCALAR escape hatch
/// wins, then CPUID.
const BitmapKernels* resolveAuto() {
  if (const char* env = std::getenv("SADP_FORCE_SCALAR");
      env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return &kScalarKernels;
  }
  return probeAvx2() ? &kAvx2Kernels : &kScalarKernels;
}

std::atomic<const BitmapKernels*> g_kernels{nullptr};

}  // namespace

const BitmapKernels& activeKernels() {
  const BitmapKernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolveAuto();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

}  // namespace detail

bool cpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void setBitmapSimdLevel(SimdLevel lvl) {
  const detail::BitmapKernels* k = nullptr;
  switch (lvl) {
    case SimdLevel::Scalar: k = &detail::kScalarKernels; break;
    case SimdLevel::Avx2:
      k = cpuSupportsAvx2() ? &detail::kAvx2Kernels : &detail::kScalarKernels;
      break;
    case SimdLevel::Auto: k = nullptr; break;
  }
  if (k == nullptr) {
    // Defer to activeKernels()'s lazy Auto resolution (env + CPUID).
    detail::g_kernels.store(nullptr, std::memory_order_release);
    detail::activeKernels();
  } else {
    detail::g_kernels.store(k, std::memory_order_release);
  }
}

SimdLevel activeBitmapSimdLevel() {
  return &detail::activeKernels() == &detail::kAvx2Kernels ? SimdLevel::Avx2
                                                           : SimdLevel::Scalar;
}

Bitmap Bitmap::dilated(int r) const {
  assert(r >= 0);
  if (r == 0) return *this;
  const detail::BitmapKernels& k = detail::activeKernels();
  Bitmap mid(w_, h_), out(w_, h_);
  k.filterRows(words_.data(), mid.words_.data(), h_, wpr_, tailMask(), -r, r,
               /*isAnd=*/false);
  k.filterCols(mid.words_.data(), out.words_.data(), h_, wpr_, -r, r,
               /*isAnd=*/false);
  return out;
}

Bitmap Bitmap::eroded(int r) const {
  assert(r >= 0);
  if (r == 0) return *this;
  // Erosion = complement of dilation of the complement; pixels outside the
  // raster read as set, so a full bitmap stays full.
  Bitmap inv = *this;
  inv.invert();
  Bitmap d = inv.dilated(r);
  d.invert();
  return d;
}

Bitmap Bitmap::openedAnchored(int k) const {
  assert(k >= 1);
  if (k == 1) return *this;
  const detail::BitmapKernels& kn = detail::activeKernels();
  Bitmap mid(w_, h_), out(w_, h_);
  // Erosion over the anchored window [0, k), then dilation with the
  // reflected window (-k, 0]; both separable, borders read as unset.
  // Every filter pass overwrites its whole output, so the four passes
  // ping-pong between two planes.
  kn.filterRows(words_.data(), mid.words_.data(), h_, wpr_, tailMask(), 0,
                k - 1, true);
  kn.filterCols(mid.words_.data(), out.words_.data(), h_, wpr_, 0, k - 1,
                true);
  kn.filterRows(out.words_.data(), mid.words_.data(), h_, wpr_, tailMask(),
                1 - k, 0, false);
  kn.filterCols(mid.words_.data(), out.words_.data(), h_, wpr_, 1 - k, 0,
                false);
  return out;
}

bool anyNear(const Bitmap& b, int x, int y, int r) {
  return b.anyInRect(x - r, y - r, x + r + 1, y + r + 1);
}

namespace {

/// Eight FNV-1a steps, one per byte of `v`, low byte first.
constexpr std::uint64_t fnvWord(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

/// fnvWord(h, 0) == h * kPrime8: xor with a zero byte is a no-op.
constexpr std::uint64_t kPrime8 = fnvWord(1, 0);

/// fnvWord(h, ~0) == h * kPrime8 + kOnesTail[h & 0xff]. Xor with 0xff
/// adds 0xff - 2 * (h & 0xff), and the low byte of each product depends
/// only on the low byte before it, so every step adds a term fixed by the
/// starting low byte.
constexpr std::array<std::uint64_t, 256> kOnesTail = [] {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t lo = 0; lo < 256; ++lo) {
    t[lo] = fnvWord(lo, ~std::uint64_t(0)) - lo * kPrime8;
  }
  return t;
}();

}  // namespace

std::uint64_t fingerprint(const Bitmap& b) {
  std::uint64_t h = fnvWord(1469598103934665603ull,  // FNV offset basis
                            std::uint64_t(std::uint32_t(b.width())) << 32 |
                                std::uint32_t(b.height()));
  // Mask planes are mostly empty or solid words; those fold in one
  // multiply instead of eight dependent ones, to the same value.
  for (const std::uint64_t w : b.words()) {
    if (w == 0) {
      h *= kPrime8;
    } else if (w == ~std::uint64_t(0)) {
      h = h * kPrime8 + kOnesTail[h & 0xff];
    } else {
      h = fnvWord(h, w);
    }
  }
  return h;
}

namespace {

/// Appends the [x0,x1) runs of set bits in one packed row.
void extractRuns(const std::uint64_t* row, int wpr, int width,
                 std::vector<std::pair<int, int>>& runs) {
  runs.clear();
  bool inRun = false;
  int start = 0;
  for (int j = 0; j < wpr; ++j) {
    const std::uint64_t cur = row[j];
    if (!inRun && cur == 0) continue;
    if (inRun && cur == ~std::uint64_t(0)) continue;
    const int base = j << 6;
    int bit = 0;
    while (bit < 64) {
      if (!inRun) {
        const std::uint64_t rest = cur >> bit;
        if (!rest) break;
        bit += std::countr_zero(rest);
        start = base + bit;
        inRun = true;
      } else {
        const std::uint64_t rest = (~cur) >> bit;
        if (!rest) break;
        bit += std::countr_zero(rest);
        runs.emplace_back(start, base + bit);
        inRun = false;
      }
    }
  }
  if (inRun) runs.emplace_back(start, width);
}

/// Row-run scan with union-find shared by componentCount /
/// componentBoxes. Runs are created in row-major order and linked to the
/// overlapping runs of the previous row (4-connectivity); the smaller root
/// always wins a union, so a component's root is its first run, i.e. its
/// first row-major pixel.
struct RunScan {
  struct RunRec {
    int x0, x1, y;
  };
  std::vector<RunRec> runs;
  std::vector<int> parent;

  int find(int i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  }
};

RunScan scanRuns(const Bitmap& b) {
  RunScan s;
  const int wpr = Bitmap::wordsPerRow(b.width());
  std::vector<std::pair<int, int>> prev, cur;
  std::vector<int> prevIds, curIds;
  for (int y = 0; y < b.height(); ++y) {
    extractRuns(b.words().data() + std::size_t(y) * wpr, wpr, b.width(), cur);
    curIds.clear();
    std::size_t p = 0;
    for (const auto& [x0, x1] : cur) {
      const int id = int(s.parent.size());
      s.parent.push_back(id);
      s.runs.push_back({x0, x1, y});
      // Two-pointer overlap match against the previous row's sorted runs.
      while (p < prev.size() && prev[p].second <= x0) ++p;
      for (std::size_t q = p; q < prev.size() && prev[q].first < x1; ++q) {
        const int ra = s.find(id), rb = s.find(prevIds[q]);
        if (ra != rb) s.parent[std::max(ra, rb)] = std::min(ra, rb);
      }
      curIds.push_back(id);
    }
    prev = cur;
    prevIds = curIds;
  }
  return s;
}

}  // namespace

void rowRuns(const Bitmap& b, int y, std::vector<std::pair<int, int>>& runs) {
  const int wpr = Bitmap::wordsPerRow(b.width());
  extractRuns(b.words().data() + std::size_t(y) * wpr, wpr, b.width(), runs);
}

std::vector<Rect> componentBoxes(const Bitmap& b) {
  RunScan s = scanRuns(b);
  std::vector<Rect> boxes;
  std::vector<int> boxOf(s.parent.size(), -1);
  for (int i = 0; i < int(s.parent.size()); ++i) {
    const int root = s.find(i);
    const auto& r = s.runs[std::size_t(i)];
    const Rect runBox{r.x0, r.y, r.x1, r.y + 1};
    if (boxOf[root] < 0) {
      boxOf[root] = int(boxes.size());
      boxes.push_back(runBox);
    } else {
      boxes[boxOf[root]] = boxes[boxOf[root]].unionWith(runBox);
    }
  }
  return boxes;
}

int componentCount(const Bitmap& b) {
  RunScan s = scanRuns(b);
  int components = 0;
  for (int i = 0; i < int(s.parent.size()); ++i) {
    if (s.find(i) == i) ++components;
  }
  return components;
}

}  // namespace sadp

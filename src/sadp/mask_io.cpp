#include "sadp/mask_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace sadp {

const char* toString(MaskLevel level) {
  switch (level) {
    case MaskLevel::Target:
      return "target";
    case MaskLevel::CoreMask:
      return "core";
    case MaskLevel::Spacer:
      return "spacer";
    case MaskLevel::CutMask:
      return "cut";
  }
  return "?";
}

namespace {

MaskLevel parseLevel(const std::string& s) {
  if (s == "target") return MaskLevel::Target;
  if (s == "core") return MaskLevel::CoreMask;
  if (s == "spacer") return MaskLevel::Spacer;
  if (s == "cut") return MaskLevel::CutMask;
  throw std::runtime_error("readMasks: unknown mask level '" + s + "'");
}

const Bitmap& levelBitmap(const LayerDecomposition& d, MaskLevel level) {
  switch (level) {
    case MaskLevel::Target:
      return d.target;
    case MaskLevel::CoreMask:
      return d.coreMask;
    case MaskLevel::Spacer:
      return d.spacer;
    case MaskLevel::CutMask:
      return d.cut;
  }
  return d.target;
}

}  // namespace

std::vector<Rect> extractMaskRects(const LayerDecomposition& d,
                                   MaskLevel level) {
  return rasterToNmRects(levelBitmap(d, level), d.windowNm);
}

namespace {

/// The four levels, in the order writeMasks lists them.
constexpr MaskLevel kMaskLevels[] = {MaskLevel::Target, MaskLevel::CoreMask,
                                     MaskLevel::Spacer, MaskLevel::CutMask};

/// Appends one "tag xlo ylo xhi yhi" record, formatted as operator<< would.
void appendRecord(std::string& out, std::string_view tag, const Rect& r) {
  out += tag;
  char buf[16];
  for (const Nm v : {r.xlo, r.ylo, r.xhi, r.yhi}) {
    out += ' ';
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  out += '\n';
}

}  // namespace

void writeMasks(std::ostream& os, const LayerDecomposition& d, int layer) {
  // (record tag, rectangles) in file order: the four levels, then any
  // k-patterning exposure planes.
  std::vector<std::pair<std::string, std::vector<Rect>>> groups;
  for (MaskLevel level : kMaskLevels) {
    groups.emplace_back(toString(level), extractMaskRects(d, level));
  }
  for (std::size_t i = 0; i < d.masks.size(); ++i) {
    groups.emplace_back("mask" + std::to_string(i),
                        rasterToNmRects(d.masks[i], d.windowNm));
  }
  std::size_t count = 0;
  for (const auto& group : groups) count += group.second.size();
  os << "sadp-masks v1 " << layer << ' ' << count << "\n";
  // Records go out in blocks: one stream write per block, not per field.
  constexpr std::size_t kBlockBytes = std::size_t(1) << 16;
  std::string block;
  block.reserve(kBlockBytes + 64);
  for (const auto& [tag, rects] : groups) {
    for (const Rect& r : rects) {
      appendRecord(block, tag, r);
      if (block.size() >= kBlockBytes) {
        os.write(block.data(), std::streamsize(block.size()));
        block.clear();
      }
    }
  }
  os.write(block.data(), std::streamsize(block.size()));
}

std::vector<Rect> MaskFile::level(MaskLevel l) const {
  std::vector<Rect> out;
  for (const auto& [level, r] : rects) {
    if (level == l) out.push_back(r);
  }
  return out;
}

std::vector<Rect> MaskFile::exposure(int plane) const {
  std::vector<Rect> out;
  for (const auto& [p, r] : exposures) {
    if (p == plane) out.push_back(r);
  }
  return out;
}

MaskFile readMasks(std::istream& is) {
  std::string magic, version;
  MaskFile f;
  std::size_t count = 0;
  if (!(is >> magic >> version >> f.layer >> count) ||
      magic != "sadp-masks" || version != "v1") {
    throw std::runtime_error("readMasks: bad header");
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::string level;
    Rect r;
    if (!(is >> level >> r.xlo >> r.ylo >> r.xhi >> r.yhi)) {
      throw std::runtime_error("readMasks: truncated record");
    }
    if (level.rfind("mask", 0) == 0) {
      f.exposures.emplace_back(std::stoi(level.substr(4)), r);
    } else {
      f.rects.emplace_back(parseLevel(level), r);
    }
  }
  return f;
}

}  // namespace sadp

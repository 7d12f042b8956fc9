// SADP cut-process mask synthesis and physical verification (ground truth).
//
// Given the colored wire fragments of one routing layer, this module
// constructs the actual masks of the cut process (paper Fig. 1(b)):
//
//   core mask  = core-colored metal + assistant core patterns, with shapes
//                closer than d_core merged (the merge technique, Fig. 2)
//   spacer     = w_spacer ring grown around every core-mask shape
//   cut mask   = everything that is neither spacer nor target metal
//                (spacer-is-dielectric: final metal = NOT spacer AND NOT cut)
//
// and then *measures* the result like a sign-off deck would:
//   - side overlays: side-boundary sections of target metal defined by the
//     cut mask instead of a spacer (hard if longer than w_line),
//   - tip overlays: cut-defined line ends (non-critical),
//   - cut conflicts: cut-mask MRC violations (min width w_cut, min space
//     d_cut) that occur over a target pattern (violations over spacers are
//     benign, Fig. 5).
//
// This is the arbiter for the scenario cost table: the constraint graph
// predicts overlays; this module measures them on real mask geometry.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "grid/design_rules.hpp"
#include "ocg/scenario.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"

namespace sadp {

class MaskCache;  // sadp/mask_cache.hpp

/// One colored wire fragment to decompose.
struct ColoredFragment {
  Fragment frag;
  Color color = Color::Core;

  friend bool operator==(const ColoredFragment&,
                         const ColoredFragment&) = default;
};

/// Physical measurement of one decomposed layer.
struct OverlayReport {
  std::int64_t sideOverlayNm = 0;   ///< total side-overlay length
  int sideOverlaySections = 0;      ///< contiguous unprotected side sections
  int hardOverlays = 0;             ///< sections longer than w_line
  int tipOverlays = 0;              ///< unprotected line ends
  int cutWidthConflicts = 0;        ///< sub-w_cut cut features over target
  int cutSpaceConflicts = 0;        ///< sub-d_cut cut gaps over target
  std::int64_t spacerOverTargetPx = 0;  ///< spacer eating metal (must be 0)

  int cutConflicts() const { return cutWidthConflicts + cutSpaceConflicts; }
  /// Side-overlay length in units of w_line (the paper's unit).
  std::int64_t sideOverlayUnits(const DesignRules& r) const {
    return sideOverlayNm / r.wLine;
  }

  OverlayReport& operator+=(const OverlayReport& o);
  friend bool operator==(const OverlayReport&, const OverlayReport&) = default;
};

/// Masks plus measurement for one layer.
struct LayerDecomposition {
  Bitmap target;   ///< final metal
  Bitmap coreMask; ///< core + assistant cores after merging
  Bitmap spacer;   ///< grown spacer ring
  Bitmap cut;      ///< cut mask
  Bitmap assists;  ///< assistant-core material (after clipping/trimming)
  Bitmap bridges;  ///< merge-technique bridge fills
  /// k-patterning exposure planes (one metal plane per color), filled only
  /// by k>2 synthesizers (PatterningSynthesizer); empty for the SADP cut
  /// process, whose planes are the named bitmaps above. maskFingerprint
  /// folds these only when present so SADP fingerprints are unchanged.
  std::vector<Bitmap> masks;
  /// nm bounding boxes of each cut-conflict region (width and space).
  std::vector<Rect> conflictBoxesNm;
  /// nm bounding boxes of each hard (longer than w_line) side overlay.
  std::vector<Rect> hardOverlayBoxesNm;
  OverlayReport report;
  Rect windowNm;   ///< nm box the rasters cover
  int pxPerNm10 = 1;  ///< raster resolution: 1 px = 10 nm
};

/// A decomposition without its planes: what decomposeLayerShared returns
/// and MaskCache keeps (DESIGN.md §5.11). The readers of a shared result
/// -- cut checks, repair, physicalReport and the session sign-off -- read
/// only these fields, so an entry costs bytes, not megabytes.
struct LayerSummary {
  OverlayReport report;
  std::vector<Rect> conflictBoxesNm;     ///< as LayerDecomposition's
  std::vector<Rect> hardOverlayBoxesNm;  ///< as LayerDecomposition's
  Rect windowNm;
  /// maskFingerprint of the freed planes. Taken only for whole-layer
  /// requests made with a cache; empty otherwise.
  std::optional<std::uint64_t> maskFp;
};

/// The plane-free fields of a decomposition: report, boxes and window,
/// without a fingerprint.
LayerSummary summarizeLayer(const LayerDecomposition& d);

/// What a decomposeLayerShared request covers. Cache keys absorb it, so a
/// whole-layer request never hits an entry that has no fingerprint.
enum class LayerRequest : std::uint8_t {
  Window,      ///< a local window: cut checks, repair probes
  WholeLayer,  ///< a layer's full fragment list: sign-off, fingerprinted
};

/// Identity of the built-in SADP cut-process synthesis (the decomposeLayer
/// pipeline in this file). A DecomposeOptions::synth that reports this id
/// -- or a null synth -- takes the built-in path; mask-cache keys absorb
/// the id either way, so null and an explicit SADP backend share entries.
inline constexpr std::uint64_t kSadpCutSynthId = 0x5adc'0c75'0002'0001ull;

struct DecomposeOptions;

/// Mask-synthesis strategy of a patterning backend (DESIGN.md §5.13).
/// Defined here (not in src/patterning) so the decomposition layer can
/// dispatch without depending on the backend library: PatterningBackend
/// derives from this, sadp_patterning links sadp_sadp, and the dependency
/// arrow stays one-directional.
class PatterningSynthesizer {
 public:
  virtual ~PatterningSynthesizer() = default;
  /// Stable identity folded into MaskCache keys. Must change whenever
  /// synthesize() output could change for identical inputs.
  virtual std::uint64_t synthId() const = 0;
  /// Builds the layer's mask planes and measurement. Must NOT consult
  /// opts.synth (the caller already dispatched) and must be deterministic.
  virtual LayerDecomposition synthesize(std::span<const ColoredFragment> frags,
                                        const DesignRules& rules,
                                        const DecomposeOptions& opts) const = 0;
};

struct DecomposeOptions {
  bool insertAssists = true;  ///< grow assistant cores for second patterns
  bool mergeCores = true;     ///< apply the merge technique
  /// Overlay-aware assist trimming: when a merge involving a sacrificial
  /// assist would damage third-party metal, trim the assist instead.
  /// Disabled to reconstruct routers that merge assists without overlay
  /// control ([16], Fig. 22).
  bool trimAssists = true;
  Nm margin = 120;            ///< nm of empty field kept around the window
  /// Ignored. Decomposition always runs over the whole window
  /// (DESIGN.md §5.6); the field remains only for callers that still set
  /// it, and any value yields the same masks and reports.
  int tileWords = 0;
  /// Run context the decomposition reports metrics/spans into; null = the
  /// calling thread's bound context.
  RunContext* ctx = nullptr;
  /// Optional shared summary cache (sadp/mask_cache.hpp), consulted by
  /// decomposeLayerShared only. A hit returns the stored LayerSummary
  /// without recomputation; a miss computes the planes, summarizes them
  /// and inserts the summary. Hit/miss land on the ctx counters
  /// mask_cache.hits/.misses. decomposeLayer ignores it.
  MaskCache* cache = nullptr;
  /// Mask-synthesis strategy. Null or an object whose synthId() ==
  /// kSadpCutSynthId takes the built-in SADP cut-process pipeline below;
  /// anything else is dispatched to synth->synthesize() (under the same
  /// cache, whose key absorbs the synth identity).
  const PatterningSynthesizer* synth = nullptr;
};

/// The DecomposeOptions fields that can change a decomposition's output;
/// ctx, cache and the ignored tileWords are not among them. Mask-cache
/// keys and the router's per-layer record both key on these.
struct DecomposeOutputOptions {
  std::uint64_t synthId = kSadpCutSynthId;  ///< null synth reads as SADP
  bool insertAssists = true;
  bool mergeCores = true;
  bool trimAssists = true;
  Nm margin = 0;

  friend bool operator==(const DecomposeOutputOptions&,
                         const DecomposeOutputOptions&) = default;
};
DecomposeOutputOptions outputOptions(const DecomposeOptions& opts);

/// Synthesizes and measures one layer. Fragments are in track coordinates
/// under `rules` (pitch = w_line + w_spacer); colors Unassigned default to
/// Core. The raster window is the fragments' bounding box plus margin.
/// Always computes: opts.cache is not consulted.
LayerDecomposition decomposeLayer(std::span<const ColoredFragment> frags,
                                  const DesignRules& rules,
                                  const DecomposeOptions& opts = {});

/// The report, boxes and window of decomposeLayer, through opts.cache when
/// one is set (the warm ECO path does hundreds of windowed lookups per
/// edit). A whole-layer request made with a cache also carries the
/// planes' maskFingerprint. Without a cache no fingerprint is taken: a
/// cacheless caller that needs one fingerprints decomposeLayer's planes.
std::shared_ptr<const LayerSummary> decomposeLayerShared(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts = {},
    LayerRequest request = LayerRequest::Window);

/// Order-sensitive 64-bit digest over all six mask planes and the window
/// box — the byte-identity witness the ECO correctness bar compares
/// (service sessions report it per layer; the fuzz suite equates ECO
/// replays with cold routes through it).
std::uint64_t maskFingerprint(const LayerDecomposition& d);

/// Metal rectangle (nm) of a fragment under the given rules.
Rect fragmentMetalNm(const Fragment& f, const DesignRules& rules);

/// Maximal-rectangle decomposition of a raster region (row slabs merged
/// vertically), returned in nm using the window the raster covers.
std::vector<Rect> rasterToNmRects(const Bitmap& b, const Rect& windowNm);

/// Third-party-metal probe of the merge stage: true when a 10 nm sample
/// of `probeNm` whose center lies in neither `a` nor `b` reads a set pixel
/// of `target`, the raster of `windowNm`. Samples step from the probe's
/// low corner; each reads the pixel its corner maps to, truncating toward
/// zero. Whole sample spans are tested as word-wise Bitmap::anyInRect.
bool thirdPartyMetalInProbe(const Bitmap& target, const Rect& windowNm,
                            const Rect& probeNm, const Rect& a,
                            const Rect& b);

/// Cut-spacing MRC kernel (Fig. 15(b)): pixels of an axis-aligned gap
/// between two consecutive `cut` runs narrower than `minGapPx`, restricted
/// to where the gap crosses `target` metal. An unset pixel whose nearest
/// cut pixels along x or y lie at distances a, b >= 1 is flagged iff
/// a + b <= minGapPx (the gap is a + b - 1 pixels); gaps that touch the
/// raster border are never flagged. Word-parallel on both axes: shifted
/// row words for x, neighbouring row words for y.
Bitmap narrowGapFlags(const Bitmap& cut, const Bitmap& target, int minGapPx);

}  // namespace sadp

// Command-line front end: route a netlist file and emit reports/artwork.
//
//   sadp_route_cli --nets design.nets --width 170 --height 170 [options]
//   sadp_route_cli --batch jobs.list --jobs 4
//
// Options:
//   --nets FILE         netlist in the sadp-netlist text format (required)
//   --width N           grid width in tracks  (required)
//   --height N          grid height in tracks (required)
//   --layers N          routing layers (default 3)
//   --svg PREFIX        write PREFIX<layer>.svg artwork per layer
//   --masks PREFIX      write PREFIX<layer>.masks rectangle files
//   --csv FILE          append a result row as CSV
//   --no-flip           disable color flipping
//   --no-cut-check      disable the windowed cut-conflict check
//   --no-repair         disable the post-pass violation repair
//   --seed-demo N       ignore --nets and generate a demo instance with N
//                       nets on the given grid instead
//                       (grids above 2^24 nodes, width*height*layers, and
//                       more than width*height/2 demo nets are rejected)
//   --backend NAME      patterning backend: sadp2 (the default 2-color SADP
//                       cut process) or tpl3 (triple patterning; emits 3
//                       exposure planes per layer)
//   --timing            timing-driven mode: net-level static timing
//                       (estimated delays, proximity edges) orders nets by
//                       criticality and scales per-net search weights; the
//                       summary and CSV gain worst-slack fields
//   --negotiate         PathFinder negotiated-congestion pre-phase (implies
//                       --timing): nets share cells under present + history
//                       costs until overflow-free, and the history carries
//                       into the main loop as a base penalty field
//   --negotiate-iters N maximum negotiation iterations, 1..10000 (default 16)
//   --history-cost X    history cost added to each overflowed cell per
//                       negotiation iteration, 0..10000 (default 1.0)
//   --trace FILE        write a Chrome trace-event JSON (full span events)
//   --metrics FILE      write a flat run-metrics JSON (counters, histograms,
//                       per-phase wall times)
//
// Batch mode:
//   --batch FILE        route many designs concurrently. Each non-blank,
//                       non-# line of FILE is one job's whitespace-separated
//                       option list (same options as above; --batch/--jobs
//                       forbidden). Every job runs in its own RunContext, so
//                       metrics/trace/CSV outputs are fully isolated and
//                       byte-identical to running the jobs one at a time;
//                       point jobs at distinct output files. Summaries print
//                       in job order; the exit code is the worst job's.
//   --jobs N            concurrent batch jobs (default 1)
#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/benchmark.hpp"
#include "patterning/backend.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/mask_io.hpp"
#include "sadp/svg.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/parse.hpp"

using namespace sadp;

namespace {

struct CliArgs {
  std::string netsFile;
  Track width = 0;
  Track height = 0;
  int layers = 3;
  std::string svgPrefix;
  std::string maskPrefix;
  std::string csvFile;
  std::string traceFile;
  std::string metricsFile;
  int seedDemo = 0;
  RouterOptions router;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: sadp_route_cli --nets FILE --width N --height N\n"
               "       [--layers N] [--svg PREFIX] [--masks PREFIX]\n"
               "       [--csv FILE] [--no-flip] [--no-cut-check]\n"
               "       [--no-repair] [--seed-demo N]\n"
               "       [--backend sadp2|tpl3] [--timing] [--negotiate]\n"
               "       [--negotiate-iters N] [--history-cost X]\n"
               "       [--trace FILE] [--metrics FILE]\n"
               "   or: sadp_route_cli --batch LIST-FILE [--jobs N]\n";
  std::exit(2);
}

/// Strict integer option parse via util/parse.hpp (shared with the service
/// daemon): the whole token must be a base-10 integer that fits an int.
/// atoi's silent truncation ("--jobs 2x" -> 2, "--width 1e9" -> 1) is
/// exactly how a typo'd batch line would corrupt a run, so any trailing
/// garbage is a usage error instead.
int parseIntOpt(const char* opt, const std::string& s) {
  const std::optional<int> v = parseStrictInt(s);
  if (!v) {
    usage((std::string(opt) + " wants an integer, got '" + s + "'").c_str());
  }
  return *v;
}

/// Strict decimal option parse: plain digits with at most one '.', no
/// exponents/hex/inf ("--history-cost 1e9" is a typo, not a billion).
double parseDoubleOpt(const char* opt, const std::string& s) {
  const std::optional<double> v = parseStrictDouble(s);
  if (!v) {
    usage((std::string(opt) + " wants a decimal number, got '" + s + "'")
              .c_str());
  }
  return *v;
}

/// Parses one job's options. `batchFile`/`jobs` are only accepted at the
/// top level (non-null pointers); batch-file lines pass null and get a
/// hard error on nested batch options.
CliArgs parseTokens(const std::vector<std::string>& tokens,
                    std::string* batchFile, int* jobs) {
  CliArgs a;
  const std::size_t n = tokens.size();
  auto value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= n) usage("missing option value");
    return tokens[++i];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& opt = tokens[i];
    if (opt == "--nets") {
      a.netsFile = value(i);
    } else if (opt == "--width") {
      a.width = Track(parseIntOpt("--width", value(i)));
    } else if (opt == "--height") {
      a.height = Track(parseIntOpt("--height", value(i)));
    } else if (opt == "--layers") {
      a.layers = parseIntOpt("--layers", value(i));
    } else if (opt == "--svg") {
      a.svgPrefix = value(i);
    } else if (opt == "--masks") {
      a.maskPrefix = value(i);
    } else if (opt == "--csv") {
      a.csvFile = value(i);
    } else if (opt == "--no-flip") {
      a.router.enableColorFlip = false;
      a.router.finalGlobalFlip = false;
    } else if (opt == "--no-cut-check") {
      a.router.enableCutCheck = false;
    } else if (opt == "--no-repair") {
      a.router.enableRepair = false;
    } else if (opt == "--seed-demo") {
      a.seedDemo = parseIntOpt("--seed-demo", value(i));
    } else if (opt == "--threads") {
      usage("--threads was removed: a run always uses one thread");
    } else if (opt == "--route-jobs") {
      usage("--route-jobs was removed: nets always route sequentially");
    } else if (opt == "--tile-words" || opt == "--schedule") {
      usage((opt + " was removed: decomposition always runs whole-window")
                .c_str());
    } else if (opt == "--backend") {
      const std::string& name = value(i);
      a.router.backend = findPatterningBackend(name);
      if (a.router.backend == nullptr) {
        usage(("unknown --backend '" + name + "' (expected one of: " +
               knownBackendNames() + ")")
                  .c_str());
      }
    } else if (opt == "--timing") {
      a.router.timingDriven = true;
    } else if (opt == "--negotiate") {
      a.router.negotiate = true;
      a.router.timingDriven = true;  // negotiation measures against slack
    } else if (opt == "--negotiate-iters") {
      a.router.maxNegotiateIters =
          parseIntOpt("--negotiate-iters", value(i));
      if (a.router.maxNegotiateIters <= 0 ||
          a.router.maxNegotiateIters > kMaxNegotiateIters) {
        usage(("--negotiate-iters wants a count in 1.." +
               std::to_string(kMaxNegotiateIters))
                  .c_str());
      }
    } else if (opt == "--history-cost") {
      const double v = parseDoubleOpt("--history-cost", value(i));
      if (v < 0.0 || v > kMaxHistoryCost) {
        usage(("--history-cost wants a value in 0.." +
               std::to_string(kMaxHistoryCost))
                  .c_str());
      }
      a.router.historyIncrement = float(v);
    } else if (opt == "--trace") {
      a.traceFile = value(i);
    } else if (opt == "--metrics") {
      a.metricsFile = value(i);
    } else if (opt == "--batch") {
      if (batchFile == nullptr) usage("--batch not allowed inside a batch");
      *batchFile = value(i);
    } else if (opt == "--jobs") {
      if (jobs == nullptr) usage("--jobs not allowed inside a batch");
      *jobs = parseIntOpt("--jobs", value(i));
      if (*jobs <= 0) usage("--jobs wants a positive count");
    } else if (opt == "--help" || opt == "-h") {
      usage();
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (batchFile != nullptr && !batchFile->empty()) return a;  // batch driver
  if (a.width <= 0 || a.height <= 0) usage("--width/--height required");
  if (a.netsFile.empty() && a.seedDemo <= 0) usage("--nets required");
  const std::string sizeError = designSizeError(
      a.width, a.height, a.layers, std::max(a.seedDemo, 0));
  if (!sizeError.empty()) usage(sizeError.c_str());
  return a;
}

/// One job's buffered results: nothing touches shared streams/files except
/// the per-job output paths, so concurrent jobs stay deterministic.
struct RunOutput {
  std::string summary;  ///< the stdout block
  std::string csvRow;   ///< one CSV line (empty when --csv absent)
  int exitCode = 0;
};

/// Routes one design inside its own RunContext. Everything the run
/// measures (metrics, trace, CSV fields except nothing here is timed) is
/// isolated in that context, so concurrent invocations with distinct
/// output paths produce byte-identical files to serial execution.
RunOutput runOne(const CliArgs& args) {
  RunOutput out;
  std::ostringstream os;

  RunContext ctx;
  // Full event capture only when someone will read the trace; the metrics
  // report only needs per-name aggregates.
  if (!args.traceFile.empty()) {
    ctx.setTraceLevel(TraceLevel::Full);
  } else if (!args.metricsFile.empty()) {
    ctx.setTraceLevel(TraceLevel::Aggregate);
  }
  RunContext::Scope bind(ctx);

  Netlist netlist;
  if (args.seedDemo > 0) {
    BenchmarkSpec spec;
    spec.name = "demo";
    spec.netCount = args.seedDemo;
    spec.width = args.width;
    spec.height = args.height;
    spec.layers = args.layers;
    netlist = makeBenchmark(spec).netlist;
  } else {
    std::ifstream f(args.netsFile);
    if (!f) {
      os << "cannot open " << args.netsFile << "\n";
      out.summary = os.str();
      out.exitCode = 1;
      return out;
    }
    netlist = readNetlist(f);
  }

  RoutingGrid grid(args.width, args.height, args.layers, DesignRules{});
  OverlayAwareRouter router(grid, netlist, args.router, &ctx);
  const RoutingStats stats = router.run();
  const OverlayReport report = router.physicalReport();

  os << "nets        " << stats.totalNets << "\n"
     << "routed      " << stats.routedNets << " ("
     << stats.routability() << "%)\n"
     << "wirelength  " << stats.wirelength << " tracks, "
     << stats.vias << " vias, " << stats.ripUps << " rip-ups\n"
     << "overlay     " << report.sideOverlayNm << " nm in "
     << report.sideOverlaySections << " sections ("
     << report.hardOverlays << " hard)\n"
     << "tip overlays " << report.tipOverlays << "\n"
     << "cut conflicts " << report.cutConflicts() << "\n";
  if (stats.timingValid) {
    os << "worst slack " << stats.worstSlack << "\n";
  }
  if (args.router.negotiate) {
    os << "negotiate   " << stats.negotiateIters << " iters, "
       << stats.negotiateOverflow << " overflow\n";
  }

  for (int layer = 0; layer < grid.layers(); ++layer) {
    if (!args.svgPrefix.empty() || !args.maskPrefix.empty()) {
      const LayerDecomposition d = router.decompose(layer);
      if (!args.svgPrefix.empty()) {
        const auto frags = router.coloredFragments(layer);
        writeLayerSvgFile(args.svgPrefix + std::to_string(layer) + ".svg", d,
                          frags, grid.rules());
      }
      if (!args.maskPrefix.empty()) {
        std::ofstream mf(args.maskPrefix + std::to_string(layer) + ".masks");
        writeMasks(mf, d, layer);
      }
    }
  }
  if (!args.csvFile.empty()) out.csvRow = runCsvRow(stats, report) + "\n";
  if (!args.metricsFile.empty()) {
    std::ofstream mf(args.metricsFile);
    writeMetricsJson(
        mf, ctx.metrics(), ctx.trace().aggregates(),
        {{"nets", std::to_string(stats.totalNets)},
         {"routed", std::to_string(stats.routedNets)},
         {"routability", std::to_string(stats.routability())},
         {"wirelength", std::to_string(stats.wirelength)},
         {"vias", std::to_string(stats.vias)},
         {"ripups", std::to_string(stats.ripUps)},
         {"side_overlay_nm", std::to_string(report.sideOverlayNm)},
         {"cut_conflicts", std::to_string(report.cutConflicts())},
         {"hard_overlays", std::to_string(report.hardOverlays)},
         {"threads", "1"}});
    if (!mf) os << "cannot write " << args.metricsFile << "\n";
  }
  if (!args.traceFile.empty()) {
    std::ofstream tf(args.traceFile);
    ctx.trace().writeChromeTrace(tf);
    if (!tf) os << "cannot write " << args.traceFile << "\n";
  }
  out.summary = os.str();
  out.exitCode = runExitCode(report);
  return out;
}

/// Appends a job's CSV row to its --csv file. Called from the main thread
/// only, in job order, so rows land deterministically even when jobs
/// shared one CSV path.
void appendCsv(const CliArgs& args, const RunOutput& out) {
  if (args.csvFile.empty() || out.csvRow.empty()) return;
  std::ofstream cf(args.csvFile, std::ios::app);
  cf << out.csvRow;
}

int runBatch(const std::string& batchFile, int jobs) {
  std::ifstream f(batchFile);
  if (!f) {
    std::cerr << "cannot open " << batchFile << "\n";
    return 1;
  }
  // Parse every line up front (parse errors exit before any work starts).
  std::vector<std::string> lines;
  std::vector<CliArgs> jobArgs;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (tokens.empty() || tokens.front()[0] == '#') continue;
    lines.push_back(line);
    jobArgs.push_back(parseTokens(tokens, nullptr, nullptr));
  }
  if (jobArgs.empty()) {
    std::cerr << "no jobs in " << batchFile << "\n";
    return 1;
  }

  std::vector<RunOutput> results(jobArgs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobArgs.size()) return;
      results[i] = runOne(jobArgs[i]);
    }
  };
  const int threads =
      std::min<std::size_t>(std::size_t(jobs), jobArgs.size());
  std::vector<std::thread> pool;
  pool.reserve(std::size_t(threads));
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  int exitCode = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "=== job " << i << ": " << lines[i] << "\n"
              << results[i].summary;
    appendCsv(jobArgs[i], results[i]);
    exitCode = std::max(exitCode, results[i].exitCode);
  }
  return exitCode;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> tokens(argv + 1, argv + argc);
  std::string batchFile;
  int jobs = 1;
  const CliArgs args = parseTokens(tokens, &batchFile, &jobs);

  if (!batchFile.empty()) return runBatch(batchFile, jobs);

  const RunOutput out = runOne(args);
  std::cout << out.summary;
  appendCsv(args, out);
  return out.exitCode;
}

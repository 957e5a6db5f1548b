// perfbench: one seeded run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --gdlogd PATH --out-dir DIR
//
// Prints a host/build stamp line and then, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans and reports the per-layer ones. Exits 1 when any output
// was wrong, 2 on bad arguments or a build that is not Release.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (failed <= 10) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
  }
}

void AddEndToEnd(Result* result, const std::vector<double>& setup_s,
                 const Samples& primary, const Samples& secondary,
                 uint64_t ops, double elapsed_s, double peak_rss_mb) {
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("primary_p50_ms", Median(primary.ms), "ms");
  result->Add("secondary_p50_ms", Median(secondary.ms), "ms");
  result->Add("throughput_ops",
              elapsed_s > 0 ? static_cast<double>(ops) / elapsed_s : 0.0,
              "1/s");
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void WriteSpans(const Tracer& tracer, const Config& config) {
  const std::string path =
      config.out_dir + "/spans-" + config.workload + ".json";
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

void PrintSamples(const char* label, const Samples& samples) {
  double q = HighestSupportedQuantile(samples.ms.size());
  std::fprintf(stderr, "perfbench: %-18s n=%-6zu p50=%.3f ms iqr=%.1f%%",
               label, samples.ms.size(), Median(samples.ms),
               100 * RelativeSpread(samples.ms));
  if (q > 0) {
    std::fprintf(stderr, "  p%g=%.3f ms", q * 100,
                 Percentile(samples.ms, q));
  }
  std::fprintf(stderr, "\n");
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "chase-strat|chase-unstrat|serve|fleet --seed N --seconds S "
               "--trace 0|1 --gdlogd PATH --out-dir DIR\n",
               error);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing argument value");
    std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--gdlogd") {
      config.gdlogd = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !(config.seconds > 0) || config.out_dir.empty() ||
      config.gdlogd.empty()) {
    Usage("--seed, --seconds, --gdlogd and --out-dir are required");
  }

  // Timings from an unoptimized or assert-enabled build are not results.
  bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  perfbench::Result result;
  if (config.workload == "chase-strat") {
    result = perfbench::RunChaseWorkload(config, /*quarantine=*/false);
  } else if (config.workload == "chase-unstrat") {
    result = perfbench::RunChaseWorkload(config, /*quarantine=*/true);
  } else if (config.workload == "serve") {
    result = perfbench::RunServeWorkload(config);
  } else if (config.workload == "fleet") {
    result = perfbench::RunFleetWorkload(config);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }

  std::printf("# stamp: nproc=%ld compiler=%s build=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct && result.attempted > 0 ? 0 : 1;
}

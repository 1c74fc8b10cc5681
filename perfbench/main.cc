// The repository's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: pprime-tumbling, reach-sliding, sessions-tcp (see README.md).
// With --trace 0 the run reports the end-to-end metrics, with --trace 1
// the per-layer metrics of a traced run. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pprime-tumbling|reach-sliding|sessions-tcp> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

perfbench::RunArgs ParseArgs(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0 || args.seconds > 120) {
        Usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = ParseArgs(argc, argv);
  perfbench::RunResult result;
  if (args.workload == "pprime-tumbling") {
    result = perfbench::RunPprimeTumbling(args);
  } else if (args.workload == "reach-sliding") {
    result = perfbench::RunReachSliding(args);
  } else if (args.workload == "sessions-tcp") {
    result = perfbench::RunSessionsTcp(args);
  } else {
    Usage("unknown --workload");
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no window was attempted\n");
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) perfbench::Fatal(m.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

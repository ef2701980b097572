// kbench: runs one workload of the end-to-end benchmark and prints its
// metrics. The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exits 1 when the oracle finds a wrong answer.
//
//   kbench --workload serve_zipf|long_list|publish_bulk --seed N
//          --seconds S --trace 0|1 [--out DIR]

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/json.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "kbench: %s\nusage: kbench --workload "
               "serve_zipf|long_list|publish_bulk --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. Every set-up rebuilds a network;
  // handing its pages back to the kernel would make the next set-up pay
  // the page faults again, at a cost that follows the host's memory
  // pressure rather than the code.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  kbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  auto workload = kbench::MakeWorkload(opt);
  if (workload == nullptr) return Usage("unknown workload");
  if (opt.seconds < 1) return Usage("--seconds must be at least 1");

  kadop::obs::JsonWriter artifact;
  artifact.BeginObject();
  kbench::WriteProvenance(*workload, artifact);
  artifact.Key("traced");
  artifact.Value(opt.trace);
  std::vector<kbench::Metric> metrics;
  if (opt.trace) {
    metrics = kbench::RunTraced(*workload, artifact);
  } else {
    metrics = kbench::RunEndToEnd(*workload);
    artifact.Key("detail");
    artifact.BeginObject();
    kbench::WriteDetail(*workload, artifact);
    artifact.EndObject();
  }
  const bool correct = workload->oracle.ok();
  artifact.Key("metrics");
  kbench::WriteMetrics(metrics, artifact);
  artifact.Key("correct");
  artifact.Value(correct);
  artifact.EndObject();

  for (const std::string& why : workload->oracle.mismatches) {
    std::fprintf(stderr, "kbench: oracle mismatch: %s\n", why.c_str());
  }
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "_seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "_trace" : "") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(artifact.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("artifact: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "kbench: cannot write %s\n", path.c_str());
    }
  }
  for (const kbench::Metric& m : metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  kadop::obs::JsonWriter result;
  result.BeginObject();
  result.Key("correct");
  result.Value(correct);
  result.Key("attempted");
  result.Value(static_cast<uint64_t>(workload->attempted));
  result.Key("failed");
  result.Value(static_cast<uint64_t>(workload->failed));
  result.Key("metrics");
  kbench::WriteMetrics(metrics, result);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

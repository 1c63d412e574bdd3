// calloc_perfbench — the CALLOC end-to-end benchmark.
//
//   calloc_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <dir>
//
// Prints the workload's measurements by name and unit, then, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exit status: 0 ok, 1 output check failed, 2 usage, 3 run
// invalid (nothing reported).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "calloc_perfbench: %s\nusage: calloc_perfbench --workload "
               "<serve-b3-fp32|serve-fleet-int8|train-b1> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--out") opt.out_dir = val;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (opt.workload.empty() || opt.out_dir.empty())
    return usage("--workload and --out are required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(opt.out_dir);

  std::printf("== %s seed %llu, %.3g s, %s ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "traced" : "untraced");
  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "calloc_perfbench: %s\n", e.what());
    return 2;
  }
  if (!res.invalid.empty()) {
    std::printf("INVALID RUN, not reported: %s\n", res.invalid.c_str());
    return 3;
  }
  const perfbench::Outcomes& o = res.outcomes;
  std::printf("end-to-end:\n%s%s", res.end_to_end.table().c_str(),
              res.printed_only.table().c_str());
  std::printf("  failed_frac = %s fraction (%zu failed of %zu attempted, "
              "%zu mismatched)\n",
              perfbench::json_number(perfbench::failed_frac(o)).c_str(),
              o.failed(), o.attempted, o.mismatched);
  if (opt.trace) std::printf("per-layer:\n%s", res.per_layer.table().c_str());
  if (!res.correct) std::printf("OUTPUT CHECK FAILED\n");

  const std::string line =
      (opt.trace ? res.per_layer : res.end_to_end)
          .json_line(res.correct, o.attempted, o.failed());
  std::ofstream(opt.out_dir + "/result-" + opt.workload + "-seed" +
                std::to_string(opt.seed) + (opt.trace ? "-traced" : "") +
                ".json")
      << line << '\n';
  std::printf("%s\n", line.c_str());
  return res.correct ? 0 : 1;
}

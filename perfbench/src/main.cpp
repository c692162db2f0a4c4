// perfbench — the repository benchmark.
//
//   perfbench --workload <star-solo|scan-burst|star-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--rate <requests/s>]   (star-mixed only)
//
// Prints a host/build fingerprint, one `metric <name> <value> <unit>` line
// per metric, and as its last line the JSON result object (see
// metrics.hpp). Exits 0 when the run completed (the result's "correct"
// field says whether every answer was right), 2 on bad arguments and 1
// when the run itself failed.
#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <star-solo|scan-burst|"
               "star-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--rate <requests/s> (star-mixed)]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0) ||
          o.seconds > 600)
        return usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--rate") {
      o.rate = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.rate > 0) || o.rate > 1e5)
        return usage("bad --rate " + value);
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const char* w : perfbench::kWorkloads) known |= o.workload == w;
  if (!known) return usage("unknown workload " + o.workload);
  if (o.rate > 0 && o.workload != "star-mixed")
    return usage("--rate applies to star-mixed only");

  try {
    perfbench::Outcome out;
    perfbench::run_workload(o, out);
    std::cout << "fingerprint " << perfbench::fingerprint(out.meter_source)
              << "\n";
    out.metrics.set("failed_frac",
                    out.attempted ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0,
                    "ratio");
    const std::string result =
        o.trace ? out.metrics.result_json(perfbench::kPerLayer, out.correct,
                                          out.attempted, out.failed)
                : out.metrics.result_json(perfbench::kEndToEnd, out.correct,
                                          out.attempted, out.failed);
    std::cout << result << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

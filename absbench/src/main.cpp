// absbench — the repository benchmark's binary. Runs one workload
// and writes its Result as JSON; absbench/run.py builds it, calls it and
// prints the result line.
//
//   absbench --workload dense-tts|sparse-tts --seed N
//            --seconds S --trace 0|1 --workdir DIR --out FILE
//            [--trace-out FILE] [--smoke] [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: absbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR --out FILE [--trace-out FILE] "
               "[--smoke] [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  absbench::Options options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--workdir") {
        options.workdir = value();
      } else if (arg == "--out") {
        out_path = value();
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--corrupt") {
        options.corrupt = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "absbench: %s\n", e.what());
      return usage();
    }
  }
  if (options.workload.empty() || out_path.empty() ||
      options.workdir.empty() || options.seconds <= 0.0) {
    return usage();
  }

  absbench::Result result;
  result.fact("workload", options.workload);
  result.fact("seed", static_cast<double>(options.seed));
  result.fact("trace", options.trace ? 1.0 : 0.0);
  result.fact("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result.fact("compiler", ABSBENCH_COMPILER);
  result.fact("cxx_flags", ABSBENCH_CXX_FLAGS);
  result.fact("build_type", ABSBENCH_BUILD_TYPE);
  try {
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "dense-tts" || options.workload == "sparse-tts") {
      absbench::run_solve_workload(options, result);
    } else {
      std::fprintf(stderr, "absbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "absbench: %s\n", e.what());
    return 1;
  }

  std::ofstream out(out_path, std::ios::trunc);
  result.write_json(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "absbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return result.correct() ? 0 : 3;
}

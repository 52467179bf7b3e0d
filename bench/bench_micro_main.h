// Shared main() for the google-benchmark micro benches: identical to
// BENCHMARK_MAIN(), plus routing the library's native JSON reporter at
// the same results directory the macro benches' JsonResult uses
// (the git-ignored bench/fresh/ or $RAILGUN_BENCH_RESULTS_DIR), so every
// bench_* binary leaves one machine-readable <name>.json behind without
// touching the checked-in baselines under bench/results/.
#ifndef RAILGUN_BENCH_BENCH_MICRO_MAIN_H_
#define RAILGUN_BENCH_BENCH_MICRO_MAIN_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"

#define RAILGUN_BENCH_MICRO_MAIN(bench_name)                                 \
  int main(int argc, char** argv) {                                          \
    const char* override_dir = getenv("RAILGUN_BENCH_RESULTS_DIR");          \
    const std::string dir =                                                  \
        override_dir != nullptr ? override_dir : "bench/fresh";              \
    std::string out_flag;                                                    \
    std::string fmt_flag = "--benchmark_out_format=json";                    \
    std::vector<char*> args;                                                 \
    args.push_back(argv[0]);                                                 \
    /* Our defaults go right after argv[0]: the library's flag parsing   */  \
    /* is last-wins, so explicit command-line choices still override.    */  \
    if (railgun::Env::Default()->CreateDir(dir).ok()) {                      \
      out_flag = "--benchmark_out=" +                                        \
                 railgun::JoinPath(dir, std::string(bench_name) + ".json");  \
      args.push_back(out_flag.data());                                       \
      args.push_back(fmt_flag.data());                                       \
    }                                                                        \
    for (int i = 1; i < argc; ++i) args.push_back(argv[i]);                  \
    int args_count = static_cast<int>(args.size());                          \
    ::benchmark::Initialize(&args_count, args.data());                       \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    return 0;                                                                \
  }

#endif  // RAILGUN_BENCH_BENCH_MICRO_MAIN_H_

// Experiment T3.1 (DESIGN.md): Theorem 3.1 — the arrangement A(S) of n
// hyperplanes in R^d is computable in polynomial time, with O(n^d) faces.
// The benchmark sweeps n for d in {1, 2, 3} and reports wall time, face
// counts, three-way splits and closure generators (the build solves no
// LP); the paper's claim shows as (a) polynomial
// growth of time with a log-log slope near d+1 or below and (b) face
// counts matching the O(n^d) combinatorics.

#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "arrangement/arrangement.h"
#include "db/workloads.h"

namespace {

void BM_ArrangementBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  auto planes = lcdb::RandomHyperplanes(n, d, 6, /*seed=*/17 * n + d);
  size_t faces = 0, splits = 0, generators = 0;
  for (auto _ : state) {
    lcdb::Arrangement arr = lcdb::Arrangement::Build(planes, d);
    faces = arr.num_faces();
    splits = arr.splits();
    generators = arr.generators();
    benchmark::DoNotOptimize(arr.num_faces());
  }
  state.counters["faces"] = static_cast<double>(faces);
  state.counters["splits"] = static_cast<double>(splits);
  state.counters["generators"] = static_cast<double>(generators);
  state.counters["n"] = static_cast<double>(n);
  state.counters["d"] = static_cast<double>(d);
}

// d = 1: faces are 2n + 1; time ~ n^2 (each insertion scans all faces).
BENCHMARK(BM_ArrangementBuild)
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Unit(benchmark::kMillisecond);
// d = 2: faces Theta(n^2).
BENCHMARK(BM_ArrangementBuild)
    ->Args({4, 2})
    ->Args({8, 2})
    ->Args({12, 2})
    ->Args({16, 2})
    ->Args({20, 2})
    ->Unit(benchmark::kMillisecond);
// d = 3: faces Theta(n^3).
BENCHMARK(BM_ArrangementBuild)
    ->Args({3, 3})
    ->Args({5, 3})
    ->Args({7, 3})
    ->Args({9, 3})
    ->Unit(benchmark::kMillisecond);

/// The same sweep as a printed series with growth exponents, so the
/// polynomial *shape* of Theorem 3.1 is visible directly in the output.
void PrintFaceGrowthTable() {
  std::printf("\nT3.1: face counts / O(n^d) check (random hyperplanes)\n");
  std::printf("%4s %4s %10s %8s %11s %22s\n", "d", "n", "faces", "splits",
              "generators", "faces growth exponent");
  for (size_t d : {1u, 2u}) {
    double prev_faces = 0, prev_n = 0;
    for (size_t n : {4u, 8u, 16u, 32u}) {
      auto planes = lcdb::RandomHyperplanes(n, d, 6, 17 * n + d);
      lcdb::Arrangement arr = lcdb::Arrangement::Build(planes, d);
      double exponent = 0;
      if (prev_faces > 0) {
        exponent = (std::log(static_cast<double>(arr.num_faces())) -
                    std::log(prev_faces)) /
                   (std::log(static_cast<double>(n)) - std::log(prev_n));
      }
      std::printf("%4zu %4zu %10zu %8zu %11zu %22.2f\n", d, n,
                  arr.num_faces(), arr.splits(), arr.generators(), exponent);
      prev_faces = static_cast<double>(arr.num_faces());
      prev_n = static_cast<double>(n);
    }
  }
  std::printf("(exponent should approach d; the paper's bound is O(n^d))\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintFaceGrowthTable();
  return 0;
}

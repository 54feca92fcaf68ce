// Checkpoint-path microbenchmarks: what a durable snapshot costs per write
// (serialize + CRC seal + atomic rename + fsync) and how the pieces split.
// The numbers justify the default --checkpoint-interval-sec: even the full
// durable write is far below one ILP probe, so checkpointing after every
// completed bound is effectively free, and the throttle only matters for
// very fast bisection iterations.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/checkpoint.hpp"
#include "core/solution.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"

namespace {

using namespace sparcs;

/// A checkpoint shaped like a realistic mid-sweep snapshot: `tasks`-task
/// design, a handful of completed stages, one in-progress bisection.
core::SweepCheckpoint synthetic_checkpoint(int tasks) {
  core::PartitionedDesign design;
  design.num_partitions_allocated = 8;
  design.num_partitions_used = 8;
  for (int t = 0; t < tasks; ++t) {
    design.assignment.push_back(core::TaskAssignment{t % 8 + 1, t % 3});
  }
  design.total_latency_ns = 3030.0;

  core::SweepCheckpoint cp;
  cp.next_n = 9;
  cp.achieved_latency = 3030.0;
  cp.best_num_partitions = 8;
  cp.ilp_solves = 42;
  cp.seconds = 123.5;
  cp.best = design;
  for (int n = 5; n < 9; ++n) {
    cp.stages.push_back(core::StageAccount{n, core::StageStatus::kProbed,
                                           n, 2.5 * n});
  }
  cp.in_progress = core::BisectionWindow{4000.0, 2800.0, 3, design};
  return cp;
}

void BM_SerializeCheckpoint(benchmark::State& state) {
  const core::SweepCheckpoint cp =
      synthetic_checkpoint(static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = core::serialize_checkpoint(cp, 0x12345678u);
    bytes = doc.size();
    benchmark::DoNotOptimize(doc.data());
  }
  state.counters["doc_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeCheckpoint)->Arg(32)->Arg(256)->Arg(1024);

void BM_Crc32(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(atomicfile::crc32(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_SealUnsealRoundtrip(benchmark::State& state) {
  const std::string doc = core::serialize_checkpoint(
      synthetic_checkpoint(static_cast<int>(state.range(0))), 0x12345678u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(atomicfile::unseal_json_with_crc(doc));
  }
}
BENCHMARK(BM_SealUnsealRoundtrip)->Arg(32)->Arg(1024);

void BM_ParseCheckpointDocument(benchmark::State& state) {
  const std::string doc = core::serialize_checkpoint(
      synthetic_checkpoint(static_cast<int>(state.range(0))), 0x12345678u);
  const std::string body = *atomicfile::unseal_json_with_crc(doc);
  for (auto _ : state) {
    const json::ParseResult r = json::parse(body);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_ParseCheckpointDocument)->Arg(32)->Arg(1024);

/// The full durable write: serialize, seal, temp file, fsync, rename,
/// directory fsync. This is the real per-checkpoint cost the sweep pays.
void BM_DurableWrite(benchmark::State& state) {
  const core::SweepCheckpoint cp =
      synthetic_checkpoint(static_cast<int>(state.range(0)));
  const std::string path = "/tmp/sparcs_bench_checkpoint.json";
  core::CheckpointWriter writer(path, /*min_interval_sec=*/0.0, 0x12345678u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.write(cp, /*force=*/true));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_DurableWrite)->Arg(32)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();

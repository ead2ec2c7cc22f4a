// Backend matrix: the same WGS pipeline submitted to every execution
// backend (inprocess / spill / distributed), reporting per-backend wall
// time and shuffle traffic and verifying the VCF outputs are
// bit-identical.  Exit code 2 if any backend disagrees with inprocess.
//
//   bench_backend_matrix [--json[=path]] [--store-budget BYTES]
//       [--workers N]
//
// --json writes a machine-readable report (default
// BENCH_backend_matrix.json) for the CI backend-matrix gate, including
// the records every backend shuffled and the aligned record count, so CI
// can bound how many times the pipeline moves each record.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "exec/backend_factory.hpp"
#include "exec/spilling_backend.hpp"
#include "formats/vcf.hpp"

namespace {

using namespace gpf;

struct BackendRun {
  std::string name;
  double wall_seconds = 0.0;
  std::string vcf;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t shuffle_records = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_spilled = 0;
  std::uint64_t lineage_recoveries = 0;
  std::uint64_t residency_evictions = 0;
  bool matches_inprocess = false;
};

BackendRun run_backend(exec::BackendSpec spec, exec::BackendKind kind,
                       const simdata::Workload& w,
                       const std::vector<VcfRecord>& known,
                       const core::PipelineConfig& config) {
  spec.kind = kind;
  BackendRun run;
  run.name = exec::backend_kind_name(kind);
  const std::unique_ptr<core::ExecutionBackend> backend =
      exec::make_backend(spec);
  Timer timer;
  const core::WgsResult result =
      core::run_wgs_pipeline(*backend, w.reference, w.sample.pairs, known,
                             config);
  run.wall_seconds = timer.seconds();
  for (const auto& t : result.report.timings) {
    run.shuffle_bytes += t.shuffle_write_bytes;
    run.shuffle_records += t.shuffle_records;
    run.bytes_put += t.backend.bytes_put;
    run.bytes_spilled += t.backend.bytes_spilled;
    run.lineage_recoveries += t.backend.lineage_recoveries;
    run.residency_evictions += t.backend.residency_evictions;
  }
  VcfHeader header;
  for (const auto& c : w.reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  run.vcf = write_vcf(header, result.variants);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  exec::BackendSpec spec;
  spec.worker_binary = GPF_WORKER_BIN;
  try {
    exec::consume_backend_flags(argc, argv, spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json_path = "BENCH_backend_matrix.json";
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  bench::banner("Execution backend matrix",
                "plan/backend split: identical plan, three physical homes");

  bench::WorkloadPreset preset = bench::WorkloadPreset::wgs();
  preset.genome_length = 120'000;
  preset.coverage = 10.0;
  const simdata::Workload w = bench::build_workload(preset);
  std::vector<VcfRecord> known;
  for (std::size_t i = 0; i < w.truth.size(); i += 2) {
    known.push_back(w.truth[i]);
  }
  core::PipelineConfig config;
  config.partition_length = 15'000;

  const exec::BackendKind kinds[] = {exec::BackendKind::kInProcess,
                                     exec::BackendKind::kSpill,
                                     exec::BackendKind::kDistributed};
  std::vector<BackendRun> runs;
  for (const exec::BackendKind kind : kinds) {
    runs.push_back(run_backend(spec, kind, w, known, config));
  }

  std::printf("%-12s %8s %14s %12s %12s %10s\n", "backend", "wall",
              "shuffle B", "moved B", "spilled B", "identical");
  bool all_match = true;
  for (BackendRun& run : runs) {
    run.matches_inprocess = run.vcf == runs.front().vcf;
    all_match = all_match && run.matches_inprocess;
    std::printf("%-12s %7.2fs %14llu %12llu %12llu %10s\n", run.name.c_str(),
                run.wall_seconds,
                static_cast<unsigned long long>(run.shuffle_bytes),
                static_cast<unsigned long long>(run.bytes_put),
                static_cast<unsigned long long>(run.bytes_spilled),
                run.matches_inprocess ? "yes" : "MISMATCH");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    char buf[384];
    out << "{\n  \"aligned_records\": " << 2 * w.sample.pairs.size()
        << ",\n  \"backends\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const BackendRun& r = runs[i];
      std::snprintf(
          buf, sizeof buf,
          "    {\"name\": \"%s\", \"wall_seconds\": %.3f, "
          "\"shuffle_bytes\": %llu, \"shuffle_records\": %llu, "
          "\"bytes_put\": %llu, "
          "\"bytes_spilled\": %llu, \"lineage_recoveries\": %llu, "
          "\"residency_evictions\": %llu, \"outputs_match\": %s}%s\n",
          r.name.c_str(), r.wall_seconds,
          static_cast<unsigned long long>(r.shuffle_bytes),
          static_cast<unsigned long long>(r.shuffle_records),
          static_cast<unsigned long long>(r.bytes_put),
          static_cast<unsigned long long>(r.bytes_spilled),
          static_cast<unsigned long long>(r.lineage_recoveries),
          static_cast<unsigned long long>(r.residency_evictions),
          r.matches_inprocess ? "true" : "false",
          i + 1 < runs.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_match ? 0 : 2;
}

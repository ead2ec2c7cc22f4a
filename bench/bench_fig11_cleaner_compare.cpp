// Fig 11 (a)-(c): strong-scaling comparison of the Cleaner-stage
// algorithms — GPF vs ADAM vs GATK4 (vs Persona for duplicate marking) —
// on 128..1024 cores.
//
// Paper's headline ratios (NA12878, equivalent implementations):
//   Mark Duplicate:    GPF 7.3x over ADAM, 6.3x over GATK4, ~10x Persona
//   BQSR:              GPF 6.4x over ADAM, 8.4x over GATK4
//   INDEL realignment: GPF 7.6x over ADAM
//
// Every engine here runs the same algorithm kernels; the gaps come from
// the baseline execution patterns (per-stage format conversion, generic
// serialization, re-partitioning, object churn) that GPF eliminates.
#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "baselines/adamlike.hpp"
#include "baselines/personalike.hpp"
#include "bench_common.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "core/partition_info.hpp"
#include "core/processes.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/trace.hpp"

using namespace gpf;

namespace {

constexpr std::size_t kCores[] = {128, 256, 512, 1024};

sim::SimJob scaled(const engine::EngineMetrics& metrics, double scale) {
  sim::TraceOptions options;
  options.bytes_scale = scale;
  sim::SimJob job = sim::trace_job(metrics, options);
  job = sim::replicate_tasks(job, 256);
  return sim::scale_job(job, scale / 256.0, 1.0 / 256.0);
}

void print_rows(const char* title,
                const std::vector<std::pair<std::string, sim::SimJob>>& jobs) {
  std::printf("%s\n%-8s", title, "cores");
  for (const auto& [name, job] : jobs) std::printf(" %14s", name.c_str());
  std::printf("\n");
  for (const std::size_t cores : kCores) {
    std::printf("%-8zu", cores);
    for (const auto& [name, job] : jobs) {
      const auto cluster = sim::ClusterConfig::with_cores(cores);
      std::printf(" %13.0fs", sim::simulate(job, cluster).makespan);
    }
    std::printf("\n");
  }
  // Speedup of the first column (GPF) over each other at 512 cores.
  const auto cluster = sim::ClusterConfig::with_cores(512);
  const double gpf = sim::simulate(jobs[0].second, cluster).makespan;
  std::printf("GPF speedup at 512 cores:");
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    std::printf("  %.1fx vs %s",
                sim::simulate(jobs[i].second, cluster).makespan / gpf,
                jobs[i].first.c_str());
  }
  std::printf("\n\n");
}

/// GPF's standalone cleaner stages: region bundles built once with GPF
/// codecs, algorithm applied over bundles.
engine::Dataset<core::RegionBundle> gpf_bundles(
    core::PipelineContext& ctx, const std::vector<SamRecord>& sam,
    const std::vector<VcfRecord>& known, const core::PartitionInfo& info) {
  auto sam_ds = ctx.engine()
                    .parallelize(sam, 8)
                    .with_codec(core::make_sam_codec(Codec::kGpf));
  auto vcf_ds = ctx.engine()
                    .parallelize(known, 2)
                    .with_codec(core::make_vcf_codec(Codec::kGpf));
  return core::build_region_bundles(ctx, sam_ds, vcf_ds, info, "gpf");
}

}  // namespace

int main() {
  bench::banner("Fig 11 (a)-(c) — Cleaner-stage comparison vs ADAM / "
                "GATK4 / Persona",
                "Fig 11 (Sec 5.2.2, 5.2.3)");
  auto preset = bench::WorkloadPreset::wgs();
  preset.coverage = 8.0;
  auto workload = bench::build_workload(preset);
  const double scale = bench::platinum_scale(workload);

  std::printf("aligning %zu pairs once (shared input)...\n\n",
              workload.sample.pairs.size());
  const align::FmIndex index(workload.reference);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> sam;
  for (const auto& p : workload.sample.pairs) {
    auto [r1, r2] = aligner.align_pair(p);
    sam.push_back(std::move(r1));
    sam.push_back(std::move(r2));
  }

  core::PipelineConfig config;
  config.partition_length = 15'000;

  // ---------------- (a) Mark Duplicate ---------------------------------
  std::vector<std::pair<std::string, sim::SimJob>> markdup_jobs;
  {
    engine::Engine e;  // GPF: the routine MarkDuplicateProcess runs
    core::PipelineContext ctx(e, workload.reference, config);
    cleaner::MarkDuplicatesStats stats;
    core::mark_duplicates(ctx, e.parallelize(sam, 8), "gpf.markdup", stats);
    markdup_jobs.emplace_back("GPF", scaled(e.metrics(), scale));
  }
  {
    engine::Engine e;  // ADAM
    baselines::baseline_mark_duplicates(
        e, e.parallelize(sam, 8), baselines::FrameworkProfile::adam());
    markdup_jobs.emplace_back("ADAM", scaled(e.metrics(), scale));
  }
  {
    engine::Engine e;  // GATK4
    baselines::baseline_mark_duplicates(
        e, e.parallelize(sam, 8), baselines::FrameworkProfile::gatk4());
    markdup_jobs.emplace_back("GATK4", scaled(e.metrics(), scale));
  }
  {
    engine::Engine e;  // Persona
    baselines::persona_mark_duplicates(e, e.parallelize(sam, 8));
    markdup_jobs.emplace_back("Persona", scaled(e.metrics(), scale));
  }
  print_rows("(a) Mark Duplicate time (seconds)", markdup_jobs);

  // ---------------- (b) BQSR -------------------------------------------
  std::vector<std::pair<std::string, sim::SimJob>> bqsr_jobs;
  {
    engine::Engine e;  // GPF
    core::PipelineContext ctx(e, workload.reference, config);
    const core::PartitionInfo info(ctx.contig_infos(),
                                   config.partition_length);
    auto bundles = gpf_bundles(ctx, sam, workload.truth, info);
    auto tables = bundles.map(
        "gpf.bqsr.collect", [&workload](const core::RegionBundle& b) {
          const cleaner::KnownSites known(b.known);
          return collect_covariates(b.sam, workload.reference, known);
        });
    cleaner::RecalTable merged;
    for (const auto& part : tables.partitions()) {
      for (const auto& t : part) merged.merge(t);
    }
    bundles.map("gpf.bqsr.apply", [&merged](const core::RegionBundle& in) {
      core::RegionBundle b = in;
      cleaner::apply_recalibration(b.sam, merged);
      return b;
    });
    bqsr_jobs.emplace_back("GPF", scaled(e.metrics(), scale));
  }
  {
    engine::Engine e;  // ADAM
    baselines::baseline_bqsr(e, e.parallelize(sam, 8), workload.reference,
                             workload.truth,
                             baselines::FrameworkProfile::adam());
    bqsr_jobs.emplace_back("ADAM", scaled(e.metrics(), scale));
  }
  {
    engine::Engine e;  // GATK4
    baselines::baseline_bqsr(e, e.parallelize(sam, 8), workload.reference,
                             workload.truth,
                             baselines::FrameworkProfile::gatk4());
    bqsr_jobs.emplace_back("GATK4", scaled(e.metrics(), scale));
  }
  print_rows("(b) Base Recalibration time (seconds)", bqsr_jobs);

  // ---------------- (c) INDEL realignment -------------------------------
  std::vector<std::pair<std::string, sim::SimJob>> indel_jobs;
  {
    engine::Engine e;  // GPF
    core::PipelineContext ctx(e, workload.reference, config);
    const core::PartitionInfo info(ctx.contig_infos(),
                                   config.partition_length);
    auto bundles = gpf_bundles(ctx, sam, workload.truth, info);
    bundles.map("gpf.indel.realign", [&workload](const core::RegionBundle& in) {
      core::RegionBundle b = in;
      const cleaner::RealignOptions options;
      const auto targets =
          cleaner::find_realign_targets(b.sam, b.known, options);
      cleaner::realign_reads(b.sam, workload.reference, targets, options);
      return b;
    });
    indel_jobs.emplace_back("GPF", scaled(e.metrics(), scale));
  }
  {
    engine::Engine e;  // ADAM
    baselines::baseline_indel_realign(e, e.parallelize(sam, 8),
                                      workload.reference, workload.truth,
                                      baselines::FrameworkProfile::adam());
    indel_jobs.emplace_back("ADAM", scaled(e.metrics(), scale));
  }
  print_rows("(c) INDEL Realignment time (seconds)", indel_jobs);

  std::printf("paper: GPF over ADAM — markdup 7.3x, BQSR 6.4x, indel 7.6x; "
              "over GATK4 — markdup 6.3x, BQSR 8.4x; markdup ~10x over "
              "Persona.\n");
  return 0;
}

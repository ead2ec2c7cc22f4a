// gpf_tool: a command-line toolkit over the library — simulate data,
// align reads, call variants, or run the whole GPF pipeline on real
// files.  The file-facing twin of the in-memory examples.
//
//   gpf_tool simulate <out_prefix> [genome_kb=100] [coverage=15]
//       writes <p>_ref.fa <p>_1.fastq <p>_2.fastq <p>_truth.vcf
//   gpf_tool align <ref.fa> <r1.fastq> <r2.fastq> <out.gpc|out.sam>
//   gpf_tool call <ref.fa> <in.gpc|in.sam> <out.vcf> [--gvcf]
//   gpf_tool pipeline <ref.fa> <r1.fastq> <r2.fastq> <known.vcf> <out.vcf>
//       [--backend {inprocess,spill,distributed}] [--store-budget BYTES]
//       [--workers N]
//       runs on the chosen execution backend and prints the final
//       partition count (after the read-count split) and a per-Process
//       table of wall time, shuffle traffic and backend residency work
//   gpf_tool trace <ref.fa> <r1.fastq> <r2.fastq> <known.vcf> <out.json>
//       [sim_cores=2048]
//       runs the pipeline with tracing on and writes a Chrome trace_event
//       JSON combining the measured engine timeline (pid 0) with a
//       simulated-cluster replay of the run (pid 1); open the file in
//       chrome://tracing or https://ui.perfetto.dev
//   gpf_tool view <in.gpc|in.sam>
//
// A .gpc file is a checksummed chunk (store/sam_chunk); any other name is
// SAM text.
//
// A numeric argument that is empty, has trailing junk, is not positive
// (--store-budget may be 0) or is out of range (--workers at most 256),
// or a backend flag value with a sign, exits with status 2 and a
// "gpf_tool: bad ..." message, as does an unknown --backend.  A
// missing, malformed, torn or damaged input file exits with status 1 and a
// "gpf_tool: <reason>" message.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "caller/gvcf.hpp"
#include "caller/haplotype_caller.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "common/trace.hpp"
#include "core/file_io.hpp"
#include "core/wgs_pipeline.hpp"
#include "exec/backend_factory.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/trace.hpp"
#include "simdata/read_sim.hpp"
#include "store/sam_chunk.hpp"

using namespace gpf;

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

VcfHeader vcf_header_for(const Reference& reference) {
  VcfHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  return header;
}

SamHeader sam_header_for(const Reference& reference) {
  SamHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  return header;
}

/// Parses all of `text` as a number of type T with 0 < value <= max;
/// prints a "gpf_tool: bad <what>" message and returns false on empty
/// input, trailing junk, or a value out of that range.
template <typename T>
bool parse_positive(const char* text, const char* what, T max, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // !(value > 0) also rejects a NaN coverage.
  if (ec != std::errc() || ptr != end || !(value > 0) || value > max) {
    std::fprintf(stderr, "gpf_tool: bad %s '%s' (want 0 < %s <= %.0f)\n",
                 what, text, what, static_cast<double>(max));
    return false;
  }
  out = value;
  return true;
}

SamFile load_alignments(const std::string& path) {
  return ends_with(path, ".gpc") ? store::load_sam_chunk(path)
                                 : core::load_sam_file(path);
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: gpf_tool simulate <prefix> [kb] [cov]\n");
    return 2;
  }
  const std::string prefix = argv[0];
  std::int64_t kb = 100;
  double coverage = 15.0;
  if (argc > 1 &&
      !parse_positive<std::int64_t>(argv[1], "genome_kb", 1'000'000, kb)) {
    return 2;
  }
  if (argc > 2 && !parse_positive(argv[2], "coverage", 1000.0, coverage)) {
    return 2;
  }
  simdata::ReadSimSpec spec;
  spec.coverage = coverage;
  spec.seed = 20260705;
  const auto w = simdata::make_workload(kb * 1000, 2, spec);
  core::save_fasta_file(prefix + "_ref.fa", w.reference);
  core::save_fastq_pair_files(prefix + "_1.fastq", prefix + "_2.fastq",
                              w.sample.pairs);
  core::save_vcf_file(prefix + "_truth.vcf", vcf_header_for(w.reference),
                      w.truth);
  std::printf("wrote %s_ref.fa (%zu bases), %zu read pairs, %zu truth "
              "variants\n",
              prefix.c_str(),
              static_cast<std::size_t>(w.reference.total_length()),
              w.sample.pairs.size(), w.truth.size());
  return 0;
}

int cmd_align(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: gpf_tool align <ref.fa> <r1> <r2> <out.gpc>\n");
    return 2;
  }
  const Reference reference = core::load_fasta_file(argv[0]);
  const auto pairs = core::load_fastq_pair_files(argv[1], argv[2]);
  std::printf("aligning %zu pairs against %zu contigs...\n", pairs.size(),
              reference.contig_count());
  const align::FmIndex index(reference);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  aligner.align_pairs(pairs, records);
  cleaner::coordinate_sort(records);
  SamHeader header = sam_header_for(reference);
  header.coordinate_sorted = true;
  const std::string out = argv[3];
  if (ends_with(out, ".gpc")) {
    store::save_sam_chunk(out, header, records);
  } else {
    core::save_sam_file(out, header, records);
  }
  std::size_t mapped = 0;
  for (const auto& r : records) {
    if (!r.is_unmapped()) ++mapped;
  }
  if (records.empty()) {
    std::printf("wrote %s: 0 records\n", out.c_str());
    return 0;
  }
  std::printf("wrote %s: %zu records, %.1f%% mapped\n", out.c_str(),
              records.size(),
              100.0 * static_cast<double>(mapped) /
                  static_cast<double>(records.size()));
  return 0;
}

int cmd_call(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: gpf_tool call <ref.fa> <in.gpc> <out.vcf> "
                 "[--gvcf]\n");
    return 2;
  }
  const bool gvcf = argc > 3 && std::strcmp(argv[3], "--gvcf") == 0;
  const Reference reference = core::load_fasta_file(argv[0]);
  SamFile input = load_alignments(argv[1]);
  cleaner::coordinate_sort(input.records);
  const auto dup_stats = cleaner::mark_duplicates(input.records);
  caller::CallStats stats;
  const auto variants =
      caller::call_variants(input.records, reference, {}, &stats);
  std::printf("%zu records (%zu duplicates), %zu active regions, "
              "%zu variants\n",
              input.records.size(), dup_stats.duplicates_marked,
              stats.regions, variants.size());
  VcfHeader header = vcf_header_for(reference);
  if (gvcf) {
    const auto blocks =
        caller::reference_blocks(input.records, variants, reference);
    core::write_file(argv[2],
                     caller::write_gvcf(header, variants, blocks, reference));
    std::printf("wrote gVCF %s (%zu variant rows, %zu ref blocks)\n",
                argv[2], variants.size(), blocks.size());
  } else {
    core::save_vcf_file(argv[2], header, variants);
    std::printf("wrote VCF %s\n", argv[2]);
  }
  return 0;
}

// Per-Process shuffle/backend accounting from the run report, the
// human-readable face of PipelineReport::ProcessTiming.
void print_process_table(const core::PipelineReport& report) {
  std::printf("\nbackend: %s\n", report.backend.c_str());
  std::printf("%-22s %8s %6s %7s %7s %7s %10s %10s %9s %9s %8s %13s\n",
              "process", "wall", "stages", "p50ms", "p95ms", "p99ms",
              "shuffle_w", "shuffle_r", "records", "spilled", "lineage",
              "res h/m/e");
  std::uint64_t shuffle_w = 0, shuffle_r = 0, spilled = 0;
  for (const auto& t : report.timings) {
    shuffle_w += t.shuffle_write_bytes;
    shuffle_r += t.shuffle_read_bytes;
    spilled += t.backend.bytes_spilled;
    std::printf("%-22s %7.2fs %6zu %7.2f %7.2f %7.2f %10llu %10llu %9llu "
                "%9llu %8llu %4llu/%llu/%llu\n",
                t.name.c_str(), t.wall_seconds, t.engine_stages, t.task_p50_ms,
                t.task_p95_ms, t.task_p99_ms,
                static_cast<unsigned long long>(t.shuffle_write_bytes),
                static_cast<unsigned long long>(t.shuffle_read_bytes),
                static_cast<unsigned long long>(t.shuffle_records),
                static_cast<unsigned long long>(t.backend.bytes_spilled),
                static_cast<unsigned long long>(
                    t.backend.lineage_recoveries),
                static_cast<unsigned long long>(t.backend.residency_hits),
                static_cast<unsigned long long>(t.backend.residency_misses),
                static_cast<unsigned long long>(
                    t.backend.residency_evictions));
  }
  std::printf("%-22s %40s %10llu %10llu %19llu\n", "total", "",
              static_cast<unsigned long long>(shuffle_w),
              static_cast<unsigned long long>(shuffle_r),
              static_cast<unsigned long long>(spilled));
}

int cmd_pipeline(int argc, char** argv, const exec::BackendSpec& spec) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: gpf_tool pipeline <ref.fa> <r1> <r2> <known.vcf> "
                 "<out.vcf> [--backend B] [--store-budget N] [--workers N]\n");
    return 2;
  }
  const Reference reference = core::load_fasta_file(argv[0]);
  auto pairs = core::load_fastq_pair_files(argv[1], argv[2]);
  auto known = core::load_vcf_file(argv[3]);
  const std::unique_ptr<core::ExecutionBackend> backend =
      exec::make_backend(spec);
  core::PipelineConfig config;
  config.partition_length =
      std::max<std::int64_t>(10'000, static_cast<std::int64_t>(
                                         reference.total_length() / 16));
  const auto result = core::run_wgs_pipeline(
      *backend, reference, std::move(pairs), std::move(known.records),
      config);
  core::save_vcf_file(argv[4], vcf_header_for(reference), result.variants);
  std::printf("pipeline done: %zu variants -> %s (%zu duplicates marked, "
              "%zu engine stages, %zu final partitions)\n",
              result.variants.size(), argv[4],
              result.markdup_stats.duplicates_marked,
              backend->engine().metrics().stage_count(),
              result.final_partitions);
  print_process_table(result.report);
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: gpf_tool trace <ref.fa> <r1> <r2> <known.vcf> "
                 "<out_trace.json> [sim_cores=2048]\n");
    return 2;
  }
  std::size_t sim_cores = 2048;
  if (argc > 5 &&
      !parse_positive<std::size_t>(argv[5], "sim_cores", 1'000'000,
                                   sim_cores)) {
    return 2;
  }
  const Reference reference = core::load_fasta_file(argv[0]);
  auto pairs = core::load_fastq_pair_files(argv[1], argv[2]);
  auto known = core::load_vcf_file(argv[3]);
  engine::Engine engine;
  core::PipelineConfig config;
  config.partition_length =
      std::max<std::int64_t>(10'000, static_cast<std::int64_t>(
                                         reference.total_length() / 16));

  auto& recorder = trace::TraceRecorder::global();
  recorder.clear();
  recorder.enable();
  const auto result = core::run_wgs_pipeline(
      engine, reference, std::move(pairs), std::move(known.records), config);
  recorder.disable();
  std::vector<trace::Span> spans = recorder.drain();

  // Replay the measured trace on a virtual cluster; its virtual-time
  // timeline rides alongside the measured one as pid 1.
  const sim::SimJob job = sim::trace_job(engine.metrics(), {});
  const auto cluster = sim::ClusterConfig::with_cores(sim_cores);
  auto sim_spans = sim::simulate_to_spans(job, cluster);
  spans.insert(spans.end(), std::make_move_iterator(sim_spans.begin()),
               std::make_move_iterator(sim_spans.end()));

  if (!trace::write_chrome_trace_file(argv[4], spans)) {
    std::fprintf(stderr, "failed to write %s\n", argv[4]);
    return 1;
  }
  std::printf("pipeline done: %zu variants, %zu engine stages\n",
              result.variants.size(), engine.metrics().stage_count());
  std::printf("trace written to %s (%zu spans: measured run = pid 0, "
              "%zu-core replay = pid 1) — open in chrome://tracing or "
              "https://ui.perfetto.dev\n",
              argv[4], spans.size(), cluster.total_cores());
  return 0;
}

int cmd_view(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: gpf_tool view <in.gpc>\n");
    return 2;
  }
  const SamFile file = load_alignments(argv[0]);
  std::fputs(write_sam(file.header, file.records).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --backend/--store-budget/--workers anywhere on the line; only
  // the pipeline command acts on them.
  exec::BackendSpec backend_spec;
  backend_spec.worker_binary = GPF_WORKER_BIN;
  try {
    exec::consume_backend_flags(argc, argv, backend_spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "gpf_tool: %s\n", e.what());
    return 2;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "gpf_tool — GPF genomic toolkit\n"
                 "commands: simulate align call pipeline trace view\n");
    return 2;
  }
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  try {
    if (cmd == "simulate") return cmd_simulate(argc, argv);
    if (cmd == "align") return cmd_align(argc, argv);
    if (cmd == "call") return cmd_call(argc, argv);
    if (cmd == "pipeline") return cmd_pipeline(argc, argv, backend_spec);
    if (cmd == "trace") return cmd_trace(argc, argv);
    if (cmd == "view") return cmd_view(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpf_tool: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}

// perfbench_harness: the compiled half of the end-to-end benchmark.  run.py
// drives it; every subcommand prints one JSON object on stdout.
//
//   perfbench_harness simulate --prefix P --seed N --samples K
//       --genome-bp L --contigs C --coverage X
//       [--hotspot-fraction F] [--hotspot-multiplier M] [--repeat R]
//     Simulates K donor samples from the seed and writes, for each sample
//     k, Pk_ref.fa, Pk_1.fastq, Pk_2.fastq, Pk_known.vcf (every second
//     truth variant) and Pk_truth.vcf; does all of it R times over and
//     reports each set-up time.
//
//   perfbench_harness execute <ref.fa> <r1.fastq> <r2.fastq> <known.vcf>
//       <out.vcf> --threads T [--backend B] [--store-budget N]
//       [--workers N] [--worker-bin PATH] [--spill-dir DIR]
//     One untraced execution of the user-facing path: load the files,
//     build the backend, core::run_wgs_pipeline, save the VCF.  Reports
//     its wall time, the file-I/O and backend-start spans, EngineMetrics,
//     the PipelineReport and the backend counters.
//
//   perfbench_harness layers <same arguments> --trace-out PATH
//     The traced pass: one execution with trace::TraceRecorder on, then
//     single-threaded passes over each module's public functions (align,
//     cleaner, caller, compress), timed by spans kept in this file.  Writes
//     every span, the program's and the harness's, as one Chrome trace.
//
// The harness sees only file paths and backend flags, never a workload
// name.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "caller/haplotype_caller.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "common/trace.hpp"
#include "compress/record_codec.hpp"
#include "core/file_io.hpp"
#include "core/wgs_pipeline.hpp"
#include "exec/backend_factory.hpp"
#include "simdata/read_sim.hpp"

using namespace gpf;

namespace {

/// Metrics in print order; values are printed with every digit.
class Json {
 public:
  void add(std::string key, double value) {
    fields_.emplace_back(std::move(key), value);
  }
  void print() const {
    std::printf("{");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  fields_[i].first.c_str(), fields_[i].second);
    }
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

/// The harness's own spans: name, start, end and the span that caused it,
/// on the program's trace clock so both sets share one timeline.
class SpanLog {
 public:
  struct Entry {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  int begin(std::string name) {
    entries_.push_back({std::move(name), now(), 0.0,
                        open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(entries_.size()) - 1);
    return open_.back();
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    entries_[static_cast<std::size_t>(id)].end_us = now();
    open_.pop_back();
    const auto& e = entries_[static_cast<std::size_t>(id)];
    return (e.end_us - e.start_us) * 1e-6;
  }
  /// Runs `fn` inside a span and returns the span's seconds.
  template <typename F>
  double time(std::string name, F&& fn) {
    const int id = begin(std::move(name));
    fn();
    return end(id);
  }

  /// As trace::Span values on pid 2, beside the program's pid 0 spans.
  std::vector<trace::Span> to_trace_spans() const {
    std::vector<trace::Span> out;
    for (const auto& e : entries_) {
      trace::Span s;
      s.name = e.parent < 0
                   ? e.name
                   : entries_[static_cast<std::size_t>(e.parent)].name + "/" +
                         e.name;
      s.kind = trace::SpanKind::kProcess;
      s.start_us = e.start_us;
      s.dur_us = e.end_us - e.start_us;
      s.pid = 2;
      out.push_back(std::move(s));
    }
    return out;
  }

 private:
  static double now() { return trace::TraceRecorder::global().now_us(); }

  std::vector<Entry> entries_;
  std::vector<int> open_;
};

/// Strips "--name value" from argv; returns the value or `fallback`.
std::string take_flag(int& argc, char** argv, const char* name,
                      std::string fallback = {}) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    std::string value = argv[i + 1];
    for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return value;
  }
  return fallback;
}

VcfHeader vcf_header_for(const Reference& reference) {
  VcfHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  return header;
}

// --- simulate ---------------------------------------------------------------

int cmd_simulate(int argc, char** argv) {
  const std::string prefix = take_flag(argc, argv, "--prefix");
  const auto seed =
      std::strtoull(take_flag(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const int samples = std::atoi(take_flag(argc, argv, "--samples", "1").c_str());
  const std::int64_t genome_bp =
      std::atoll(take_flag(argc, argv, "--genome-bp", "100000").c_str());
  const int contigs = std::atoi(take_flag(argc, argv, "--contigs", "2").c_str());
  const int repeat = std::atoi(take_flag(argc, argv, "--repeat", "1").c_str());
  simdata::ReadSimSpec spec;
  spec.coverage = std::atof(take_flag(argc, argv, "--coverage", "30").c_str());
  spec.hotspot_fraction =
      std::atof(take_flag(argc, argv, "--hotspot-fraction", "0.01").c_str());
  spec.hotspot_multiplier =
      std::atof(take_flag(argc, argv, "--hotspot-multiplier", "1").c_str());
  // SNPs come at the simulator's default 0.001 per base; indels at three
  // times its default, so that a run holds about 100 truth indels or more
  // and indel accuracy is steady from seed to seed.
  simdata::VariantSpec variant_spec;
  variant_spec.indel_rate = 0.0003;
  if (prefix.empty() || argc != 1 || repeat < 1 || samples < 1) {
    std::fprintf(stderr, "usage: perfbench_harness simulate --prefix P ...\n");
    return 2;
  }

  // Sample k of seed s is its own donor genome: the reference, truth
  // variants and reads all come from (s, k).
  Json out;
  double pairs = 0.0, bases = 0.0, snps = 0.0, indels = 0.0;
  for (int i = 0; i < repeat; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < samples; ++k) {
      const std::uint64_t sample_seed =
          seed * 1'000'003ULL + static_cast<std::uint64_t>(k);
      spec.seed = sample_seed;
      simdata::VariantSpec variants = variant_spec;
      variants.seed = sample_seed * 0x9e3779b97f4a7c15ULL + 1;
      const auto w = simdata::make_workload(genome_bp, contigs, spec, variants);
      std::vector<VcfRecord> known;
      for (std::size_t v = 0; v < w.truth.size(); v += 2) {
        known.push_back(w.truth[v]);
      }
      const std::string p = prefix + std::to_string(k);
      const VcfHeader header = vcf_header_for(w.reference);
      core::save_fasta_file(p + "_ref.fa", w.reference);
      core::save_fastq_pair_files(p + "_1.fastq", p + "_2.fastq",
                                  w.sample.pairs);
      core::save_vcf_file(p + "_known.vcf", header, known);
      core::save_vcf_file(p + "_truth.vcf", header, w.truth);
      if (i > 0) continue;
      pairs += static_cast<double>(w.sample.pairs.size());
      for (const auto& pair : w.sample.pairs) {
        bases += static_cast<double>(pair.first.sequence.size() +
                                     pair.second.sequence.size());
      }
      for (const auto& v : w.truth) (v.is_snp() ? snps : indels) += 1.0;
    }
    out.add("setup_s." + std::to_string(i),
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
  }
  out.add("pairs", pairs);
  out.add("bases", bases);
  out.add("truth_snps", snps);
  out.add("truth_indels", indels);
  out.print();
  return 0;
}

// --- execute / layers -------------------------------------------------------

struct Inputs {
  std::string ref, r1, r2, known, out;
  exec::BackendSpec backend;
};

/// Parses the shared execute/layers arguments; false on a usage error.
bool parse_inputs(int& argc, char** argv, Inputs& in) {
  exec::consume_backend_flags(argc, argv, in.backend);
  const int threads =
      std::atoi(take_flag(argc, argv, "--threads", "0").c_str());
  in.backend.engine.worker_threads = static_cast<std::size_t>(threads);
  in.backend.worker_binary = take_flag(argc, argv, "--worker-bin");
  in.backend.spill_directory = take_flag(argc, argv, "--spill-dir");
  if (argc != 6 || threads < 1) return false;
  in.ref = argv[1];
  in.r1 = argv[2];
  in.r2 = argv[3];
  in.known = argv[4];
  in.out = argv[5];
  return true;
}

/// Files -> VCF once, with the harness's spans around each call into the
/// program.  Adds the run's metrics to `out` and returns its wall seconds.
double execute_once(const Inputs& in, SpanLog& spans, Json& out) {
  const int top = spans.begin("execute");
  Reference reference;
  std::vector<FastqPair> pairs;
  VcfFile known;
  const double load_s = spans.time("formats.load", [&] {
    reference = core::load_fasta_file(in.ref);
    pairs = core::load_fastq_pair_files(in.r1, in.r2);
    known = core::load_vcf_file(in.known);
  });
  std::unique_ptr<core::ExecutionBackend> backend;
  const double start_s = spans.time(
      "exec.backend_start", [&] { backend = exec::make_backend(in.backend); });
  // The defaults `gpf_tool pipeline` runs with.
  core::PipelineConfig config;
  config.partition_length =
      std::max<std::int64_t>(10'000, static_cast<std::int64_t>(
                                         reference.total_length() / 16));
  core::WgsResult result;
  spans.time("core.run_wgs_pipeline", [&] {
    result = core::run_wgs_pipeline(*backend, reference, std::move(pairs),
                                    std::move(known.records), config);
  });
  const double save_s = spans.time("formats.save", [&] {
    core::save_vcf_file(in.out, vcf_header_for(reference), result.variants);
  });
  const double wall_s = spans.end(top);

  double load_bytes = 0.0;
  for (const auto* path : {&in.ref, &in.r1, &in.r2, &in.known}) {
    load_bytes += static_cast<double>(std::filesystem::file_size(*path));
  }
  out.add("wall_s", wall_s);
  out.add("variants", static_cast<double>(result.variants.size()));
  out.add("formats.load_s", load_s);
  out.add("formats.load_mb_per_s", load_bytes / 1e6 / load_s);
  out.add("formats.save_s", save_s);
  out.add("exec.backend_start_s", start_s);

  const engine::EngineMetrics& m = backend->engine().metrics();
  std::size_t tasks = 0;
  for (const auto& s : m.stages()) tasks += s.task_count;
  const double threads =
      static_cast<double>(backend->engine().pool().size());
  out.add("engine.stages", static_cast<double>(m.stage_count()));
  out.add("engine.tasks", static_cast<double>(tasks));
  out.add("engine.compute_s", m.total_compute_seconds());
  out.add("engine.serialization_s", m.total_serialization_seconds());
  out.add("engine.shuffle_bytes", static_cast<double>(m.total_shuffle_bytes()));
  out.add("engine.shuffle_records",
          static_cast<double>(m.total_shuffle_records()));
  out.add("engine.failed_attempts",
          static_cast<double>(m.total_failed_attempts()));
  out.add("engine.speculative_launches",
          static_cast<double>(m.total_speculative_launches()));
  out.add("engine.parallel_efficiency",
          m.total_compute_seconds() / (wall_s * threads));

  core::BackendStageStats backend_total;
  for (const auto& t : result.report.timings) {
    const auto& b = t.backend;
    backend_total.bytes_put += b.bytes_put;
    backend_total.bytes_fetched += b.bytes_fetched;
    backend_total.bytes_spilled += b.bytes_spilled;
    backend_total.lineage_recoveries += b.lineage_recoveries;
    backend_total.residency_hits += b.residency_hits;
    backend_total.residency_misses += b.residency_misses;
    backend_total.residency_evictions += b.residency_evictions;
    out.add("core." + t.name + ".wall_s", t.wall_seconds);
    out.add("core." + t.name + ".task_p95_ms", t.task_p95_ms);
  }
  out.add("core.final_partitions",
          static_cast<double>(result.final_partitions));
  out.add("exec.bytes_put", static_cast<double>(backend_total.bytes_put));
  out.add("exec.bytes_fetched",
          static_cast<double>(backend_total.bytes_fetched));
  out.add("exec.bytes_spilled",
          static_cast<double>(backend_total.bytes_spilled));
  out.add("exec.lineage_recoveries",
          static_cast<double>(backend_total.lineage_recoveries));
  out.add("store.residency_hits",
          static_cast<double>(backend_total.residency_hits));
  out.add("store.residency_misses",
          static_cast<double>(backend_total.residency_misses));
  out.add("store.residency_evictions",
          static_cast<double>(backend_total.residency_evictions));
  return wall_s;
}

int cmd_execute(int argc, char** argv) {
  Inputs in;
  if (!parse_inputs(argc, argv, in)) {
    std::fprintf(stderr, "usage: perfbench_harness execute <ref> <r1> <r2> "
                         "<known> <out.vcf> --threads T [backend flags]\n");
    return 2;
  }
  SpanLog spans;
  Json out;
  execute_once(in, spans, out);
  out.print();
  return 0;
}

/// Single-threaded passes over each module's public functions, in pipeline
/// order, on the whole input.  Adds the per-layer metrics to `out`.
void module_passes(const Inputs& in, SpanLog& spans, Json& out) {
  const Reference reference = core::load_fasta_file(in.ref);
  const std::vector<FastqPair> pairs =
      core::load_fastq_pair_files(in.r1, in.r2);
  std::vector<VcfRecord> known = core::load_vcf_file(in.known).records;
  std::sort(known.begin(), known.end(), vcf_less);

  // align
  std::unique_ptr<align::FmIndex> index;
  out.add("align.index_build_s", spans.time("align.FmIndex", [&] {
    index = std::make_unique<align::FmIndex>(reference);
  }));
  const align::ReadAligner aligner(*index);
  std::vector<SamRecord> records;
  records.reserve(pairs.size() * 2);
  const double align_s = spans.time("align.align_pair", [&] {
    for (const auto& p : pairs) {
      auto [r1, r2] = aligner.align_pair(p);
      records.push_back(std::move(r1));
      records.push_back(std::move(r2));
    }
  });
  std::size_t mapped = 0;
  for (const auto& r : records) mapped += r.is_unmapped() ? 0 : 1;
  out.add("align.pairs", static_cast<double>(pairs.size()));
  out.add("align.busy_s", align_s);
  out.add("align.pairs_per_s", static_cast<double>(pairs.size()) / align_s);
  out.add("align.mapped_fraction", static_cast<double>(mapped) /
                                       static_cast<double>(records.size()));

  // compress, on the aligned records with the pipeline's default codec
  const Codec codec = core::PipelineConfig{}.codec;
  const double live_mb =
      static_cast<double>(live_batch_size<SamRecord>(records)) / 1e6;
  std::vector<std::uint8_t> encoded;
  const double encode_s = spans.time("compress.encode_sam_batch", [&] {
    encoded = encode_sam_batch(records, codec);
  });
  std::vector<SamRecord> decoded;
  const double decode_s = spans.time("compress.decode_sam_batch", [&] {
    decoded = decode_sam_batch(encoded, codec);
  });
  if (decoded != records) {
    throw std::runtime_error("decode_sam_batch did not round-trip");
  }
  decoded = {};
  out.add("compress.encode_mb_per_s", live_mb / encode_s);
  out.add("compress.decode_mb_per_s", live_mb / decode_s);
  out.add("compress.bytes_per_record", static_cast<double>(encoded.size()) /
                                           static_cast<double>(records.size()));

  // cleaner
  out.add("cleaner.sort_s", spans.time("cleaner.coordinate_sort", [&] {
    cleaner::coordinate_sort(records);
  }));
  cleaner::MarkDuplicatesStats dups;
  out.add("cleaner.markdup_s", spans.time("cleaner.mark_duplicates", [&] {
    dups = cleaner::mark_duplicates(records);
  }));
  out.add("cleaner.duplicates_marked",
          static_cast<double>(dups.duplicates_marked));
  const cleaner::RealignOptions realign_options;
  cleaner::RealignStats realigned;
  out.add("cleaner.realign_s", spans.time("cleaner.realign", [&] {
    const auto targets =
        cleaner::find_realign_targets(records, known, realign_options);
    realigned =
        cleaner::realign_reads(records, reference, targets, realign_options);
  }));
  out.add("cleaner.reads_considered",
          static_cast<double>(realigned.reads_considered));
  out.add("cleaner.reads_realigned",
          static_cast<double>(realigned.reads_realigned));
  out.add("cleaner.bqsr_s", spans.time("cleaner.bqsr", [&] {
    const cleaner::KnownSites sites(known);
    const auto table = cleaner::collect_covariates(records, reference, sites);
    cleaner::apply_recalibration(records, table);
  }));

  // caller
  cleaner::coordinate_sort(records);
  const caller::CallerOptions options;
  std::vector<caller::ActiveRegion> regions;
  out.add("caller.find_regions_s", spans.time("caller.find_active_regions",
                                              [&] {
    regions = caller::find_active_regions(records, reference,
                                          options.active_region);
  }));
  caller::CallStats stats;
  out.add("caller.call_s", spans.time("caller.call_region", [&] {
    for (const auto& region : regions) {
      caller::call_region(region, records, reference, options, &stats);
    }
  }));
  out.add("caller.active_regions", static_cast<double>(regions.size()));
  out.add("caller.assembled_regions",
          static_cast<double>(stats.assembled_regions));
  out.add("caller.reads_processed",
          static_cast<double>(stats.reads_processed));

  // Pair-HMM kernel probe: the read x haplotype matrix call_region fills,
  // with the same read cap, timed apart from assembly.
  double cells = 0.0;
  double hmm_s = 0.0;
  caller::PairHmm hmm(options.pairhmm);
  const int probe = spans.begin("caller.pairhmm_probe");
  for (const auto& region : regions) {
    std::vector<std::string_view> seqs;
    std::vector<const SamRecord*> reads;
    for (const std::size_t idx : region.read_indices) {
      if (reads.size() >= options.max_reads_per_region) break;
      reads.push_back(&records[idx]);
      seqs.push_back(records[idx].sequence);
    }
    const std::string_view window =
        reference.slice(region.contig_id, region.start, region.size());
    if (reads.empty() || window.empty()) continue;
    const auto assembly =
        caller::assemble_haplotypes(seqs, window, options.assembler);
    if (assembly.haplotypes.size() < 2) continue;
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (const auto* r : reads) {
      for (const auto& h : assembly.haplotypes) {
        sink += hmm.log10_likelihood(r->sequence, r->quality, h);
        cells += static_cast<double>(r->sequence.size() * h.size());
      }
    }
    hmm_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    if (!(sink <= 0.0)) throw std::runtime_error("pair-HMM returned > 0");
  }
  spans.end(probe);
  out.add("caller.pairhmm_cells", cells);
  out.add("caller.pairhmm_s", hmm_s);
  out.add("caller.pairhmm_gcups", hmm_s > 0.0 ? cells / hmm_s / 1e9 : 0.0);
}

int cmd_layers(int argc, char** argv) {
  const std::string trace_out = take_flag(argc, argv, "--trace-out");
  Inputs in;
  if (trace_out.empty() || !parse_inputs(argc, argv, in)) {
    std::fprintf(stderr, "usage: perfbench_harness layers <ref> <r1> <r2> "
                         "<known> <out.vcf> --threads T --trace-out PATH\n");
    return 2;
  }
  SpanLog spans;
  Json out;

  // The traced execution: the program's own spans on, ours around it.
  auto& recorder = trace::TraceRecorder::global();
  recorder.clear();
  recorder.enable();
  Json traced;  // only its wall time is reported; executions give the rest
  const double traced_wall_s = execute_once(in, spans, traced);
  recorder.disable();
  std::vector<trace::Span> all = recorder.drain();
  out.add("trace.traced_wall_s", traced_wall_s);
  out.add("trace.program_spans", static_cast<double>(all.size()));

  module_passes(in, spans, out);

  const auto ours = spans.to_trace_spans();
  all.insert(all.end(), ours.begin(), ours.end());
  if (!trace::write_chrome_trace_file(trace_out, all)) {
    throw std::runtime_error("cannot write " + trace_out);
  }
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness {simulate|execute|layers}"
                         " ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  // Drop the subcommand so flag parsing sees argv[0] then the arguments.
  argv[1] = argv[0];
  --argc;
  ++argv;
  try {
    if (cmd == "simulate") return cmd_simulate(argc, argv);
    if (cmd == "execute") return cmd_execute(argc, argv);
    if (cmd == "layers") return cmd_layers(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
  return 2;
}

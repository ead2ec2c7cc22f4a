// The GPF Process abstraction (paper Sec 3.1) and the pipeline context
// shared by all Processes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "compress/record_codec.hpp"
#include "core/resource.hpp"
#include "engine/dataset.hpp"
#include "formats/fasta.hpp"

namespace gpf::core {

class ExecutionBackend;

/// Paper Fig 2: Blocked -> Ready -> Running -> End.
enum class ProcessState { kBlocked, kReady, kRunning, kEnd };

/// Engine/DAG-level configuration of a pipeline run.  The three booleans
/// are the paper's headline optimizations, individually switchable so the
/// ablation benches can isolate them.
struct PipelineConfig {
  /// Serializer for shuffled genomic records (Table 3 / codec ablation).
  Codec codec = Codec::kGpf;
  /// Process-level DAG fusion: eliminate redundant partition/join shuffles
  /// (paper Fig 7 / Table 4).
  bool eliminate_redundancy = true;
  /// Dynamic repartition of hot partitions (paper Sec 4.4 / Figs 8-9).
  bool dynamic_repartition = true;
  /// Base genomic partition length in bases (Fig 8's 1,000,000 bp scaled
  /// to the synthetic genome sizes).
  std::int64_t partition_length = 100'000;
  /// Reads-per-partition split threshold for dynamic repartition.
  std::uint64_t split_threshold = 4'000;
  /// Partition count for the input FASTQ dataset.
  std::size_t fastq_partitions = 16;
};

/// Shared state for one pipeline run: the engine, the reference (a
/// broadcast variable in Spark terms) and lazily-built index structures.
class PipelineContext {
 public:
  PipelineContext(engine::Engine& engine, const Reference& reference,
                  PipelineConfig config)
      : engine_(&engine), reference_(&reference), config_(config) {}

  engine::Engine& engine() { return *engine_; }
  const Reference& reference() const { return *reference_; }
  const PipelineConfig& config() const { return config_; }

  /// The backend executing the current plan (nullptr outside a backend
  /// run).  Set by ExecutionBackend::execute; Processes that care about
  /// physical placement may consult it, most should not.
  void set_backend(ExecutionBackend* backend) { backend_ = backend; }
  ExecutionBackend* backend() const { return backend_; }

  /// FM-index and aligner, built on first use and shared (the reference
  /// index is loaded once per executor in the real system).
  const align::ReadAligner& aligner();

  /// Contig dictionary derived from the reference.
  std::vector<SamHeader::ContigInfo> contig_infos() const;

 private:
  engine::Engine* engine_;
  const Reference* reference_;
  PipelineConfig config_;
  ExecutionBackend* backend_ = nullptr;
  std::unique_ptr<align::FmIndex> fm_index_;
  std::unique_ptr<align::ReadAligner> aligner_;
};

/// A Process: a named execution instance with declared input and output
/// Resources.  The Pipeline schedules it when all inputs are defined
/// (paper Fig 2 / Algorithm 1).
class Process {
 public:
  Process(std::string name, std::vector<Resource*> inputs,
          std::vector<Resource*> outputs)
      : name_(std::move(name)),
        inputs_(std::move(inputs)),
        outputs_(std::move(outputs)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  ProcessState state() const { return state_; }
  const std::vector<Resource*>& inputs() const { return inputs_; }
  const std::vector<Resource*>& outputs() const { return outputs_; }

  /// True when every input Resource is defined.
  bool ready() const {
    for (const auto* r : inputs_) {
      if (!r->defined()) return false;
    }
    return true;
  }

  /// Partition Processes group records by genomic partition and are
  /// eligible for the Fig 7 fusion.
  virtual bool is_partition_process() const { return false; }

  /// True when running this Process crosses a shuffle (wide) boundary —
  /// what the PhysicalPlan marks as a wide stage for the backends.
  /// Partition Processes shuffle by construction; Processes with an
  /// additional record-level shuffle (sort, markdup) override.
  virtual bool has_wide_dependency() const { return is_partition_process(); }

  /// Runs the process (state transitions handled here).
  void execute(PipelineContext& ctx);

  /// Wall seconds of the last execute() call.
  double wall_seconds() const { return wall_seconds_; }

  // --- fusion wiring (set by Pipeline's redundancy-elimination pass) ---

  /// When set, this process must publish its region-bundle dataset for the
  /// downstream consumer instead of flattening it.
  void set_emit_bundle(bool emit) { emit_bundle_ = emit; }
  bool emit_bundle() const { return emit_bundle_; }

  /// When set, this process consumes the upstream process's bundle dataset
  /// directly, skipping its own partition/join shuffles.
  void set_bundle_source(Process* source) { bundle_source_ = source; }
  Process* bundle_source() const { return bundle_source_; }

  const std::optional<engine::Dataset<RegionBundle>>& published_bundle()
      const {
    return bundle_output_;
  }

 protected:
  virtual void run(PipelineContext& ctx) = 0;

  void publish_bundle(engine::Dataset<RegionBundle> bundle) {
    bundle_output_ = std::move(bundle);
  }

 private:
  friend class Pipeline;
  friend class ExecutionBackend;
  void mark_state(ProcessState s) { state_ = s; }

  std::string name_;
  std::vector<Resource*> inputs_;
  std::vector<Resource*> outputs_;
  ProcessState state_ = ProcessState::kBlocked;
  double wall_seconds_ = 0.0;
  bool emit_bundle_ = false;
  Process* bundle_source_ = nullptr;
  std::optional<engine::Dataset<RegionBundle>> bundle_output_;
};

}  // namespace gpf::core

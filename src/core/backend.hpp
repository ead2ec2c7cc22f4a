// The physical side of the Pipeline split: an explicit PhysicalPlan
// lowered from the logical Process DAG, and the ExecutionBackend
// interface that runs it.
//
// Pipeline::run() performs the paper's passes (Algorithm 1 readiness
// scheduling, Fig 7 redundancy elimination) and then stops: it emits a
// PhysicalPlan — ordered stages annotated with narrow/wide boundaries,
// per-stage lineage (the resources each stage consumes and defines), and
// the codec/partitioning choices from PipelineConfig — and submits it to
// a backend.  What varies per backend is purely *where shuffle blocks
// live*: in driver memory (EngineBackend), in chunk files under a
// ResidencyManager budget (SpillingBackend), or in worker processes
// (DistributedBackend).  The concrete backends live in src/exec; core
// only defines the boundary, plus the shared driver loop every backend
// uses, so that stage ordering, trace spans and report shape are
// identical everywhere — bit-identical output is the contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/process.hpp"

namespace gpf::core {

/// One scheduled step of the plan: a Process plus everything the backend
/// may want to know about it without consulting the logical layer.
struct PhysicalStage {
  Process* process = nullptr;
  std::string name;
  /// Algorithm-1 readiness wave this stage runs in (stages of the same
  /// wave have no dependencies among themselves).
  std::size_t wave = 0;
  /// True when the stage crosses a shuffle (wide) boundary the backend's
  /// transport will carry.  Fused stages consume the upstream bundle
  /// in place, so their own wide boundary was eliminated.
  bool wide = false;
  /// Fig-7 fusion wiring: this stage consumes its upstream's bundle.
  bool fused_into_chain = false;
  /// Fig-7 fusion wiring: this stage publishes its bundle downstream.
  bool emits_bundle = false;
  /// Lineage: resource names consumed / defined by this stage.
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

/// The ordered physical form of one pipeline: what run() submits.
class PhysicalPlan {
 public:
  PhysicalPlan(std::string pipeline, PipelineConfig config,
               std::vector<PhysicalStage> stages)
      : pipeline_(std::move(pipeline)),
        config_(config),
        stages_(std::move(stages)) {}

  const std::string& pipeline() const { return pipeline_; }
  /// Codec + partitioning choices the stages were planned under.
  const PipelineConfig& config() const { return config_; }
  const std::vector<PhysicalStage>& stages() const { return stages_; }

  std::size_t wide_stage_count() const;
  std::size_t wave_count() const;

  /// Canonical one-line structure description, e.g.
  /// "LoadFastq[w0] MyBwaMapping[w1,fused>] MySort[w2,wide] ..." — the
  /// cross-backend golden tests assert this string is identical for every
  /// backend.
  std::string describe() const;

 private:
  std::string pipeline_;
  PipelineConfig config_;
  std::vector<PhysicalStage> stages_;
};

/// Lowers a Process DAG to its physical plan by simulating the
/// Algorithm-1 readiness loop statically (seeded from which resources are
/// currently defined).  The stage order is exactly the order the
/// pre-backend Pipeline::run() executed in, so metrics and traces stay
/// comparable across versions.  Throws std::runtime_error naming the
/// stuck processes on a circular dependency.
PhysicalPlan build_physical_plan(
    const std::string& pipeline, const PipelineConfig& config,
    const std::vector<std::unique_ptr<Process>>& processes);

/// Where and how a PhysicalPlan runs.  Subclasses own (or borrow) an
/// Engine and decide the physical substrate for shuffle blocks by
/// installing a ShuffleTransport around the plan; the driver loop itself
/// — stage order, Process execution, per-stage accounting — is shared
/// and final, which is what keeps outputs bit-identical across backends.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Report/flag name: "inprocess", "spill", "distributed".
  virtual const std::string& name() const = 0;

  /// The engine Processes execute against.
  virtual engine::Engine& engine() = 0;

  /// Runs `plan` against `ctx`, filling `report` timings.  Not virtual:
  /// the loop is the contract.
  void execute(const PhysicalPlan& plan, PipelineContext& ctx,
               PipelineReport& report);

 protected:
  /// Installs the backend's physical seams (e.g. the shuffle transport)
  /// before the first stage / removes them after the last (also on
  /// failure).  Default: nothing — the in-process path.
  virtual void begin_plan(const PhysicalPlan& plan);
  virtual void end_plan(const PhysicalPlan& plan) noexcept;

  /// Cumulative transport/residency counters; the driver loop diffs
  /// snapshots around each stage.  Default: the attached shuffle
  /// transport's counters (zero without one) and the buffer pool's
  /// parked bytes; backends add their own (e.g. residency).
  virtual BackendStageStats counters();
};

/// The in-process backend: no transport, blocks stay in driver memory.
/// It either borrows an existing engine (what `Pipeline(name, Engine&,
/// ...)` constructs) or owns one built from a config (what
/// exec::make_backend builds for "inprocess"); both run identically.
class EngineBackend final : public ExecutionBackend {
 public:
  explicit EngineBackend(engine::Engine& engine) : engine_(&engine) {}
  explicit EngineBackend(engine::EngineConfig config)
      : owned_(std::make_unique<engine::Engine>(config)),
        engine_(owned_.get()) {}

  const std::string& name() const override;
  engine::Engine& engine() override { return *engine_; }

 private:
  std::unique_ptr<engine::Engine> owned_;
  engine::Engine* engine_;
};

}  // namespace gpf::core

#include "core/backend.hpp"

#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "common/histogram.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"

namespace gpf::core {

std::size_t PhysicalPlan::wide_stage_count() const {
  std::size_t n = 0;
  for (const auto& s : stages_) {
    if (s.wide) ++n;
  }
  return n;
}

std::size_t PhysicalPlan::wave_count() const {
  std::size_t waves = 0;
  for (const auto& s : stages_) waves = std::max(waves, s.wave + 1);
  return waves;
}

std::string PhysicalPlan::describe() const {
  std::string out;
  for (const auto& s : stages_) {
    if (!out.empty()) out += ' ';
    out += s.name + "[w" + std::to_string(s.wave);
    if (s.wide) out += ",wide";
    if (s.fused_into_chain) out += ",fused";
    if (s.emits_bundle) out += ",bundle>";
    out += ']';
  }
  return out;
}

PhysicalPlan build_physical_plan(
    const std::string& pipeline, const PipelineConfig& config,
    const std::vector<std::unique_ptr<Process>>& processes) {
  // Simulate the Algorithm-1 readiness loop statically.  The defined-set
  // is seeded from actual Resource state (pre-loaded inputs are ready at
  // wave 0) and grows wave by wave; within a wave, readiness is judged
  // against the state at wave START — exactly the semantics (and hence
  // exactly the execution order) of the historical runtime loop.
  std::set<const Resource*> defined;
  for (const auto& p : processes) {
    for (const Resource* r : p->inputs()) {
      if (r->defined()) defined.insert(r);
    }
  }

  std::vector<PhysicalStage> stages;
  std::vector<Process*> unfinished;
  for (const auto& p : processes) unfinished.push_back(p.get());

  std::size_t wave = 0;
  while (!unfinished.empty()) {
    std::vector<Process*> runnable;
    for (Process* p : unfinished) {
      bool ready = true;
      for (const Resource* r : p->inputs()) {
        if (defined.count(r) == 0) {
          ready = false;
          break;
        }
      }
      if (ready) runnable.push_back(p);
    }
    if (runnable.empty()) {
      std::string stuck;
      for (const Process* p : unfinished) {
        stuck += ' ' + p->name();
      }
      throw std::runtime_error("circular dependency among processes:" +
                               stuck);
    }
    for (Process* p : runnable) {
      PhysicalStage s;
      s.process = p;
      s.name = p->name();
      s.wave = wave;
      s.fused_into_chain = p->bundle_source() != nullptr;
      s.emits_bundle = p->emit_bundle();
      // A fused stage consumes its upstream's bundle in place; its own
      // wide boundary was what the Fig-7 pass eliminated.
      s.wide = p->has_wide_dependency() && !s.fused_into_chain;
      for (const Resource* r : p->inputs()) s.inputs.push_back(r->name());
      for (const Resource* r : p->outputs()) s.outputs.push_back(r->name());
      stages.push_back(std::move(s));
      std::erase(unfinished, p);
    }
    for (const Process* p : runnable) {
      for (const Resource* r : p->outputs()) defined.insert(r);
    }
    ++wave;
  }
  return PhysicalPlan(pipeline, config, std::move(stages));
}

namespace {

/// Per-stage delta of the cumulative counters; snapshot fields pass
/// through from `after`.
BackendStageStats diff_counters(const BackendStageStats& before,
                                const BackendStageStats& after) {
  BackendStageStats d;
  d.blocks_put = after.blocks_put - before.blocks_put;
  d.blocks_fetched = after.blocks_fetched - before.blocks_fetched;
  d.bytes_put = after.bytes_put - before.bytes_put;
  d.bytes_fetched = after.bytes_fetched - before.bytes_fetched;
  d.bytes_spilled = after.bytes_spilled - before.bytes_spilled;
  d.lineage_recoveries = after.lineage_recoveries - before.lineage_recoveries;
  d.residency_hits = after.residency_hits - before.residency_hits;
  d.residency_misses = after.residency_misses - before.residency_misses;
  d.residency_evictions =
      after.residency_evictions - before.residency_evictions;
  d.pooled_bytes = after.pooled_bytes;
  return d;
}

}  // namespace

void ExecutionBackend::begin_plan(const PhysicalPlan&) {}
void ExecutionBackend::end_plan(const PhysicalPlan&) noexcept {}

BackendStageStats ExecutionBackend::counters() {
  BackendStageStats stats;
  stats.pooled_bytes = engine().buffer_pool().pooled_bytes();
  // execute() snapshots only between begin_plan and end_plan, so a
  // backend's transport is attached whenever it has one.
  if (const engine::ShuffleTransport* transport =
          engine().shuffle_transport()) {
    const engine::ShuffleTransportStats t = transport->stats();
    stats.blocks_put = t.blocks_put;
    stats.blocks_fetched = t.blocks_fetched;
    stats.bytes_put = t.bytes_put;
    stats.bytes_fetched = t.bytes_fetched;
    stats.bytes_spilled = t.bytes_spilled;
    stats.lineage_recoveries = t.lineage_recoveries;
  }
  return stats;
}

void ExecutionBackend::execute(const PhysicalPlan& plan, PipelineContext& ctx,
                               PipelineReport& report) {
  report.backend = name();
  ctx.set_backend(this);
  begin_plan(plan);
  Timer total;
  try {
    for (const PhysicalStage& s : plan.stages()) {
      s.process->mark_state(ProcessState::kReady);
      GPF_INFO("running process %s (%s backend)", s.name.c_str(),
               name().c_str());
      const std::size_t stages_before = engine().metrics().stage_count();
      const BackendStageStats before = counters();
      s.process->execute(ctx);

      PipelineReport::ProcessTiming t;
      t.name = s.name;
      t.wall_seconds = s.process->wall_seconds();
      const auto& stages = engine().metrics().stages();
      t.engine_stages = stages.size() - stages_before;
      Histogram task_ms100;
      for (std::size_t k = stages_before; k < stages.size(); ++k) {
        t.shuffle_write_bytes += stages[k].shuffle_write_bytes;
        t.shuffle_read_bytes += stages[k].shuffle_read_bytes;
        t.shuffle_records += stages[k].shuffle_records;
        for (const double sec : stages[k].task_seconds) {
          task_ms100.add(std::llround(sec * 1e5));
        }
      }
      if (!task_ms100.empty()) {
        t.task_p50_ms = static_cast<double>(task_ms100.percentile(0.50)) / 100.0;
        t.task_p95_ms = static_cast<double>(task_ms100.percentile(0.95)) / 100.0;
        t.task_p99_ms = static_cast<double>(task_ms100.percentile(0.99)) / 100.0;
      }
      t.backend = diff_counters(before, counters());
      report.timings.push_back(std::move(t));
    }
  } catch (...) {
    end_plan(plan);
    report.total_wall_seconds = total.seconds();
    throw;
  }
  end_plan(plan);
  report.total_wall_seconds = total.seconds();
}

const std::string& EngineBackend::name() const {
  static const std::string kName = "inprocess";
  return kName;
}

}  // namespace gpf::core

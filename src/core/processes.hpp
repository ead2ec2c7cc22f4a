// The algorithm-specific Processes of the GPF API (paper Table 2):
// Aligner (BwaMemProcess), Cleaner (Sort/MarkDuplicate/IndelRealign/
// BaseRecalibration), Caller (HaplotypeCaller), plus the auxiliary
// ReadRepartitioner and the load/store endpoints.
//
// Partition Processes (IndelRealign, BaseRecalibration, HaplotypeCaller)
// work on region bundles.  In unoptimized mode each builds its own bundle
// RDD with three shuffles (SAM groupBy, FASTA partition, known-VCF
// partition) plus a join; with redundancy elimination the Pipeline wires
// them into a chain where only the head pays the shuffles (paper Fig 7).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "caller/gvcf.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/markdup.hpp"
#include "core/partition_info.hpp"
#include "core/pipeline.hpp"
#include "core/process.hpp"
#include "core/resource.hpp"

namespace gpf::core {

using PartitionInfoResource = ValueResource<PartitionInfo>;
using VcfResultResource = ValueResource<std::vector<VcfRecord>>;

/// Loads simulated FASTQ pairs into a bundle, recording the storage-read
/// volume (the "Storage Subsystem -> Aligner" edge of paper Fig 1).
class LoadFastqProcess final : public Process {
 public:
  LoadFastqProcess(std::string name, std::vector<FastqPair> pairs,
                   FastqPairBundle* output);

 private:
  void run(PipelineContext& ctx) override;

  std::vector<FastqPair> pairs_;
  FastqPairBundle* output_;
};

/// Loads a known-sites database (the paper's dbsnp rodMap entry).
class LoadKnownSitesProcess final : public Process {
 public:
  LoadKnownSitesProcess(std::string name, std::vector<VcfRecord> sites,
                        VcfBundle* output);

 private:
  void run(PipelineContext& ctx) override;

  std::vector<VcfRecord> sites_;
  VcfBundle* output_;
};

/// Aligner stage: BWA-MEM-like paired-end mapping
/// (paper: BwaMemProcess.pairEnd).
class BwaMemProcess final : public Process {
 public:
  BwaMemProcess(std::string name, FastqPairBundle* input, SamBundle* output);

 private:
  void run(PipelineContext& ctx) override;

  FastqPairBundle* input_;
  SamBundle* output_;
};

/// Auxiliary Process producing the PartitionInfo (paper:
/// ReadRepartitioner / RepartitionInfoProducer).  Counts reads per base
/// partition and applies the dynamic split when enabled.
class ReadRepartitioner final : public Process {
 public:
  ReadRepartitioner(std::string name, SamBundle* input,
                    PartitionInfoResource* output);

 private:
  void run(PipelineContext& ctx) override;

  SamBundle* input_;
  PartitionInfoResource* output_;
};

/// Cleaner: distributed coordinate sort (samtools sort).
class SortProcess final : public Process {
 public:
  SortProcess(std::string name, SamBundle* input,
              PartitionInfoResource* partition_info, SamBundle* output);

  /// Range-partitioned global sort: a record-level shuffle.
  bool has_wide_dependency() const override { return true; }

 private:
  void run(PipelineContext& ctx) override;

  SamBundle* input_;
  PartitionInfoResource* partition_info_;
  SamBundle* output_;
};

/// Cleaner: duplicate marking (paper: MarkDuplicateProcess).
class MarkDuplicateProcess final : public Process {
 public:
  MarkDuplicateProcess(std::string name, SamBundle* input, SamBundle* output);

  /// Groups read pairs by alignment signature: a shuffle of compact keys
  /// (the records stay in Sort's partitions; see mark_duplicates below).
  bool has_wide_dependency() const override { return true; }

  /// Stats from the last run (for tests/benches).
  const cleaner::MarkDuplicatesStats& stats() const { return stats_; }

 private:
  void run(PipelineContext& ctx) override;

  SamBundle* input_;
  SamBundle* output_;
  cleaner::MarkDuplicatesStats stats_;
};

/// Cleaner: local indel realignment (paper: IndelRealignProcess).
/// Partition Process — fusable.
class IndelRealignProcess final : public Process {
 public:
  IndelRealignProcess(std::string name, SamBundle* input, VcfBundle* known,
                      PartitionInfoResource* partition_info,
                      SamBundle* output);

  bool is_partition_process() const override { return true; }

 private:
  void run(PipelineContext& ctx) override;

  SamBundle* input_;
  VcfBundle* known_;
  PartitionInfoResource* partition_info_;
  SamBundle* output_;
};

/// Cleaner: base quality recalibration (paper: BaseRecalibrationProcess).
/// Partition Process — fusable.  The covariate Collect step merges
/// per-partition tables on the driver and re-broadcasts (the serial step
/// the paper observes after BQSR).
class BaseRecalibrationProcess final : public Process {
 public:
  BaseRecalibrationProcess(std::string name, SamBundle* input,
                           VcfBundle* known,
                           PartitionInfoResource* partition_info,
                           SamBundle* output);

  bool is_partition_process() const override { return true; }

  /// Broadcast payload of the last run in bytes.
  std::size_t broadcast_bytes() const { return broadcast_bytes_; }

 private:
  void run(PipelineContext& ctx) override;

  SamBundle* input_;
  VcfBundle* known_;
  PartitionInfoResource* partition_info_;
  SamBundle* output_;
  std::size_t broadcast_bytes_ = 0;
};

using GvcfBlocksResource = ValueResource<std::vector<caller::GvcfBlock>>;

/// Caller: HaplotypeCaller (paper: HaplotypeCallerProcess).  Partition
/// Process — fusable (always a chain tail: its output is a VCF bundle).
/// With `use_gvcf` (the paper API's useGVCF flag) it additionally emits
/// the homozygous-reference confidence blocks into `gvcf_output`.
class HaplotypeCallerProcess final : public Process {
 public:
  HaplotypeCallerProcess(std::string name, SamBundle* input, VcfBundle* known,
                         PartitionInfoResource* partition_info,
                         VcfBundle* output, bool use_gvcf = false,
                         GvcfBlocksResource* gvcf_output = nullptr);

  bool is_partition_process() const override { return true; }

 private:
  void run(PipelineContext& ctx) override;

  SamBundle* input_;
  VcfBundle* known_;
  PartitionInfoResource* partition_info_;
  VcfBundle* output_;
  bool use_gvcf_;
  GvcfBlocksResource* gvcf_output_;
};

/// Collects, sorts and deduplicates the called variants, recording the
/// result-write volume.
class CollectVcfProcess final : public Process {
 public:
  CollectVcfProcess(std::string name, VcfBundle* input,
                    VcfResultResource* output);

 private:
  void run(PipelineContext& ctx) override;

  VcfBundle* input_;
  VcfResultResource* output_;
};

/// Shuffle codecs matching PipelineConfig::codec.
engine::ShuffleCodec<FastqPair> make_fastq_pair_codec(Codec codec);
engine::ShuffleCodec<SamRecord> make_sam_codec(Codec codec);
engine::ShuffleCodec<VcfRecord> make_vcf_codec(Codec codec);

/// The partition Sort and the region-bundle join route a record to: its
/// own position when mapped; unmapped reads ride along in the partition of
/// their mate position (or 0).
std::uint32_t record_partition(const SamRecord& rec,
                               const PartitionInfo& info);

/// MarkDuplicateProcess's routine: exact duplicate marking that moves keys,
/// not records.  Builds one cleaner::DupKey per mapped primary record,
/// shuffles the keys by signature hash, decides each key partition with
/// cleaner::decide_duplicates, collects the marked (partition, index)
/// pairs on the driver, and applies them in a narrow stage.  The result
/// keeps `sam`'s partitioning and order; its flags equal one
/// cleaner::mark_duplicates call over sam.collect(), as do `stats`.
engine::Dataset<SamRecord> mark_duplicates(
    PipelineContext& ctx, const engine::Dataset<SamRecord>& sam,
    const std::string& stage_prefix, cleaner::MarkDuplicatesStats& stats);

/// Builds the region-bundle dataset for a partition Process in unfused
/// mode: three shuffles plus the join (exposed for tests and ablations).
/// The SAM shuffle is skipped when every record already sits in its
/// record_partition (Sort's output, or a flattened bundle dataset whose
/// reads did not move).
engine::Dataset<RegionBundle> build_region_bundles(
    PipelineContext& ctx, const engine::Dataset<SamRecord>& sam,
    const engine::Dataset<VcfRecord>& known, const PartitionInfo& info,
    const std::string& stage_prefix);

/// Serialized size of a region-bundle batch under `codec` (used by the
/// compression benches to weigh the "Generate Bundle RDD" stage).
std::size_t encoded_bundle_bytes(std::span<const RegionBundle> bundles,
                                 Codec codec);

/// Flattens bundles back to records.
engine::Dataset<SamRecord> flatten_bundles(
    PipelineContext& ctx, const engine::Dataset<RegionBundle>& bundles,
    const std::string& stage_name);

}  // namespace gpf::core

// The GPF programming model's Resource abstraction (paper Sec 3.1).
//
// A Resource is the unit of data dependency between Processes: a named
// slot that is either `undefined` (empty) or `defined` (filled by a
// producing Process).  The typed subclasses wrap engine datasets (the
// paper's RDD Bundles: FASTQPairBundle, SAMBundle, VCFBundle,
// PartitionInfoBundle) or scalar values (the BQSR table, the reference
// path).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/dataset.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/vcf.hpp"

namespace gpf::core {

/// State machine (paper Fig 2): undefined -> defined, set exactly once by
/// the producing Process (or pre-defined by the user for pipeline inputs).
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}
  virtual ~Resource() = default;

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& name() const { return name_; }
  bool defined() const { return defined_; }

 protected:
  void mark_defined() {
    if (defined_) {
      throw std::logic_error("resource '" + name_ + "' defined twice");
    }
    defined_ = true;
  }

 private:
  std::string name_;
  bool defined_ = false;
};

/// A dataset-valued Resource (an RDD Bundle).
template <typename T>
class BundleResource final : public Resource {
 public:
  using Resource::Resource;

  /// Creates a pre-defined bundle (paper: `Bundle.defined(...)`).
  static std::unique_ptr<BundleResource> make_defined(
      std::string name, engine::Dataset<T> dataset) {
    auto r = std::make_unique<BundleResource>(std::move(name));
    r->set(std::move(dataset));
    return r;
  }

  /// Creates an empty bundle to be filled by a Process
  /// (paper: `Bundle.undefined(...)`).
  static std::unique_ptr<BundleResource> make_undefined(std::string name) {
    return std::make_unique<BundleResource>(std::move(name));
  }

  void set(engine::Dataset<T> dataset) {
    dataset_ = std::move(dataset);
    mark_defined();
  }

  const engine::Dataset<T>& get() const {
    if (!defined()) {
      throw std::logic_error("resource '" + name() + "' read while undefined");
    }
    return *dataset_;
  }

 private:
  std::optional<engine::Dataset<T>> dataset_;
};

/// A scalar-valued Resource (headers, tables, paths).
template <typename T>
class ValueResource final : public Resource {
 public:
  using Resource::Resource;

  static std::unique_ptr<ValueResource> make_defined(std::string name,
                                                     T value) {
    auto r = std::make_unique<ValueResource>(std::move(name));
    r->set(std::move(value));
    return r;
  }

  static std::unique_ptr<ValueResource> make_undefined(std::string name) {
    return std::make_unique<ValueResource>(std::move(name));
  }

  void set(T value) {
    value_ = std::move(value);
    mark_defined();
  }

  const T& get() const {
    if (!defined()) {
      throw std::logic_error("resource '" + name() + "' read while undefined");
    }
    return *value_;
  }

 private:
  std::optional<T> value_;
};

/// A genomic region bundle: the unit of the fused "Bundle RDD" from the
/// paper's Fig 7 — one partitioned region's SAM records together with the
/// reference slice descriptor and the known-sites slice it needs.
struct RegionBundle {
  std::uint32_t partition_id = 0;
  std::int32_t contig_id = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
  /// Reference bases for [start, end) — carried in the bundle so shuffle
  /// volume reflects the paper's FASTA partition RDD.
  std::string ref_bases;
  std::vector<SamRecord> sam;
  std::vector<VcfRecord> known;

  bool operator==(const RegionBundle&) const = default;
};

using FastqPairBundle = BundleResource<FastqPair>;
using SamBundle = BundleResource<SamRecord>;
using VcfBundle = BundleResource<VcfRecord>;
using RegionBundleResource = BundleResource<RegionBundle>;

}  // namespace gpf::core

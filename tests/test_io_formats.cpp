// Tests for the file-backed endpoints (core/file_io).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "common/fsio.hpp"
#include "core/file_io.hpp"
#include "simdata/reference_gen.hpp"

namespace gpf {
namespace {

/// Temp-directory fixture; files are removed on teardown.
class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpf_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(FileIoTest, ReadWriteRoundTrip) {
  core::write_file(path("x.txt"), "hello\nworld");
  EXPECT_EQ(core::read_file(path("x.txt")), "hello\nworld");
}

TEST_F(FileIoTest, MissingFileThrowsWithPath) {
  try {
    core::read_file(path("nope.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nope.txt"), std::string::npos);
  }
}

TEST_F(FileIoTest, UnwritablePathThrows) {
  EXPECT_THROW(core::write_file(path("no_dir/x.txt"), "x"),
               std::runtime_error);
}

TEST_F(FileIoTest, WriteFileSurvivesCrashMidWrite) {
  // Regression: write_file used to truncate the destination in place, so
  // a crash mid-write left a torn prefix.  It now writes through
  // fs::atomic_write_file — under an injected failure the old bytes stay
  // intact and no temp file is left behind.
  core::write_file(path("data.txt"), "the old, complete contents");
  fs::testing::set_write_failure_hook(
      [] { throw std::runtime_error("injected crash mid-write"); });
  EXPECT_THROW(core::write_file(path("data.txt"), "new contents"),
               std::runtime_error);
  fs::testing::set_write_failure_hook(nullptr);

  EXPECT_EQ(core::read_file(path("data.txt")), "the old, complete contents");
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(std::string(e.path().filename()).find(".tmp"),
              std::string::npos)
        << "leftover temp file: " << e.path();
  }
  // And the writer still works once the fault clears.
  core::write_file(path("data.txt"), "new contents");
  EXPECT_EQ(core::read_file(path("data.txt")), "new contents");
}

TEST_F(FileIoTest, FastqPairFilesRoundTrip) {
  std::vector<FastqPair> pairs = {
      {{"a/1", "ACGT", "IIII"}, {"a/2", "TTTT", "JJJJ"}},
      {{"b/1", "GG", "AB"}, {"b/2", "CC", "CD"}},
  };
  core::save_fastq_pair_files(path("r_1.fq"), path("r_2.fq"), pairs);
  const auto loaded =
      core::load_fastq_pair_files(path("r_1.fq"), path("r_2.fq"));
  EXPECT_EQ(loaded, pairs);
}

TEST_F(FileIoTest, FastaFileRoundTrip) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::genome(30'000, 2, 3));
  core::save_fasta_file(path("ref.fa"), ref);
  const Reference loaded = core::load_fasta_file(path("ref.fa"));
  ASSERT_EQ(loaded.contig_count(), ref.contig_count());
  for (std::size_t i = 0; i < ref.contig_count(); ++i) {
    EXPECT_EQ(loaded.contig(static_cast<std::int32_t>(i)).sequence,
              ref.contig(static_cast<std::int32_t>(i)).sequence);
  }
}

TEST_F(FileIoTest, SamFileRoundTrip) {
  SamHeader header;
  header.contigs = {{"c1", 500}};
  SamRecord rec;
  rec.qname = "r";
  rec.contig_id = 0;
  rec.pos = 10;
  rec.mapq = 60;
  rec.cigar = parse_cigar("4M");
  rec.sequence = "ACGT";
  rec.quality = "IIII";
  core::save_sam_file(path("a.sam"), header, {rec});
  const SamFile loaded = core::load_sam_file(path("a.sam"));
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0], rec);
}

TEST_F(FileIoTest, VcfFileRoundTrip) {
  VcfHeader header;
  header.contigs = {{"c1", 500}};
  std::vector<VcfRecord> records = {
      {0, 42, ".", "A", "G", 77.0, Genotype::kHet}};
  core::save_vcf_file(path("a.vcf"), header, records);
  const VcfFile loaded = core::load_vcf_file(path("a.vcf"));
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].pos, 42);
  EXPECT_EQ(loaded.records[0].alt, "G");
}

}  // namespace
}  // namespace gpf

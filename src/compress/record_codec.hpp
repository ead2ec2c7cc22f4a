// Batch serializers for genomic records: the engine stores partitions and
// shuffle blocks as byte arrays produced by one of three codecs.
//
//  * kJavaLike — emulates java.io serialization: per-stream class
//    descriptors, per-object headers, UTF-16 string payloads.  The
//    reference point the paper calls "Java serialization".
//  * kKryoLike — compact generic binary (varints + raw byte strings), no
//    domain knowledge.  The paper's "Kryo" baseline ("often as much as 10x"
//    smaller than Java, but inefficient on complex genomic objects).
//  * kGpf — the paper's codec: 2-bit sequence field + delta/Huffman
//    quality field, varint numeric fields, uncompressed remaining fields.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/vcf.hpp"

namespace gpf {

enum class Codec : std::uint8_t {
  kJavaLike = 0,
  kKryoLike = 1,
  kGpf = 2,
};

const char* codec_name(Codec codec);

/// FASTQ batches -------------------------------------------------------

std::vector<std::uint8_t> encode_fastq_batch(
    std::span<const FastqRecord> records, Codec codec);
std::vector<FastqRecord> decode_fastq_batch(
    std::span<const std::uint8_t> bytes, Codec codec);

/// In-place encode variants: `out` is cleared and refilled, reusing its
/// capacity.  Output bytes are identical to the allocating overloads;
/// these back ShuffleCodec::encode so pooled buffers can be reused across
/// shuffle blocks.
void encode_fastq_batch_into(std::span<const FastqRecord> records, Codec codec,
                             std::vector<std::uint8_t>& out);
void encode_fastq_pair_batch_into(std::span<const FastqPair> pairs,
                                  Codec codec, std::vector<std::uint8_t>& out);
void encode_sam_batch_into(std::span<const SamRecord> records, Codec codec,
                           std::vector<std::uint8_t>& out);
void encode_vcf_batch_into(std::span<const VcfRecord> records, Codec codec,
                           std::vector<std::uint8_t>& out);

/// Paired FASTQ batches ------------------------------------------------

std::vector<std::uint8_t> encode_fastq_pair_batch(
    std::span<const FastqPair> pairs, Codec codec);
std::vector<FastqPair> decode_fastq_pair_batch(
    std::span<const std::uint8_t> bytes, Codec codec);

/// SAM batches ---------------------------------------------------------

std::vector<std::uint8_t> encode_sam_batch(std::span<const SamRecord> records,
                                           Codec codec);
std::vector<SamRecord> decode_sam_batch(std::span<const std::uint8_t> bytes,
                                        Codec codec);

/// VCF batches ---------------------------------------------------------

std::vector<std::uint8_t> encode_vcf_batch(std::span<const VcfRecord> records,
                                           Codec codec);
std::vector<VcfRecord> decode_vcf_batch(std::span<const std::uint8_t> bytes,
                                        Codec codec);

/// In-memory footprint estimators: the "Origin" column of the paper's
/// Table 3 (live object sizes before serialization).
std::size_t live_size(const FastqRecord& r);
std::size_t live_size(const FastqPair& p);
std::size_t live_size(const SamRecord& r);
std::size_t live_size(const VcfRecord& r);

template <typename Record>
std::size_t live_batch_size(std::span<const Record> records) {
  std::size_t total = 0;
  for (const auto& r : records) total += live_size(r);
  return total;
}

}  // namespace gpf

#include "compress/record_codec.hpp"

#include <stdexcept>

#include "common/bytes.hpp"
#include "compress/qual_codec.hpp"
#include "compress/seq_codec.hpp"

namespace gpf {
namespace {

// --- Java-like emulation ------------------------------------------------
//
// java.io writes a class descriptor (fully-qualified name, serialVersionUID,
// per-field name+type descriptor) once per stream, then for each object an
// object header plus per-field data; String payloads are written through
// writeUTF-style records with their own headers and Java's char-oriented
// layout costs roughly two bytes per character once object overhead and
// handles are amortized.  We reproduce those costs structurally rather than
// byte-for-byte.

constexpr std::uint16_t kJavaStreamMagic = 0xaced;
constexpr std::uint8_t kJavaObjectMarker = 0x73;

void java_class_descriptor(ByteWriter& w, std::string_view class_name,
                           std::span<const std::string_view> fields) {
  w.u16(kJavaStreamMagic);
  w.str(class_name);
  w.u64(0x1122334455667788ULL);  // serialVersionUID
  w.u16(static_cast<std::uint16_t>(fields.size()));
  for (const auto f : fields) {
    w.u8('L');  // object-typed field
    w.str(f);
    w.str("Ljava/lang/String;");
  }
}

void java_string(ByteWriter& w, std::string_view s) {
  w.u8(kJavaObjectMarker);
  w.u32(static_cast<std::uint32_t>(s.size()));
  // UTF-16 payload: two bytes per char.
  for (const char c : s) {
    w.u8(0);
    w.u8(static_cast<std::uint8_t>(c));
  }
}

std::string java_read_string(ByteReader& r) {
  if (r.u8() != kJavaObjectMarker) {
    throw std::invalid_argument("java codec: bad string marker");
  }
  const std::uint32_t n = r.u32();
  std::string s(n, '\0');
  for (std::uint32_t i = 0; i < n; ++i) {
    r.u8();
    s[i] = static_cast<char>(r.u8());
  }
  return s;
}

void java_long(ByteWriter& w, std::int64_t v) {
  w.u8(kJavaObjectMarker);  // boxed
  w.i64(v);
}

std::int64_t java_read_long(ByteReader& r) {
  if (r.u8() != kJavaObjectMarker) {
    throw std::invalid_argument("java codec: bad long marker");
  }
  return r.i64();
}

// --- shared helpers ------------------------------------------------------

constexpr std::uint32_t kBatchMagic = 0x47504642;  // "GPFB"

void batch_header(ByteWriter& w, Codec codec, std::uint64_t count) {
  w.u32(kBatchMagic);
  w.u8(static_cast<std::uint8_t>(codec));
  w.uvarint(count);
}

/// Reads an element count for elements that each take at least one encoded
/// byte, and throws std::out_of_range, as the reader does on truncated
/// input, when the remaining bytes cannot hold that many.  Checked before
/// any reserve(), so a hostile count cannot drive a huge allocation.
std::uint64_t read_count(ByteReader& r) {
  const std::uint64_t count = r.uvarint();
  if (count > r.remaining()) {
    throw std::out_of_range("record batch: count exceeds remaining bytes");
  }
  return count;
}

/// Returns the batch's record count.  Every record of every codec takes at
/// least one byte after the header: a Java-like record opens with its
/// object marker; a Kryo-like or GPF FASTQ record, and a SAM record's fixed
/// fields, open with the name's length varint; a Kryo-like or GPF VCF
/// record opens with the contig varint.
std::uint64_t check_batch_header(ByteReader& r, Codec codec) {
  if (r.u32() != kBatchMagic) {
    throw std::invalid_argument("record batch: bad magic");
  }
  if (r.u8() != static_cast<std::uint8_t>(codec)) {
    throw std::invalid_argument("record batch: codec mismatch");
  }
  return read_count(r);
}

// --- GPF FASTQ payload ----------------------------------------------------

/// Original quality characters overwritten by the Deorowicz N-escape, so
/// decoding is lossless even when an N base carries an unusual quality
/// (real Illumina data assigns N bases '#', making the paper's scheme
/// lossless in practice; synthetic data may not).
struct EscapeFixups {
  std::vector<std::pair<std::uint32_t, char>> entries;  // (position, qual)

  static EscapeFixups collect(std::string_view sequence,
                              std::string_view quality) {
    EscapeFixups f;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const char c = sequence[i];
      if (c != 'A' && c != 'C' && c != 'G' && c != 'T') {
        f.entries.emplace_back(static_cast<std::uint32_t>(i), quality[i]);
      }
    }
    return f;
  }

  void write(ByteWriter& w) const {
    w.uvarint(entries.size());
    for (const auto& [pos, q] : entries) {
      w.uvarint(pos);
      w.u8(static_cast<std::uint8_t>(q));
    }
  }

  static void read_and_apply(ByteReader& r, std::string& quality) {
    const std::uint64_t n = r.uvarint();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::size_t pos = r.uvarint();
      quality.at(pos) = static_cast<char>(r.u8());
    }
  }
};

/// GPF keeps the original record structure and compresses only the
/// Sequence and Quality fields (paper: those two fields are 80-90% of a
/// FASTQ record).  The quality Huffman table is trained per batch and
/// stored once.
void gpf_encode_fastq_records(ByteWriter& w,
                              std::span<const FastqRecord> records) {
  std::vector<std::string> qualities;
  qualities.reserve(records.size());
  // Escape sentinels must be applied before training so the table covers
  // the rewritten quality strings.
  std::vector<CompressedSequence> seqs;
  std::vector<EscapeFixups> fixups;
  seqs.reserve(records.size());
  fixups.reserve(records.size());
  for (const auto& rec : records) {
    fixups.push_back(EscapeFixups::collect(rec.sequence, rec.quality));
    std::string qual = rec.quality;
    seqs.push_back(compress_sequence(rec.sequence, qual));
    qualities.push_back(std::move(qual));
  }
  const QualityCodec codec = QualityCodec::train(qualities);
  const auto table = codec.serialize_table();
  w.uvarint(table.size());
  w.raw(std::span(table.data(), table.size()));

  BitWriter quals;
  for (const auto& q : qualities) codec.encode(q, quals);
  const auto qual_bits = quals.finish();

  for (std::size_t i = 0; i < records.size(); ++i) {
    w.str(records[i].name);
    w.uvarint(seqs[i].length);
    w.raw(std::span(seqs[i].packed.data(), seqs[i].packed.size()));
    fixups[i].write(w);
  }
  w.uvarint(qual_bits.size());
  w.raw(std::span(qual_bits.data(), qual_bits.size()));
}

std::vector<FastqRecord> gpf_decode_fastq_records(ByteReader& r,
                                                  std::uint64_t count) {
  const std::size_t table_size = r.uvarint();
  const auto table = r.raw(table_size);
  const QualityCodec codec = QualityCodec::from_table(table);

  struct Pending {
    std::string name;
    CompressedSequence seq;
    std::vector<std::uint8_t> fixup_bytes;
  };
  std::vector<Pending> pending;
  pending.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Pending p;
    p.name = r.str();
    p.seq.length = static_cast<std::uint32_t>(r.uvarint());
    const auto raw = r.raw(packed_size(p.seq.length));
    p.seq.packed.assign(raw.begin(), raw.end());
    // Defer fixups: re-encode the span so it can be replayed after the
    // quality stream is decoded.
    ByteWriter fw;
    const std::uint64_t n = r.uvarint();
    fw.uvarint(n);
    for (std::uint64_t f = 0; f < n; ++f) {
      fw.uvarint(r.uvarint());
      fw.u8(r.u8());
    }
    p.fixup_bytes = fw.take();
    pending.push_back(std::move(p));
  }
  const std::size_t qual_bytes = r.uvarint();
  const auto qual_raw = r.raw(qual_bytes);
  BitReader bits(qual_raw);

  std::vector<FastqRecord> records;
  records.reserve(count);
  for (auto& p : pending) {
    std::string qual = codec.decode(bits);
    std::string seq = decompress_sequence(p.seq, qual);
    ByteReader fr(std::span(p.fixup_bytes.data(), p.fixup_bytes.size()));
    EscapeFixups::read_and_apply(fr, qual);
    records.push_back({std::move(p.name), std::move(seq), std::move(qual)});
  }
  return records;
}

}  // namespace

const char* codec_name(Codec codec) {
  switch (codec) {
    case Codec::kJavaLike:
      return "java";
    case Codec::kKryoLike:
      return "kryo";
    case Codec::kGpf:
      return "gpf";
  }
  return "?";
}

// --- FASTQ ----------------------------------------------------------------

namespace {

void write_fastq_batch(ByteWriter& w, std::span<const FastqRecord> records,
                       Codec codec) {
  batch_header(w, codec, records.size());
  switch (codec) {
    case Codec::kJavaLike: {
      static constexpr std::string_view kFields[] = {"name", "sequence",
                                                     "quality"};
      java_class_descriptor(w, "org.gpf.formats.FastqRecord", kFields);
      for (const auto& rec : records) {
        w.u8(kJavaObjectMarker);
        java_string(w, rec.name);
        java_string(w, rec.sequence);
        java_string(w, rec.quality);
      }
      break;
    }
    case Codec::kKryoLike:
      for (const auto& rec : records) {
        w.str(rec.name);
        w.str(rec.sequence);
        w.str(rec.quality);
      }
      break;
    case Codec::kGpf:
      gpf_encode_fastq_records(w, records);
      break;
  }
}

}  // namespace

std::vector<std::uint8_t> encode_fastq_batch(
    std::span<const FastqRecord> records, Codec codec) {
  ByteWriter w;
  write_fastq_batch(w, records, codec);
  return w.take();
}

void encode_fastq_batch_into(std::span<const FastqRecord> records, Codec codec,
                             std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  write_fastq_batch(w, records, codec);
  out = w.take();
}

std::vector<FastqRecord> decode_fastq_batch(
    std::span<const std::uint8_t> bytes, Codec codec) {
  ByteReader r(bytes);
  const std::uint64_t count = check_batch_header(r, codec);
  std::vector<FastqRecord> records;
  records.reserve(count);
  switch (codec) {
    case Codec::kJavaLike: {
      // Skip the class descriptor.
      r.u16();
      r.str();
      r.u64();
      const std::uint16_t nfields = r.u16();
      for (std::uint16_t f = 0; f < nfields; ++f) {
        r.u8();
        r.str();
        r.str();
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        r.u8();
        FastqRecord rec;
        rec.name = java_read_string(r);
        rec.sequence = java_read_string(r);
        rec.quality = java_read_string(r);
        records.push_back(std::move(rec));
      }
      break;
    }
    case Codec::kKryoLike:
      for (std::uint64_t i = 0; i < count; ++i) {
        FastqRecord rec;
        rec.name = r.str();
        rec.sequence = r.str();
        rec.quality = r.str();
        records.push_back(std::move(rec));
      }
      break;
    case Codec::kGpf:
      records = gpf_decode_fastq_records(r, count);
      break;
  }
  return records;
}

// --- paired FASTQ -----------------------------------------------------------

namespace {

std::vector<FastqRecord> flatten_pairs(std::span<const FastqPair> pairs) {
  // Flatten mates into one record stream: first mates then second mates,
  // so the GPF codec trains one quality table over both.
  std::vector<FastqRecord> flat;
  flat.reserve(pairs.size() * 2);
  for (const auto& p : pairs) {
    flat.push_back(p.first);
    flat.push_back(p.second);
  }
  return flat;
}

}  // namespace

std::vector<std::uint8_t> encode_fastq_pair_batch(
    std::span<const FastqPair> pairs, Codec codec) {
  return encode_fastq_batch(flatten_pairs(pairs), codec);
}

void encode_fastq_pair_batch_into(std::span<const FastqPair> pairs,
                                  Codec codec,
                                  std::vector<std::uint8_t>& out) {
  encode_fastq_batch_into(flatten_pairs(pairs), codec, out);
}

std::vector<FastqPair> decode_fastq_pair_batch(
    std::span<const std::uint8_t> bytes, Codec codec) {
  auto flat = decode_fastq_batch(bytes, codec);
  if (flat.size() % 2 != 0) {
    throw std::invalid_argument("pair batch: odd record count");
  }
  std::vector<FastqPair> pairs;
  pairs.reserve(flat.size() / 2);
  for (std::size_t i = 0; i < flat.size(); i += 2) {
    pairs.push_back({std::move(flat[i]), std::move(flat[i + 1])});
  }
  return pairs;
}

// --- SAM --------------------------------------------------------------------

namespace {

void kryo_sam_record(ByteWriter& w, const SamRecord& rec) {
  w.str(rec.qname);
  w.uvarint(rec.flag);
  w.svarint(rec.contig_id);
  w.svarint(rec.pos);
  w.u8(rec.mapq);
  w.uvarint(rec.cigar.size());
  for (const auto& el : rec.cigar) {
    w.u8(static_cast<std::uint8_t>(el.op));
    w.uvarint(el.length);
  }
  w.svarint(rec.mate_contig_id);
  w.svarint(rec.mate_pos);
  w.svarint(rec.tlen);
  w.str(rec.sequence);
  w.str(rec.quality);
}

SamRecord kryo_read_sam_record(ByteReader& r) {
  SamRecord rec;
  rec.qname = r.str();
  rec.flag = static_cast<std::uint16_t>(r.uvarint());
  rec.contig_id = static_cast<std::int32_t>(r.svarint());
  rec.pos = r.svarint();
  rec.mapq = r.u8();
  // A CIGAR element is an op byte and a length varint.
  const std::size_t ncigar = read_count(r);
  rec.cigar.reserve(ncigar);
  for (std::size_t i = 0; i < ncigar; ++i) {
    const auto op = static_cast<CigarOp>(r.u8());
    rec.cigar.push_back({op, static_cast<std::uint32_t>(r.uvarint())});
  }
  rec.mate_contig_id = static_cast<std::int32_t>(r.svarint());
  rec.mate_pos = r.svarint();
  rec.tlen = r.svarint();
  rec.sequence = r.str();
  rec.quality = r.str();
  return rec;
}

/// GPF SAM layout: like Kryo for the "various fields" (which the paper
/// leaves uncompressed), but the sequence/quality pair goes through the
/// genomic codecs.
void gpf_sam_fixed_fields(ByteWriter& w, const SamRecord& rec) {
  w.str(rec.qname);
  w.uvarint(rec.flag);
  w.svarint(rec.contig_id);
  w.svarint(rec.pos);
  w.u8(rec.mapq);
  w.uvarint(rec.cigar.size());
  for (const auto& el : rec.cigar) {
    w.u8(static_cast<std::uint8_t>(el.op));
    w.uvarint(el.length);
  }
  w.svarint(rec.mate_contig_id);
  w.svarint(rec.mate_pos);
  w.svarint(rec.tlen);
}

SamRecord gpf_read_sam_fixed_fields(ByteReader& r) {
  SamRecord rec;
  rec.qname = r.str();
  rec.flag = static_cast<std::uint16_t>(r.uvarint());
  rec.contig_id = static_cast<std::int32_t>(r.svarint());
  rec.pos = r.svarint();
  rec.mapq = r.u8();
  // A CIGAR element is an op byte and a length varint.
  const std::size_t ncigar = read_count(r);
  rec.cigar.reserve(ncigar);
  for (std::size_t i = 0; i < ncigar; ++i) {
    const auto op = static_cast<CigarOp>(r.u8());
    rec.cigar.push_back({op, static_cast<std::uint32_t>(r.uvarint())});
  }
  rec.mate_contig_id = static_cast<std::int32_t>(r.svarint());
  rec.mate_pos = r.svarint();
  rec.tlen = r.svarint();
  return rec;
}

}  // namespace

namespace {

void write_sam_batch(ByteWriter& w, std::span<const SamRecord> records,
                     Codec codec) {
  batch_header(w, codec, records.size());
  switch (codec) {
    case Codec::kJavaLike: {
      static constexpr std::string_view kFields[] = {
          "qname", "flag", "contig", "pos",  "mapq", "cigar",
          "rnext", "pnext", "tlen",  "seq",  "qual"};
      java_class_descriptor(w, "org.gpf.formats.SamRecord", kFields);
      for (const auto& rec : records) {
        w.u8(kJavaObjectMarker);
        java_string(w, rec.qname);
        java_long(w, rec.flag);
        java_long(w, rec.contig_id);
        java_long(w, rec.pos);
        java_long(w, rec.mapq);
        java_string(w, cigar_to_string(rec.cigar));
        java_long(w, rec.mate_contig_id);
        java_long(w, rec.mate_pos);
        java_long(w, rec.tlen);
        java_string(w, rec.sequence);
        java_string(w, rec.quality);
      }
      break;
    }
    case Codec::kKryoLike:
      for (const auto& rec : records) kryo_sam_record(w, rec);
      break;
    case Codec::kGpf: {
      std::vector<std::string> qualities;
      std::vector<CompressedSequence> seqs;
      std::vector<EscapeFixups> fixups;
      qualities.reserve(records.size());
      seqs.reserve(records.size());
      fixups.reserve(records.size());
      for (const auto& rec : records) {
        fixups.push_back(EscapeFixups::collect(rec.sequence, rec.quality));
        std::string qual = rec.quality;
        seqs.push_back(compress_sequence(rec.sequence, qual));
        qualities.push_back(std::move(qual));
      }
      const QualityCodec qcodec = QualityCodec::train(qualities);
      const auto table = qcodec.serialize_table();
      w.uvarint(table.size());
      w.raw(std::span(table.data(), table.size()));
      BitWriter quals;
      for (const auto& q : qualities) qcodec.encode(q, quals);
      const auto qual_bits = quals.finish();
      for (std::size_t i = 0; i < records.size(); ++i) {
        gpf_sam_fixed_fields(w, records[i]);
        w.uvarint(seqs[i].length);
        w.raw(std::span(seqs[i].packed.data(), seqs[i].packed.size()));
        fixups[i].write(w);
      }
      w.uvarint(qual_bits.size());
      w.raw(std::span(qual_bits.data(), qual_bits.size()));
      break;
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode_sam_batch(std::span<const SamRecord> records,
                                           Codec codec) {
  ByteWriter w;
  write_sam_batch(w, records, codec);
  return w.take();
}

void encode_sam_batch_into(std::span<const SamRecord> records, Codec codec,
                           std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  write_sam_batch(w, records, codec);
  out = w.take();
}

std::vector<SamRecord> decode_sam_batch(std::span<const std::uint8_t> bytes,
                                        Codec codec) {
  ByteReader r(bytes);
  const std::uint64_t count = check_batch_header(r, codec);
  std::vector<SamRecord> records;
  records.reserve(count);
  switch (codec) {
    case Codec::kJavaLike: {
      r.u16();
      r.str();
      r.u64();
      const std::uint16_t nfields = r.u16();
      for (std::uint16_t f = 0; f < nfields; ++f) {
        r.u8();
        r.str();
        r.str();
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        r.u8();
        SamRecord rec;
        rec.qname = java_read_string(r);
        rec.flag = static_cast<std::uint16_t>(java_read_long(r));
        rec.contig_id = static_cast<std::int32_t>(java_read_long(r));
        rec.pos = java_read_long(r);
        rec.mapq = static_cast<std::uint8_t>(java_read_long(r));
        rec.cigar = parse_cigar(java_read_string(r));
        rec.mate_contig_id = static_cast<std::int32_t>(java_read_long(r));
        rec.mate_pos = java_read_long(r);
        rec.tlen = java_read_long(r);
        rec.sequence = java_read_string(r);
        rec.quality = java_read_string(r);
        records.push_back(std::move(rec));
      }
      break;
    }
    case Codec::kKryoLike:
      for (std::uint64_t i = 0; i < count; ++i) {
        records.push_back(kryo_read_sam_record(r));
      }
      break;
    case Codec::kGpf: {
      const std::size_t table_size = r.uvarint();
      const auto table = r.raw(table_size);
      const QualityCodec qcodec = QualityCodec::from_table(table);
      struct Pending {
        SamRecord rec;
        CompressedSequence seq;
        std::vector<std::uint8_t> fixup_bytes;
      };
      std::vector<Pending> pending;
      pending.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        Pending p;
        p.rec = gpf_read_sam_fixed_fields(r);
        p.seq.length = static_cast<std::uint32_t>(r.uvarint());
        const auto raw = r.raw(packed_size(p.seq.length));
        p.seq.packed.assign(raw.begin(), raw.end());
        ByteWriter fw;
        const std::uint64_t n = r.uvarint();
        fw.uvarint(n);
        for (std::uint64_t f = 0; f < n; ++f) {
          fw.uvarint(r.uvarint());
          fw.u8(r.u8());
        }
        p.fixup_bytes = fw.take();
        pending.push_back(std::move(p));
      }
      const std::size_t qual_bytes = r.uvarint();
      BitReader bits(r.raw(qual_bytes));
      for (auto& p : pending) {
        std::string qual = qcodec.decode(bits);
        p.rec.sequence = decompress_sequence(p.seq, qual);
        ByteReader fr(std::span(p.fixup_bytes.data(), p.fixup_bytes.size()));
        EscapeFixups::read_and_apply(fr, qual);
        p.rec.quality = std::move(qual);
        records.push_back(std::move(p.rec));
      }
      break;
    }
  }
  return records;
}

// --- VCF --------------------------------------------------------------------

namespace {

void write_vcf_batch(ByteWriter& w, std::span<const VcfRecord> records,
                     Codec codec) {
  batch_header(w, codec, records.size());
  switch (codec) {
    case Codec::kJavaLike: {
      static constexpr std::string_view kFields[] = {"contig", "pos", "id",
                                                     "ref",    "alt", "qual"};
      java_class_descriptor(w, "org.gpf.formats.VcfRecord", kFields);
      for (const auto& rec : records) {
        w.u8(kJavaObjectMarker);
        java_long(w, rec.contig_id);
        java_long(w, rec.pos);
        java_string(w, rec.id);
        java_string(w, rec.ref);
        java_string(w, rec.alt);
        java_long(w, static_cast<std::int64_t>(rec.qual * 100.0));
        java_long(w, static_cast<std::int64_t>(rec.genotype));
      }
      break;
    }
    case Codec::kKryoLike:
    case Codec::kGpf:
      // VCF is the small result file; GPF leaves it in the compact generic
      // layout (the paper compresses only FASTQ/SAM payload fields).
      for (const auto& rec : records) {
        w.svarint(rec.contig_id);
        w.svarint(rec.pos);
        w.str(rec.id);
        w.str(rec.ref);
        w.str(rec.alt);
        w.f64(rec.qual);
        w.u8(static_cast<std::uint8_t>(rec.genotype));
      }
      break;
  }
}

}  // namespace

std::vector<std::uint8_t> encode_vcf_batch(std::span<const VcfRecord> records,
                                           Codec codec) {
  ByteWriter w;
  write_vcf_batch(w, records, codec);
  return w.take();
}

void encode_vcf_batch_into(std::span<const VcfRecord> records, Codec codec,
                           std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  write_vcf_batch(w, records, codec);
  out = w.take();
}

std::vector<VcfRecord> decode_vcf_batch(std::span<const std::uint8_t> bytes,
                                        Codec codec) {
  ByteReader r(bytes);
  const std::uint64_t count = check_batch_header(r, codec);
  std::vector<VcfRecord> records;
  records.reserve(count);
  switch (codec) {
    case Codec::kJavaLike: {
      r.u16();
      r.str();
      r.u64();
      const std::uint16_t nfields = r.u16();
      for (std::uint16_t f = 0; f < nfields; ++f) {
        r.u8();
        r.str();
        r.str();
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        r.u8();
        VcfRecord rec;
        rec.contig_id = static_cast<std::int32_t>(java_read_long(r));
        rec.pos = java_read_long(r);
        rec.id = java_read_string(r);
        rec.ref = java_read_string(r);
        rec.alt = java_read_string(r);
        rec.qual = static_cast<double>(java_read_long(r)) / 100.0;
        rec.genotype = static_cast<Genotype>(java_read_long(r));
        records.push_back(std::move(rec));
      }
      break;
    }
    case Codec::kKryoLike:
    case Codec::kGpf:
      for (std::uint64_t i = 0; i < count; ++i) {
        VcfRecord rec;
        rec.contig_id = static_cast<std::int32_t>(r.svarint());
        rec.pos = r.svarint();
        rec.id = r.str();
        rec.ref = r.str();
        rec.alt = r.str();
        rec.qual = r.f64();
        rec.genotype = static_cast<Genotype>(r.u8());
        records.push_back(std::move(rec));
      }
      break;
  }
  return records;
}

// --- live size estimators ----------------------------------------------------

namespace {

/// Approximate heap footprint of a std::string (object + allocation).
std::size_t string_footprint(const std::string& s) {
  // SSO strings cost only the object; longer ones add a heap block.
  constexpr std::size_t kSso = 15;
  return sizeof(std::string) + (s.size() > kSso ? s.capacity() : 0);
}

}  // namespace

std::size_t live_size(const FastqRecord& r) {
  return string_footprint(r.name) + string_footprint(r.sequence) +
         string_footprint(r.quality);
}

std::size_t live_size(const FastqPair& p) {
  return live_size(p.first) + live_size(p.second);
}

std::size_t live_size(const SamRecord& r) {
  return string_footprint(r.qname) + string_footprint(r.sequence) +
         string_footprint(r.quality) + sizeof(SamRecord) -
         3 * sizeof(std::string) + r.cigar.capacity() * sizeof(CigarElement);
}

std::size_t live_size(const VcfRecord& r) {
  return string_footprint(r.id) + string_footprint(r.ref) +
         string_footprint(r.alt) + sizeof(VcfRecord) - 3 * sizeof(std::string);
}

}  // namespace gpf

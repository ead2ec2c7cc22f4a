#include "formats/sam.hpp"

#include <charconv>
#include <mutex>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpf {
namespace {

std::int64_t to_i64(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw std::invalid_argument("SAM: bad integer field: " + std::string(s));
  }
  return v;
}

// Byte-at-a-time on purpose: the reference parser is the benchmarking and
// differential-testing baseline for the block kernels.
std::string_view next_line(std::string_view text, std::size_t& i) {
  std::size_t eol = i;
  while (eol < text.size() && text[eol] != '\n') ++eol;
  std::string_view line = text.substr(i, eol - i);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  i = eol + 1;
  return line;
}

}  // namespace

std::int64_t SamRecord::unclipped_start() const {
  if (is_unmapped()) return pos;
  if (!is_reverse()) {
    std::int64_t start = pos;
    // Leading soft/hard clips shift the unclipped start left.
    for (const auto& el : cigar) {
      if (el.op == CigarOp::kSoftClip || el.op == CigarOp::kHardClip) {
        start -= el.length;
      } else {
        break;
      }
    }
    return start;
  }
  // Reverse strand: the biological 5' end is the alignment end plus any
  // trailing clips.
  std::int64_t end = end_pos();
  for (auto it = cigar.rbegin(); it != cigar.rend(); ++it) {
    if (it->op == CigarOp::kSoftClip || it->op == CigarOp::kHardClip) {
      end += it->length;
    } else {
      break;
    }
  }
  return end - 1;
}

void check_record_lengths(const SamRecord& rec) {
  if (!rec.quality.empty() && rec.quality.size() != rec.sequence.size()) {
    throw std::invalid_argument("SAM: QUAL length " +
                                std::to_string(rec.quality.size()) +
                                " differs from SEQ length " +
                                std::to_string(rec.sequence.size()));
  }
  if (rec.cigar.empty()) return;
  std::uint64_t query_length = 0;  // 64-bit: op lengths cannot wrap it
  for (const auto& el : rec.cigar) {
    if (consumes_read(el.op)) query_length += el.length;
  }
  if (query_length != rec.sequence.size() ||
      query_length != rec.quality.size()) {
    throw std::invalid_argument(
        "SAM: CIGAR covers " + std::to_string(query_length) +
        " query bases but SEQ has " + std::to_string(rec.sequence.size()) +
        " and QUAL " + std::to_string(rec.quality.size()));
  }
}

std::int32_t SamHeader::find_contig(std::string_view name) const {
  for (std::size_t i = 0; i < contigs.size(); ++i) {
    if (contigs[i].name == name) return static_cast<std::int32_t>(i);
  }
  return -1;
}

namespace detail {

void parse_sam_header_line(const std::vector<std::string_view>& fields,
                           SamHeader& header) {
  if (fields[0] == "@SQ") {
    SamHeader::ContigInfo info;
    for (const auto f : fields) {
      if (f.starts_with("SN:")) info.name = std::string(f.substr(3));
      if (f.starts_with("LN:")) info.length = to_i64(f.substr(3));
    }
    header.contigs.push_back(std::move(info));
  } else if (fields[0] == "@HD") {
    for (const auto f : fields) {
      if (f == "SO:coordinate") header.coordinate_sorted = true;
    }
  }
}

SamRecord parse_sam_record(simd::Level level,
                           const std::vector<std::string_view>& fields,
                           const SamHeader& header) {
  if (fields.size() < 11) {
    throw std::invalid_argument("SAM: record with <11 fields");
  }
  SamRecord rec;
  if (!fmt::bytes_in_range(level, fields[0], 0x21, 0x7E)) {
    throw std::invalid_argument("SAM: non-ASCII byte in QNAME");
  }
  rec.qname = std::string(fields[0]);
  rec.flag = static_cast<std::uint16_t>(to_i64(fields[1]));
  rec.contig_id = fields[2] == "*" ? -1 : header.find_contig(fields[2]);
  if (fields[2] != "*" && rec.contig_id < 0) {
    throw std::invalid_argument("SAM: unknown contig " +
                                std::string(fields[2]));
  }
  rec.pos = to_i64(fields[3]) - 1;  // SAM text is 1-based
  rec.mapq = static_cast<std::uint8_t>(to_i64(fields[4]));
  rec.cigar = parse_cigar(fields[5]);
  if (fields[6] == "=") {
    rec.mate_contig_id = rec.contig_id;
  } else if (fields[6] == "*") {
    rec.mate_contig_id = -1;
  } else {
    rec.mate_contig_id = header.find_contig(fields[6]);
  }
  rec.mate_pos = to_i64(fields[7]) - 1;
  rec.tlen = to_i64(fields[8]);
  if (!fmt::bytes_in_range(level, fields[9], 0x21, 0x7E)) {
    throw std::invalid_argument("SAM: non-ASCII byte in SEQ");
  }
  if (!fmt::bytes_in_range(level, fields[10], 0x21, 0x7E)) {
    throw std::invalid_argument("SAM: non-ASCII byte in QUAL");
  }
  rec.sequence = fields[9] == "*" ? "" : std::string(fields[9]);
  rec.quality = fields[10] == "*" ? "" : std::string(fields[10]);
  check_record_lengths(rec);
  return rec;
}

SamFile parse_sam_reference(std::string_view text) {
  SamFile file;
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    const std::string_view line = next_line(text, i);
    if (line.empty()) continue;
    fmt::detail::split_fields_reference(line, '\t', fields);
    if (line.front() == '@') {
      parse_sam_header_line(fields, file.header);
      continue;
    }
    file.records.push_back(
        parse_sam_record(simd::Level::kScalar, fields, file.header));
  }
  return file;
}

SamFile parse_sam_at(simd::Level level, std::string_view text,
                     std::size_t parallel_threshold) {
  trace::ScopedSpan span("parse_sam", trace::SpanKind::kParse);
  const fmt::LineIndex lines(level, text, parallel_threshold);
  const std::size_t n = lines.line_count();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Classify lines.  Header ("@") lines must all precede record lines for
  // the batch plan to be valid; interleaved headers change which contig
  // dictionary later records resolve against, so that rare shape falls
  // back to the sequential reference parser.
  std::vector<std::uint32_t> record_lines;
  record_lines.reserve(n);
  std::size_t first_record = kNone;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view line = lines.line(i);
    if (line.empty()) continue;
    if (line.front() == '@') {
      if (first_record != kNone) return parse_sam_reference(text);
    } else {
      if (first_record == kNone) first_record = i;
      record_lines.push_back(static_cast<std::uint32_t>(i));
    }
  }

  SamFile file;
  std::vector<std::string_view> header_fields;
  const std::size_t header_end = first_record == kNone ? n : first_record;
  for (std::size_t i = 0; i < header_end; ++i) {
    const std::string_view line = lines.line(i);
    if (line.empty()) continue;
    fmt::split_fields(level, line, '\t', header_fields);
    parse_sam_header_line(header_fields, file.header);
  }

  const std::size_t count = record_lines.size();
  file.records.assign(count, {});
  std::mutex mu;
  std::size_t first_bad = kNone;
  std::string first_error;
  const auto do_record = [&](std::size_t k) {
    static thread_local std::vector<std::string_view> fields;
    try {
      fmt::split_fields(level, lines.line(record_lines[k]), '\t', fields);
      file.records[k] = parse_sam_record(level, fields, file.header);
    } catch (const std::invalid_argument& e) {
      std::lock_guard lock(mu);
      if (k < first_bad) {
        first_bad = k;
        first_error = e.what();
      }
    }
  };
  if (text.size() >= parallel_threshold) {
    ThreadPool::global().parallel_for(count, do_record);
  } else {
    for (std::size_t k = 0; k < count; ++k) {
      do_record(k);
      if (first_bad != kNone) break;
    }
  }
  if (first_bad != kNone) throw std::invalid_argument(first_error);
  return file;
}

}  // namespace detail

SamFile parse_sam(std::string_view text) {
  return detail::parse_sam_at(simd::active_level(), text);
}

std::string write_sam(const SamHeader& header,
                      const std::vector<SamRecord>& records) {
  std::string out;
  out += "@HD\tVN:1.6\tSO:";
  out += header.coordinate_sorted ? "coordinate" : "unsorted";
  out += '\n';
  for (const auto& c : header.contigs) {
    out += "@SQ\tSN:" + c.name + "\tLN:" + std::to_string(c.length) + '\n';
  }
  for (const auto& r : records) {
    out += r.qname;
    out += '\t';
    out += std::to_string(r.flag);
    out += '\t';
    out += r.contig_id < 0 ? "*" : header.contigs.at(r.contig_id).name;
    out += '\t';
    out += std::to_string(r.pos + 1);
    out += '\t';
    out += std::to_string(r.mapq);
    out += '\t';
    out += cigar_to_string(r.cigar);
    out += '\t';
    if (r.mate_contig_id < 0) {
      out += '*';
    } else if (r.mate_contig_id == r.contig_id) {
      out += '=';
    } else {
      out += header.contigs.at(r.mate_contig_id).name;
    }
    out += '\t';
    out += std::to_string(r.mate_pos + 1);
    out += '\t';
    out += std::to_string(r.tlen);
    out += '\t';
    out += r.sequence.empty() ? "*" : r.sequence;
    out += '\t';
    out += r.quality.empty() ? "*" : r.quality;
    out += '\n';
  }
  return out;
}

bool coordinate_less(const SamRecord& a, const SamRecord& b) {
  const bool a_unmapped = a.is_unmapped() || a.contig_id < 0;
  const bool b_unmapped = b.is_unmapped() || b.contig_id < 0;
  if (a_unmapped != b_unmapped) return b_unmapped;  // unmapped sort last
  if (a_unmapped) return a.qname < b.qname;
  if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
  if (a.pos != b.pos) return a.pos < b.pos;
  if (a.is_reverse() != b.is_reverse()) return b.is_reverse();
  return a.qname < b.qname;
}

}  // namespace gpf

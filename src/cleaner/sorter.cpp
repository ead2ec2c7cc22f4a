#include "cleaner/sorter.hpp"

#include <algorithm>
#include <queue>

namespace gpf::cleaner {

void coordinate_sort(std::vector<SamRecord>& records) {
  std::stable_sort(records.begin(), records.end(), coordinate_less);
}

bool is_coordinate_sorted(const std::vector<SamRecord>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (coordinate_less(records[i], records[i - 1])) return false;
  }
  return true;
}

const std::vector<SamRecord>& coordinate_sorted(
    const std::vector<SamRecord>& records, std::vector<SamRecord>& scratch) {
  if (is_coordinate_sorted(records)) return records;
  scratch = records;
  coordinate_sort(scratch);
  return scratch;
}

std::vector<SamRecord> merge_sorted_runs(
    std::vector<std::vector<SamRecord>> runs) {
  // K-way merge with a heap of (run, index) cursors.
  struct Cursor {
    std::size_t run;
    std::size_t index;
  };
  auto greater = [&runs](const Cursor& a, const Cursor& b) {
    return coordinate_less(runs[b.run][b.index], runs[a.run][a.index]);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  std::size_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.push({r, 0});
  }
  std::vector<SamRecord> out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    out.push_back(std::move(runs[c.run][c.index]));
    if (++c.index < runs[c.run].size()) heap.push(c);
  }
  return out;
}

LinearIndex::LinearIndex(const std::vector<SamRecord>& sorted_records,
                         std::size_t contig_count)
    : record_count_(sorted_records.size()) {
  windows_.resize(contig_count);
  for (std::size_t i = 0; i < sorted_records.size(); ++i) {
    const auto& rec = sorted_records[i];
    if (rec.contig_id < 0 || rec.is_unmapped()) continue;
    auto& wins = windows_[static_cast<std::size_t>(rec.contig_id)];
    const auto win = static_cast<std::size_t>(rec.pos / kWindow);
    if (wins.size() <= win) wins.resize(win + 1, record_count_);
    if (wins[win] == record_count_) wins[win] = i;
  }
  // Back-fill empty windows with the next populated one so lookups can
  // always scan forward.
  for (auto& wins : windows_) {
    std::size_t next = record_count_;
    for (std::size_t w = wins.size(); w-- > 0;) {
      if (wins[w] == record_count_) {
        wins[w] = next;
      } else {
        next = wins[w];
      }
    }
  }
}

std::size_t LinearIndex::first_candidate(std::int32_t contig_id,
                                         std::int64_t pos) const {
  if (contig_id < 0 ||
      static_cast<std::size_t>(contig_id) >= windows_.size()) {
    return record_count_;
  }
  const auto& wins = windows_[static_cast<std::size_t>(contig_id)];
  const auto win = static_cast<std::size_t>(std::max<std::int64_t>(0, pos) /
                                            kWindow);
  if (win >= wins.size()) return record_count_;
  return wins[win];
}

}  // namespace gpf::cleaner

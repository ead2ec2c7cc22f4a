// Tests for the tracing subsystem: recorder semantics, the Chrome
// trace_event exporter, and the golden-shape check — a faulted engine run
// whose exported trace must be valid JSON with monotonic per-track
// timestamps and visible retry / speculative / shuffle spans.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hpp"
#include "engine/dataset.hpp"
#include "engine/fault_injector.hpp"
#include "simcluster/cluster.hpp"
#include "test_codecs.hpp"

namespace gpf::trace {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader — just enough to validate the exporter's output
// without an external dependency.  Throws std::runtime_error on malformed
// input; the tests treat any throw as a failure.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const {
    return type == Type::kObject && object.count(key) > 0;
  }
  const JsonValue& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("missing key: " + key);
    return object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (i_ != s_.size()) throw std::runtime_error("trailing junk");
    return v;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' got '" +
                               peek() + "'");
    }
    ++i_;
  }

  bool try_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(i_, n, lit) == 0) {
      i_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.str = string();
      return v;
    }
    if (try_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (try_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (try_literal("null")) return v;
    return number();
  }

  JsonValue number() {
    const char* start = s_.c_str() + i_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) throw std::runtime_error("bad number");
    i_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = d;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) throw std::runtime_error("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) throw std::runtime_error("bad escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(s_.substr(i_, 4).c_str(), nullptr, 16));
          i_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          throw std::runtime_error("bad escape char");
      }
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ---------------------------------------------------------------------------

std::vector<int> iota_vec(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// RAII guard: whatever a test does, the global recorder leaves disabled
/// and empty so later tests (and other suites) see a clean slate.
struct RecorderGuard {
  RecorderGuard() { TraceRecorder::global().clear(); }
  ~RecorderGuard() {
    TraceRecorder::global().disable();
    TraceRecorder::global().clear();
  }
};

TEST(TraceRecorder, DisabledRecordsNothing) {
  RecorderGuard guard;
  auto& r = TraceRecorder::global();
  ASSERT_FALSE(r.enabled());
  r.record(Span{.name = "x"});
  { ScopedSpan s("y", SpanKind::kTask); }
  EXPECT_TRUE(r.drain().empty());
}

TEST(TraceRecorder, ScopedSpanRecordsAndMarksFailure) {
  RecorderGuard guard;
  auto& r = TraceRecorder::global();
  r.enable();
  { ScopedSpan ok("fine", SpanKind::kStage); }
  try {
    ScopedSpan bad("boom", SpanKind::kTask, /*task=*/7, /*attempt=*/0);
    throw std::runtime_error("injected");
  } catch (const std::runtime_error&) {
  }
  r.disable();
  const auto spans = r.drain();
  ASSERT_EQ(spans.size(), 2u);
  bool saw_ok = false;
  bool saw_failed = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.dur_us, 0.0);
    if (s.name == "fine") {
      saw_ok = true;
      EXPECT_FALSE(s.failed);
    }
    if (s.name == "boom") {
      saw_failed = true;
      EXPECT_TRUE(s.failed);
      EXPECT_EQ(s.task, 7);
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_failed);
}

TEST(TraceRecorder, DrainClearsBuffers) {
  RecorderGuard guard;
  auto& r = TraceRecorder::global();
  r.enable();
  r.record(Span{.name = "once"});
  r.disable();
  EXPECT_EQ(r.drain().size(), 1u);
  EXPECT_TRUE(r.drain().empty());
}

TEST(ChromeTrace, EscapesAwkwardNames) {
  std::vector<Span> spans(1);
  spans[0].name = "we\"ird\\name\nwith\tcontrols";
  spans[0].kind = SpanKind::kStage;
  const std::string json = write_chrome_trace(spans);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse());
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  bool found = false;
  for (const auto& e : events.array) {
    if (e.at("ph").str == "X") {
      EXPECT_EQ(e.at("name").str, spans[0].name);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Regression: span names are arbitrary bytes (a hostile FASTQ header or a
// corrupted stage label can carry anything), and the exporter must still
// emit valid JSON.  Invalid UTF-8 is escaped as \u00XX; valid multi-byte
// UTF-8 passes through untouched.  The reference parser folds \u escapes
// >= 0x80 to '?', which gives the expected round-trip below.
TEST(ChromeTrace, ArbitraryByteNamesStayValidJson) {
  struct Case {
    std::string name;      // raw span name
    std::string expected;  // after the parser's '?' folding
  };
  const std::vector<Case> cases = {
      // Control characters round-trip exactly (escaped, then unescaped).
      {std::string("\x01\x02\x1f ctrl\x7f", 9),
       std::string("\x01\x02\x1f ctrl\x7f", 9)},
      // Bytes that can never appear in UTF-8.
      {"bad\xff\xfe tail", "bad?? tail"},
      // A lone continuation byte and a stray start byte.
      {"\x80 mid \xc2", "? mid ?"},
      // Valid multi-byte UTF-8 passes through raw.
      {"g\xc3\xa9nome \xf0\x9f\xa7\xac", "g\xc3\xa9nome \xf0\x9f\xa7\xac"},
      // Truncated 3-byte sequence at the end of the name.
      {"abc\xe2\x82", "abc??"},
      // Overlong encoding of '/' — must not pass as UTF-8.
      {"\xc0\xaf", "??"},
      // UTF-16 surrogate encoded as UTF-8 — invalid.
      {"\xed\xa0\x80", "???"},
      // Quotes and backslashes mixed with junk.
      {"a\"b\\c\xff", "a\"b\\c?"},
  };
  std::vector<Span> spans;
  for (const auto& c : cases) {
    Span s;
    s.name = c.name;
    s.kind = SpanKind::kStage;
    spans.push_back(std::move(s));
  }
  const std::string json = write_chrome_trace(spans);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse()) << json;
  std::vector<std::string> names;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.at("ph").str == "X") names.push_back(e.at("name").str);
  }
  ASSERT_EQ(names.size(), cases.size());
  // write_chrome_trace sorts by track, which preserves the input order for
  // same-track spans (stable sort).
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(names[i], cases[i].expected) << "case " << i;
  }
}

// Every possible single-byte name must still export as parseable JSON.
TEST(ChromeTrace, EverySingleByteNameParses) {
  std::vector<Span> spans;
  for (int b = 0; b < 256; ++b) {
    Span s;
    s.name = std::string(1, static_cast<char>(b));
    s.kind = SpanKind::kStage;
    spans.push_back(std::move(s));
  }
  const std::string json = write_chrome_trace(spans);
  EXPECT_NO_THROW(JsonParser(json).parse());
}

TEST(ChromeTrace, EmptySpanListIsStillValidJson) {
  const std::string json = write_chrome_trace(std::vector<Span>{});
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

// The golden-shape test: a faulted engine run (one injected failure, one
// straggler past the speculation threshold) plus a simulated replay must
// export as valid Chrome trace JSON whose per-track timestamps are
// monotonic and whose retry / speculative / shuffle spans are present.
TEST(ChromeTrace, FaultedEngineRunGoldenShape) {
  RecorderGuard guard;
  auto& recorder = TraceRecorder::global();
  recorder.enable();

  engine::Engine engine({.worker_threads = 4});
  engine.set_fault_injector(std::make_shared<engine::FaultInjector>(
      11, std::vector<engine::FaultRule>{
              engine::FaultRule::fail_task("double", /*task=*/5),
              engine::FaultRule::delay_task("double", /*task=*/3,
                                            /*delay_ms=*/120.0)}));
  auto ds = engine.parallelize(iota_vec(64), 8)
                .map("double", [](const int& x) { return 2 * x; });
  auto shuffled = ds.with_codec(tests::pod_codec<int>())
                      .shuffle("bykey", 4, [](const int& x) {
                        return static_cast<std::uint64_t>(x % 4);
                      });
  EXPECT_EQ(shuffled.count(), 64u);

  recorder.disable();
  std::vector<Span> spans = recorder.drain();
  ASSERT_FALSE(spans.empty());

  // Ride a small virtual replay alongside, as gpf_tool trace does.
  sim::SimJob job;
  job.stages.push_back(
      {"double", std::vector<sim::SimTask>(8, {0.01, 0, 0, 0}), "phase"});
  auto sim_spans =
      sim::simulate_to_spans(job, sim::ClusterConfig::with_cores(4));
  spans.insert(spans.end(), sim_spans.begin(), sim_spans.end());

  const std::string json = write_chrome_trace(spans);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse());
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);

  bool named_pid0 = false;
  bool named_pid1 = false;
  bool saw_retry = false;
  bool saw_failed = false;
  bool saw_speculative = false;
  bool saw_ser = false;
  bool saw_deser = false;
  bool saw_stage = false;
  bool saw_sim_task = false;
  std::map<std::pair<double, double>, double> last_ts;
  for (const auto& e : events.array) {
    const std::string& ph = e.at("ph").str;
    if (ph == "M") {
      if (e.at("pid").number == 0.0) named_pid0 = true;
      if (e.at("pid").number == 1.0) named_pid1 = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const double ts = e.at("ts").number;
    const double dur = e.at("dur").number;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    // Monotonic within each (pid, tid) track, in file order.
    const auto key =
        std::make_pair(e.at("pid").number, e.at("tid").number);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[key] = ts;

    const std::string& cat = e.at("cat").str;
    const auto& args = e.at("args");
    if (cat == "stage") saw_stage = true;
    if (cat == "shuffle_ser") saw_ser = true;
    if (cat == "shuffle_deser") saw_deser = true;
    if (cat == "sim_task") {
      saw_sim_task = true;
      EXPECT_EQ(e.at("pid").number, 1.0);
    }
    if (cat == "task") {
      EXPECT_EQ(e.at("pid").number, 0.0);
      if (args.at("retry").boolean) saw_retry = true;
      if (args.at("failed").boolean) saw_failed = true;
      if (args.at("speculative").boolean) {
        saw_speculative = true;
        EXPECT_EQ(args.at("attempt").number, -1.0);
      }
    }
  }
  EXPECT_TRUE(named_pid0);
  EXPECT_TRUE(named_pid1);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_ser);
  EXPECT_TRUE(saw_deser);
  EXPECT_TRUE(saw_retry);        // task 5's injected failure was retried
  EXPECT_TRUE(saw_failed);       // ...and the failed attempt is on the track
  EXPECT_TRUE(saw_speculative);  // task 3's straggler launched a copy
  EXPECT_TRUE(saw_sim_task);
}

}  // namespace
}  // namespace gpf::trace

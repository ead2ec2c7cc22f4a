// gpf_worker — the worker process of the distributed runtime.
//
//   gpf_worker [--port=N] [--id=K] [--trace-out=FILE]
//
// Binds 127.0.0.1:<port> (0 = kernel-assigned), prints
// "GPF_WORKER_READY port=<bound port>" on stdout (the driver's spawn
// handshake), then serves until a kShutdown frame arrives.  With
// --trace-out, the worker's task spans are exported as Chrome trace JSON
// on exit.  A malformed --port or --id (empty, trailing junk, out of
// range) exits with status 2, like an unknown flag.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/trace.hpp"
#include "runtime/worker.hpp"

namespace {

bool parse_flag(const char* arg, const char* name, std::string& value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  value = arg + n + 1;
  return true;
}

/// Parses all of `value` as a base-10 integer of type T; false on an
/// empty value, trailing junk, or a value out of T's range.
template <typename T>
bool parse_whole(const std::string& value, T& out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  gpf::runtime::WorkerConfig config;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--port", value)) {
      if (!parse_whole(value, config.port)) {
        std::fprintf(stderr, "gpf_worker: bad port '%s' (want 0-65535)\n",
                     value.c_str());
        return 2;
      }
    } else if (parse_flag(argv[i], "--id", value)) {
      if (!parse_whole(value, config.worker_id)) {
        std::fprintf(stderr, "gpf_worker: bad worker id '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (parse_flag(argv[i], "--trace-out", value)) {
      trace_out = value;
    } else {
      std::fprintf(stderr, "gpf_worker: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  gpf::runtime::register_builtin_tasks();
  if (!trace_out.empty()) gpf::trace::TraceRecorder::global().enable();

  try {
    gpf::runtime::WorkerServer server(config);
    std::printf("GPF_WORKER_READY port=%u\n", server.port());
    std::fflush(stdout);
    server.serve();
    if (!trace_out.empty()) {
      const auto spans = gpf::trace::TraceRecorder::global().drain();
      gpf::trace::write_chrome_trace_file(trace_out, spans);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpf_worker: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}

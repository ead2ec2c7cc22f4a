// Wire protocol of the driver/worker runtime.
//
// Message payloads are ByteWriter/ByteReader streams (the same primitives
// every record codec in the repo uses), carried inside net::Frame frames.
// A "block" is the codec-encoded bytes of one map task's bucket for one
// reduce partition, pushed by the driver and guarded by fnv1a64
// (common/checksum.hpp) exactly like the in-process shuffle path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace gpf::runtime {

/// Frame types.  Requests are even-numbered spiritually but kept simple:
/// each request names its success and error responses.
enum MessageType : std::uint32_t {
  kPing = 1,
  kPong = 2,
  kRunTask = 3,
  kTaskOk = 4,
  kTaskError = 5,
  kFetchBlock = 6,
  kBlockData = 7,
  kBlockError = 8,
  kShutdown = 9,
  kShutdownOk = 10,
};

/// Machine-readable reason inside a kTaskError payload.
enum class TaskErrorCode : std::uint8_t {
  kUnknownKind = 1,   // no registered handler for the task kind
  kExecution = 2,     // the handler threw
  kMissingBlock = 3,  // a shuffle block is gone or failed its checksum
};

/// One task dispatched to a worker: a registered handler name plus an
/// opaque payload the handler parses.  `task` and `attempt` mirror the
/// stage executor's identifiers so worker-side trace spans line up with
/// driver-side ones.
struct TaskRequest {
  std::string kind;
  std::string stage;
  std::uint64_t task = 0;
  std::int32_t attempt = 0;
  std::vector<std::uint8_t> payload;
};

struct TaskError {
  TaskErrorCode code = TaskErrorCode::kExecution;
  /// For kMissingBlock: the map task whose block could not be fetched.
  std::uint64_t detail = 0;
  std::string message;
};

/// Identifies one shuffle block: (stage, map task, reduce partition).
struct BlockId {
  std::string stage;
  std::uint64_t map_task = 0;
  std::uint64_t reduce_part = 0;

  std::string key() const {
    return stage + "/" + std::to_string(map_task) + "/" +
           std::to_string(reduce_part);
  }
};

void encode_task_request(ByteWriter& w, const TaskRequest& req);
TaskRequest decode_task_request(ByteReader& r);

void encode_task_error(ByteWriter& w, const TaskError& err);
TaskError decode_task_error(ByteReader& r);

void encode_block_id(ByteWriter& w, const BlockId& id);
BlockId decode_block_id(ByteReader& r);

}  // namespace gpf::runtime

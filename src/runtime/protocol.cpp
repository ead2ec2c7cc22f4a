#include "runtime/protocol.hpp"

namespace gpf::runtime {

void encode_task_request(ByteWriter& w, const TaskRequest& req) {
  w.str(req.kind);
  w.str(req.stage);
  w.u64(req.task);
  w.i32(req.attempt);
  w.raw(std::span<const std::uint8_t>(req.payload.data(),
                                      req.payload.size()));
}

TaskRequest decode_task_request(ByteReader& r) {
  TaskRequest req;
  req.kind = r.str();
  req.stage = r.str();
  req.task = r.u64();
  req.attempt = r.i32();
  const auto rest = r.raw(r.remaining());
  req.payload.assign(rest.begin(), rest.end());
  return req;
}

void encode_task_error(ByteWriter& w, const TaskError& err) {
  w.u8(static_cast<std::uint8_t>(err.code));
  w.u64(err.detail);
  w.str(err.message);
}

TaskError decode_task_error(ByteReader& r) {
  TaskError err;
  err.code = static_cast<TaskErrorCode>(r.u8());
  err.detail = r.u64();
  err.message = r.str();
  return err;
}

void encode_block_id(ByteWriter& w, const BlockId& id) {
  w.str(id.stage);
  w.u64(id.map_task);
  w.u64(id.reduce_part);
}

BlockId decode_block_id(ByteReader& r) {
  BlockId id;
  id.stage = r.str();
  id.map_task = r.u64();
  id.reduce_part = r.u64();
  return id;
}

}  // namespace gpf::runtime

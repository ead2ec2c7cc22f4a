// Typed error surface of the out-of-core chunk store.
//
// Every way a chunk can be bad maps to a distinct exception type, so
// callers (and tests) can tell "the disk/OS failed" from "the file is
// torn or not a chunk" from "the bytes are there but damaged".  The
// explicit contract, mirrored by the format tests: a torn write,
// truncated footer, or flipped byte is ALWAYS a typed error — never a
// silently-short decode.
#pragma once

#include <stdexcept>
#include <string>

namespace gpf::store {

/// Base of every chunk-store error.
class ChunkError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The OS said no: open/stat/mmap/write failures, with errno context.
class ChunkIoError : public ChunkError {
 public:
  using ChunkError::ChunkError;
};

/// The bytes do not parse as a chunk: missing/mismatched end magic (torn
/// write or foreign file), truncated footer, out-of-range column extents
/// or a column count the footer cannot hold.
class ChunkFormatError : public ChunkError {
 public:
  using ChunkError::ChunkError;
};

/// The chunk parses but its content is damaged: a footer or column block
/// whose checksum does not match.
class ChunkCorruptionError : public ChunkError {
 public:
  using ChunkError::ChunkError;
};

}  // namespace gpf::store

/**
 * @file
 * Versioned binary serialization of lir::Kernel for the on-disk kernel
 * cache tier.
 *
 * The format is a flat little-endian byte stream covering every LIR
 * construct: kernel header, tensor and global declarations (data types
 * and layouts included), and the whole structured body — all nineteen
 * leaf operations plus loops, branches, assignments, break/continue,
 * with full expression trees. Round-tripping is byte-identical:
 * serializeKernel(deserializeKernel(bytes)) == bytes, and the
 * deserialized kernel prints and executes identically to the original
 * (pinned by the whole-DRAM oracle in tests/test_cache.cc).
 *
 * Variables are interned: the first reference defines name + dtype and
 * assigns a stream-local index, later references are index-only. The
 * special variables (tidVar, workspaceVar, blockIdxVar) are encoded by
 * role and rebound to the loading process's singletons — the micro-op
 * decoder and the interpreter recognize them by identity, so mapping
 * them to fresh variables would silently break decoding. Ordinary
 * variables are recreated with fresh process-unique ids; the runtime
 * binds launch arguments by parameter name, so handles from any
 * equivalent build of the program keep working.
 *
 * Each leaf op is written as its stable OpTag byte followed by its
 * fields, each encoded by its C++ type (codec.h) in the order
 * lir::forEachField lists them; kernel headers and declarations are
 * listed the same way, once for both directions. Adding a new LIR op?
 * Give it an OpTag in serialize.cc and its line in lir::forEachField
 * (and a decoder case in src/sim/microop.cc); the version constant in
 * fingerprint.h must be bumped whenever encodings change shape.
 */
#pragma once

#include <string>

#include "cache/codec.h"
#include "lir/lir.h"

namespace tilus {
namespace cache {

/** Encode a kernel as a self-contained binary payload. */
std::string serializeKernel(const lir::Kernel &kernel);

/**
 * Decode a payload produced by serializeKernel (of the same
 * kCacheFormatVersion). Throws CacheFormatError on truncated or
 * corrupted input; never crashes on hostile bytes.
 */
lir::Kernel deserializeKernel(const std::string &payload);

} // namespace cache
} // namespace tilus

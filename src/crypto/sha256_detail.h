// The SHA-256 block functions behind crypto::Sha256, for tests that
// cross-check the hardware path against the portable reference. Not an
// API: Sha256 picks its block function itself.
#pragma once

#include "crypto/sha256.h"

namespace scv::crypto::detail
{
  /// FIPS 180-4 compression in plain C++; the reference.
  void blocks_portable(uint32_t* state, const uint8_t* data, size_t blocks);

  /// The same compression through the x86 SHA extensions. Call only when
  /// cpu_has_sha_ni().
  void blocks_sha_ni(uint32_t* state, const uint8_t* data, size_t blocks);

  /// Whether this CPU runs blocks_sha_ni: cpuid reports SHA (leaf 7, EBX
  /// bit 29), SSSE3 and SSE4.1. Always false off x86.
  bool cpu_has_sha_ni();

  /// The block function Sha256 uses, chosen once.
  BlockFn active_blocks();
}

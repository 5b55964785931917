// From-scratch SHA-256 (FIPS 180-4).
//
// CCF's ledger integrity rests on a Merkle tree of SHA-256 digests whose
// root is embedded in signature transactions (§2.1). Every ledger entry,
// Merkle interior node and signature HMAC goes through here, so the block
// function is chosen once from cpuid: the x86 SHA extensions (SHA-NI)
// when the CPU has them, else a portable implementation that stays the
// reference and the fallback. Both give the same digests; only speed
// differs (crypto/sha256_detail.h exposes them to the tests that check
// it).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scv::crypto
{
  using Digest = std::array<uint8_t, 32>;

  namespace detail
  {
    /// Compresses `blocks` consecutive 64-byte blocks at `data` into the
    /// eight-word chaining `state`.
    using BlockFn =
      void (*)(uint32_t* state, const uint8_t* data, size_t blocks);

    /// SHA-256 of a message through the given block function.
    Digest sha256_with(BlockFn blocks, const uint8_t* data, size_t size);
  }

  /// Incremental SHA-256 hasher.
  class Sha256
  {
  public:
    Sha256();

    void update(const uint8_t* data, size_t size);
    void update(std::string_view s);
    void update(const std::vector<uint8_t>& data);

    /// Finalizes and returns the digest. The hasher must not be reused
    /// afterwards without reset().
    Digest finalize();

    void reset();

  private:
    friend Digest detail::sha256_with(
      detail::BlockFn blocks, const uint8_t* data, size_t size);

    explicit Sha256(detail::BlockFn blocks);

    detail::BlockFn blocks_;
    std::array<uint32_t, 8> state_{};
    std::array<uint8_t, 64> buffer_{};
    size_t buffer_len_ = 0;
    uint64_t total_len_ = 0;
  };

  Digest sha256(const uint8_t* data, size_t size);
  Digest sha256(std::string_view s);
  Digest sha256(const std::vector<uint8_t>& data);

  std::string digest_to_hex(const Digest& d);
}

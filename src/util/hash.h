// Non-cryptographic hashing and byte-serialization helpers.
//
// The engines fingerprint states by serializing them into a byte buffer
// (ByteSink) and hashing the bytes with digest64(), the 64-bit xxHash
// (XXH64, seed 0): four 8-byte lanes over 32-byte stripes, then 8-, 4-
// and 1-byte tails and a final avalanche. It reads 8 bytes per step where
// FNV-1a reads one, which matters because every generated state is
// fingerprinted. Serialization must be canonical: equal states produce
// equal byte sequences.
//
// fnv1a() remains for small keyed mixes (symmetry signatures) and for
// tests that pin states independently of the fingerprint function.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace scv
{
  inline constexpr uint64_t fnv1a_init = 0xcbf29ce484222325ULL;
  inline constexpr uint64_t fnv1a_prime = 0x100000001b3ULL;

  constexpr uint64_t fnv1a(
    const uint8_t* data, size_t size, uint64_t seed = fnv1a_init)
  {
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i)
    {
      h ^= data[i];
      h *= fnv1a_prime;
    }
    return h;
  }

  inline uint64_t fnv1a(std::string_view s, uint64_t seed = fnv1a_init)
  {
    return fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size(), seed);
  }

  namespace hash_detail
  {
    inline constexpr uint64_t p1 = 0x9e3779b185ebca87ULL;
    inline constexpr uint64_t p2 = 0xc2b2ae3d27d4eb4fULL;
    inline constexpr uint64_t p3 = 0x165667b19e3779f9ULL;
    inline constexpr uint64_t p4 = 0x85ebca77c2b2ae63ULL;
    inline constexpr uint64_t p5 = 0x27d4eb2f165667c5ULL;

    /// Little-endian loads, so a digest is the same on every host.
    inline uint64_t load64(const uint8_t* p)
    {
      uint64_t v = 0;
      std::memcpy(&v, p, sizeof(v));
      if constexpr (std::endian::native == std::endian::big)
      {
        v = __builtin_bswap64(v);
      }
      return v;
    }

    inline uint64_t load32(const uint8_t* p)
    {
      uint32_t v = 0;
      std::memcpy(&v, p, sizeof(v));
      if constexpr (std::endian::native == std::endian::big)
      {
        v = __builtin_bswap32(v);
      }
      return v;
    }

    inline uint64_t round(uint64_t acc, uint64_t input)
    {
      return std::rotl(acc + input * p2, 31) * p1;
    }

    inline uint64_t merge(uint64_t h, uint64_t lane)
    {
      return (h ^ round(0, lane)) * p1 + p4;
    }
  }

  /// 64-bit digest of a byte string (XXH64 with seed 0). The state
  /// fingerprint: ByteSink::digest() and canonical_fingerprint() both
  /// hash through here.
  inline uint64_t digest64(const uint8_t* data, size_t size)
  {
    using namespace hash_detail;
    const uint8_t* p = data;
    const uint8_t* const end = data + size;
    uint64_t h = 0;
    if (size >= 32)
    {
      uint64_t v1 = p1 + p2;
      uint64_t v2 = p2;
      uint64_t v3 = 0;
      uint64_t v4 = 0 - p1;
      for (; end - p >= 32; p += 32)
      {
        v1 = round(v1, load64(p));
        v2 = round(v2, load64(p + 8));
        v3 = round(v3, load64(p + 16));
        v4 = round(v4, load64(p + 24));
      }
      h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
      h = merge(merge(merge(merge(h, v1), v2), v3), v4);
    }
    else
    {
      h = p5;
    }
    h += size;
    for (; end - p >= 8; p += 8)
    {
      h = std::rotl(h ^ round(0, load64(p)), 27) * p1 + p4;
    }
    if (end - p >= 4)
    {
      h = std::rotl(h ^ (load32(p) * p1), 23) * p2 + p3;
      p += 4;
    }
    for (; p < end; ++p)
    {
      h = std::rotl(h ^ (*p * p5), 11) * p1;
    }
    h ^= h >> 33;
    h *= p2;
    h ^= h >> 29;
    h *= p3;
    h ^= h >> 32;
    return h;
  }

  /// boost-style hash combiner.
  constexpr uint64_t hash_combine(uint64_t seed, uint64_t value)
  {
    return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
  }

  /// Accumulates a canonical byte encoding of a value for fingerprinting.
  /// Multi-byte integers are little-endian. Fixed-layout runs of bytes
  /// (packed structs, arrays) go in with one raw() call. The buffer is a
  /// plain array rather than a std::vector: an append is a capacity check
  /// and a memcpy, where vector::insert costs several times the copy for
  /// the few-byte runs a state encodes as.
  class ByteSink
  {
  public:
    void u8(uint8_t v)
    {
      reserve_more(1);
      data_[size_++] = v;
    }

    void u16(uint16_t v)
    {
      const uint8_t b[2] = {
        static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
      raw(b, sizeof(b));
    }

    void u32(uint32_t v)
    {
      uint8_t b[4];
      for (size_t i = 0; i < sizeof(b); ++i)
      {
        b[i] = static_cast<uint8_t>(v >> (8 * i));
      }
      raw(b, sizeof(b));
    }

    void u64(uint64_t v)
    {
      uint8_t b[8];
      for (size_t i = 0; i < sizeof(b); ++i)
      {
        b[i] = static_cast<uint8_t>(v >> (8 * i));
      }
      raw(b, sizeof(b));
    }

    void boolean(bool v)
    {
      u8(v ? 1 : 0);
    }

    void str(std::string_view s)
    {
      u64(s.size());
      raw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
    }

    void raw(const uint8_t* data, size_t size)
    {
      if (size == 0)
      {
        return; // data may be null (an empty vector's data())
      }
      reserve_more(size);
      std::memcpy(data_.get() + size_, data, size);
      size_ += size;
    }

    [[nodiscard]] uint64_t digest() const
    {
      return digest64(data_.get(), size_);
    }

    [[nodiscard]] std::span<const uint8_t> bytes() const
    {
      return {data_.get(), size_};
    }

    /// Empties the sink; the buffer keeps its capacity.
    void clear()
    {
      size_ = 0;
    }

  private:
    void reserve_more(size_t n)
    {
      if (capacity_ - size_ < n)
      {
        grow(n);
      }
    }

    void grow(size_t n)
    {
      const size_t capacity = std::max({2 * capacity_, size_ + n, size_t{64}});
      auto data = std::make_unique_for_overwrite<uint8_t[]>(capacity);
      if (size_ > 0)
      {
        std::memcpy(data.get(), data_.get(), size_);
      }
      data_ = std::move(data);
      capacity_ = capacity;
    }

    std::unique_ptr<uint8_t[]> data_;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };
}

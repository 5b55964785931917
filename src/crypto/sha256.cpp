#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_detail.h"
#include "util/check.h"
#include "util/hex.h"

#if defined(__x86_64__) || defined(__i386__)
#  include <cpuid.h>
#  include <immintrin.h>
#  define SCV_SHA_NI 1
#endif

namespace scv::crypto
{
  namespace
  {
    constexpr std::array<uint32_t, 64> k = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

    constexpr uint32_t rotr(uint32_t x, int n)
    {
      return (x >> n) | (x << (32 - n));
    }
  }

  namespace detail
  {
    void blocks_portable(uint32_t* state, const uint8_t* data, size_t blocks)
    {
      for (; blocks > 0; --blocks, data += 64)
      {
        uint32_t w[64];
        for (int i = 0; i < 16; ++i)
        {
          w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
            (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
            (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
            static_cast<uint32_t>(data[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i)
        {
          const uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
          const uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
          w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        uint32_t a = state[0];
        uint32_t b = state[1];
        uint32_t c = state[2];
        uint32_t d = state[3];
        uint32_t e = state[4];
        uint32_t f = state[5];
        uint32_t g = state[6];
        uint32_t h = state[7];

        for (int i = 0; i < 64; ++i)
        {
          const uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
          const uint32_t ch = (e & f) ^ (~e & g);
          const uint32_t temp1 = h + s1 + ch + k[i] + w[i];
          const uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
          const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
          const uint32_t temp2 = s0 + maj;
          h = g;
          g = f;
          f = e;
          e = d + temp1;
          d = c;
          c = b;
          b = a;
          a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
      }
    }

#ifdef SCV_SHA_NI
    // The SHA extensions keep the eight state words as two vectors,
    // ABEF and CDGH; each sha256rnds2 runs two rounds, and msg1/msg2
    // compute the message schedule four words at a time.
    __attribute__((target("sha,sse4.1,ssse3"))) void blocks_sha_ni(
      uint32_t* state, const uint8_t* data, size_t blocks)
    {
      // Byte order within each 32-bit word: big-endian message words.
      const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

      __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
      __m128i cdgh =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
      tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
      cdgh = _mm_shuffle_epi32(cdgh, 0x1B); // EFGH
      __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8); // ABEF
      cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0); // CDGH

      for (; blocks > 0; --blocks, data += 64)
      {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // w[j] holds message words 4j..4j+3 of the current 16-word window.
        __m128i w[4] = {};
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g)
        {
          __m128i words;
          if (g < 4)
          {
            words = _mm_shuffle_epi8(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
              bswap);
          }
          else
          {
            // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
            words = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
            words = _mm_add_epi32(
              words, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
            words = _mm_sha256msg2_epu32(words, w[(g + 3) & 3]);
          }
          w[g & 3] = words;
          const __m128i kw = _mm_add_epi32(
            words,
            _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(k.data() + 4 * g)));
          cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
          abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(kw, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
      }

      tmp = _mm_shuffle_epi32(abef, 0x1B); // FEBA
      cdgh = _mm_shuffle_epi32(cdgh, 0xB1); // DCHG
      _mm_storeu_si128(
        reinterpret_cast<__m128i*>(state),
        _mm_blend_epi16(tmp, cdgh, 0xF0)); // DCBA
      _mm_storeu_si128(
        reinterpret_cast<__m128i*>(state + 4),
        _mm_alignr_epi8(cdgh, tmp, 8)); // HGFE
    }

    bool cpu_has_sha_ni()
    {
      unsigned eax = 0;
      unsigned ebx = 0;
      unsigned ecx = 0;
      unsigned edx = 0;
      if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
      {
        return false;
      }
      const bool ssse3 = (ecx & bit_SSSE3) != 0;
      const bool sse41 = (ecx & bit_SSE4_1) != 0;
      if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
      {
        return false;
      }
      return ssse3 && sse41 && (ebx & bit_SHA) != 0;
    }
#else
    void blocks_sha_ni(uint32_t*, const uint8_t*, size_t)
    {
      SCV_CHECK_MSG(false, "SHA-NI block function on a non-x86 build");
    }

    bool cpu_has_sha_ni()
    {
      return false;
    }
#endif

    BlockFn active_blocks()
    {
      static const BlockFn chosen =
        cpu_has_sha_ni() ? blocks_sha_ni : blocks_portable;
      return chosen;
    }

    Digest sha256_with(BlockFn blocks, const uint8_t* data, size_t size)
    {
      Sha256 h(blocks);
      h.update(data, size);
      return h.finalize();
    }
  }

  Sha256::Sha256() : Sha256(detail::active_blocks()) {}

  Sha256::Sha256(detail::BlockFn blocks) : blocks_(blocks)
  {
    reset();
  }

  void Sha256::reset()
  {
    state_ = {
      0x6a09e667,
      0xbb67ae85,
      0x3c6ef372,
      0xa54ff53a,
      0x510e527f,
      0x9b05688c,
      0x1f83d9ab,
      0x5be0cd19};
    buffer_len_ = 0;
    total_len_ = 0;
  }

  void Sha256::update(const uint8_t* data, size_t size)
  {
    if (size == 0)
    {
      return; // data may be null (an empty vector's)
    }
    total_len_ += size;
    if (buffer_len_ > 0)
    {
      const size_t take = std::min(size, buffer_.size() - buffer_len_);
      std::memcpy(buffer_.data() + buffer_len_, data, take);
      buffer_len_ += take;
      data += take;
      size -= take;
      if (buffer_len_ < buffer_.size())
      {
        return;
      }
      blocks_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
    // Whole blocks straight from the input, the tail into the buffer.
    const size_t whole = size / buffer_.size();
    if (whole > 0)
    {
      blocks_(state_.data(), data, whole);
      data += whole * buffer_.size();
      size -= whole * buffer_.size();
    }
    std::memcpy(buffer_.data(), data, size);
    buffer_len_ = size;
  }

  void Sha256::update(std::string_view s)
  {
    update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  void Sha256::update(const std::vector<uint8_t>& data)
  {
    update(data.data(), data.size());
  }

  Digest Sha256::finalize()
  {
    const uint64_t bit_len = total_len_ * 8;
    // 0x80, zeros up to byte 56 of a block (spilling into a second block
    // when fewer than 9 bytes are left), then the big-endian bit length.
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56)
    {
      std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
      blocks_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
    std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i)
    {
      buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
    }
    blocks_(state_.data(), buffer_.data(), 1);

    Digest out{};
    for (int i = 0; i < 8; ++i)
    {
      out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
      out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
      out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
      out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
    }
    return out;
  }

  Digest sha256(const uint8_t* data, size_t size)
  {
    Sha256 h;
    h.update(data, size);
    return h.finalize();
  }

  Digest sha256(std::string_view s)
  {
    Sha256 h;
    h.update(s);
    return h.finalize();
  }

  Digest sha256(const std::vector<uint8_t>& data)
  {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }

  std::string digest_to_hex(const Digest& d)
  {
    return to_hex(d.data(), d.size());
  }
}

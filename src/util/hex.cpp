#include "util/hex.h"

namespace scv
{
  namespace
  {
    constexpr char digits[] = "0123456789abcdef";

    int nibble(char c)
    {
      if (c >= '0' && c <= '9')
      {
        return c - '0';
      }
      if (c >= 'a' && c <= 'f')
      {
        return c - 'a' + 10;
      }
      if (c >= 'A' && c <= 'F')
      {
        return c - 'A' + 10;
      }
      return -1;
    }
  }

  std::string to_hex(const uint8_t* data, size_t size)
  {
    std::string out;
    out.reserve(size * 2);
    for (size_t i = 0; i < size; ++i)
    {
      out.push_back(digits[data[i] >> 4]);
      out.push_back(digits[data[i] & 0xf]);
    }
    return out;
  }

  std::string to_hex(const std::vector<uint8_t>& data)
  {
    return to_hex(data.data(), data.size());
  }

  std::optional<std::vector<uint8_t>> from_hex(const std::string& hex)
  {
    if (hex.size() % 2 != 0)
    {
      return std::nullopt;
    }
    std::vector<uint8_t> out;
    out.reserve(hex.size() / 2);
    for (size_t i = 0; i < hex.size(); i += 2)
    {
      const int hi = nibble(hex[i]);
      const int lo = nibble(hex[i + 1]);
      if (hi < 0 || lo < 0)
      {
        return std::nullopt;
      }
      out.push_back(static_cast<uint8_t>((hi << 4) | lo));
    }
    return out;
  }

  bool from_hex(std::string_view hex, std::string& out)
  {
    if (hex.size() % 2 != 0)
    {
      return false;
    }
    out.resize(hex.size() / 2);
    for (size_t i = 0; i < out.size(); ++i)
    {
      const int hi = nibble(hex[2 * i]);
      const int lo = nibble(hex[2 * i + 1]);
      if (hi < 0 || lo < 0)
      {
        return false;
      }
      out[i] = static_cast<char>((hi << 4) | lo);
    }
    return true;
  }
}

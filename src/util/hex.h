// Hex encoding/decoding for digests and signatures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scv
{
  std::string to_hex(const uint8_t* data, size_t size);
  std::string to_hex(const std::vector<uint8_t>& data);

  /// Returns nullopt on malformed input (odd length or non-hex digit).
  std::optional<std::vector<uint8_t>> from_hex(const std::string& hex);

  /// Decodes straight into `out`, replacing its contents; false (with
  /// `out` unspecified) on malformed input, as above.
  bool from_hex(std::string_view hex, std::string& out);
}

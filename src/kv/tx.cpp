#include "kv/tx.h"

#include <algorithm>
#include <string_view>

#include "util/hex.h"

namespace scv::kv
{
  namespace
  {
    constexpr std::string_view kMagic = "kvws1";
  }

  ReadView store_view(const Store& store, Version at)
  {
    return [&store, at](const std::string& full_key) {
      return store.get_at(full_key, at);
    };
  }

  std::optional<std::string> Tx::get(
    const Table& table, const std::string& key)
  {
    const std::string full = table.key_of(key);
    const auto written = writes_.find(full);
    if (written != writes_.end())
    {
      return written->second;
    }
    if (std::find(reads_.begin(), reads_.end(), full) == reads_.end())
    {
      reads_.push_back(full);
    }
    return view_(full);
  }

  void Tx::put(const Table& table, const std::string& key, std::string value)
  {
    writes_[table.key_of(key)] = std::move(value);
  }

  void Tx::remove(const Table& table, const std::string& key)
  {
    writes_[table.key_of(key)] = std::nullopt;
  }

  WriteSet Tx::write_set() const
  {
    WriteSet ws;
    ws.writes.reserve(writes_.size());
    for (const auto& [key, value] : writes_)
    {
      ws.writes.push_back({key, value});
    }
    return ws;
  }

  std::string Tx::payload() const
  {
    return encode_payload(write_set());
  }

  std::string encode_payload(const WriteSet& ws)
  {
    std::string out(kMagic);
    for (const auto& w : ws.writes)
    {
      out += '\n';
      out += w.value ? 'w' : 'd';
      out += ' ';
      out += to_hex(
        reinterpret_cast<const uint8_t*>(w.key.data()), w.key.size());
      if (w.value)
      {
        out += ' ';
        out += to_hex(
          reinterpret_cast<const uint8_t*>(w.value->data()), w.value->size());
      }
    }
    return out;
  }

  bool is_kv_payload(const std::string& payload)
  {
    return std::string_view(payload).starts_with(kMagic) &&
      (payload.size() == kMagic.size() || payload[kMagic.size()] == '\n');
  }

  std::optional<WriteSet> decode_payload(const std::string& payload)
  {
    if (!is_kv_payload(payload))
    {
      return std::nullopt;
    }
    // One pass over the lines after the magic: "w <key>[ <value>]" or
    // "d <key>", both hex-armored, decoded straight into the write.
    WriteSet ws;
    std::string_view rest = std::string_view(payload).substr(kMagic.size());
    while (!rest.empty())
    {
      rest.remove_prefix(1); // the '\n' ending the previous line
      const size_t eol = rest.find('\n');
      const std::string_view line = rest.substr(0, eol);
      rest = eol == std::string_view::npos ? std::string_view() :
                                             rest.substr(eol);
      if (
        line.size() < 2 || (line[0] != 'w' && line[0] != 'd') ||
        line[1] != ' ')
      {
        return std::nullopt;
      }
      const bool is_write = line[0] == 'w';
      const std::string_view fields = line.substr(2);
      const size_t sp = fields.find(' ');
      KeyWrite w;
      if (!from_hex(fields.substr(0, sp), w.key))
      {
        return std::nullopt;
      }
      if (is_write)
      {
        // "w <key>" with no third field encodes an empty value.
        const std::string_view value = sp == std::string_view::npos ?
          std::string_view() :
          fields.substr(sp + 1);
        if (!from_hex(value, w.value.emplace()))
        {
          return std::nullopt;
        }
      }
      else if (sp != std::string_view::npos)
      {
        return std::nullopt;
      }
      ws.writes.push_back(std::move(w));
    }
    return ws;
  }
}

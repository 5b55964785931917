// Unit tests for the KV store: versioned reads, commit/rollback semantics,
// hook firing rules (ordered vs committed, prefix matching, ordering); the
// per-key version index behind get_at against the backward scan it
// replaced; and the one-pass kvws1 payload decoder against the
// split-based decoder it replaced. Both replaced versions are kept here as
// oracles.
#include <gtest/gtest.h>

#include <map>

#include "kv/store.h"
#include "kv/tx.h"
#include "util/check.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace scv;
using namespace scv::kv;

namespace
{
  WriteSet set_of(const std::string& key, const std::string& value)
  {
    return {{{key, value}}};
  }

  WriteSet delete_of(const std::string& key)
  {
    return {{{key, std::nullopt}}};
  }
}

TEST(Store, GetAbsentKey)
{
  Store s;
  EXPECT_FALSE(s.get("missing").has_value());
}

TEST(Store, ApplyAndGet)
{
  Store s;
  EXPECT_EQ(s.apply(set_of("k", "v1")), 1u);
  EXPECT_EQ(s.get("k"), "v1");
  EXPECT_EQ(s.apply(set_of("k", "v2")), 2u);
  EXPECT_EQ(s.get("k"), "v2");
}

TEST(Store, DeleteRemovesKey)
{
  Store s;
  s.apply(set_of("k", "v"));
  s.apply(delete_of("k"));
  EXPECT_FALSE(s.get("k").has_value());
}

TEST(Store, HistoricalReads)
{
  Store s;
  s.apply(set_of("k", "v1")); // version 1
  s.apply(set_of("k", "v2")); // version 2
  s.apply(delete_of("k")); // version 3
  EXPECT_FALSE(s.get_at("k", 0).has_value());
  EXPECT_EQ(s.get_at("k", 1), "v1");
  EXPECT_EQ(s.get_at("k", 2), "v2");
  EXPECT_FALSE(s.get_at("k", 3).has_value());
}

TEST(Store, LastWriteInWriteSetWins)
{
  Store s;
  WriteSet ws;
  ws.writes.push_back({"k", "first"});
  ws.writes.push_back({"k", "second"});
  s.apply(ws);
  EXPECT_EQ(s.get("k"), "second");
}

TEST(Store, KeysWithPrefix)
{
  Store s;
  s.apply(set_of("a.1", "x"));
  s.apply(set_of("a.2", "y"));
  s.apply(set_of("b.1", "z"));
  s.apply(delete_of("a.2"));
  EXPECT_EQ(s.keys_with_prefix("a."), (std::vector<std::string>{"a.1"}));
  EXPECT_EQ(
    s.keys_with_prefix(""),
    (std::vector<std::string>{"a.1", "b.1"}));
}

TEST(Store, CommitAdvancesAndIsMonotonic)
{
  Store s;
  s.apply(set_of("k", "v"));
  s.apply(set_of("k", "w"));
  s.commit(1);
  EXPECT_EQ(s.commit_version(), 1u);
  EXPECT_THROW(s.commit(0), CheckFailure); // regression forbidden
  s.commit(2);
  EXPECT_EQ(s.commit_version(), 2u);
}

TEST(Store, RollbackDiscardsUncommitted)
{
  Store s;
  s.apply(set_of("k", "v1"));
  s.commit(1);
  s.apply(set_of("k", "v2"));
  s.rollback(1);
  EXPECT_EQ(s.get("k"), "v1");
  EXPECT_EQ(s.current_version(), 1u);
}

TEST(Store, RollbackBelowCommitForbidden)
{
  Store s;
  s.apply(set_of("k", "v"));
  s.commit(1);
  EXPECT_THROW(s.rollback(0), CheckFailure);
}

TEST(Store, OrderedHookFiresOnApply)
{
  Store s;
  std::vector<Version> fired;
  s.on_ordered("ccf.gov.", [&](Version v, const WriteSet&) {
    fired.push_back(v);
  });
  s.apply(set_of("ccf.gov.nodes.info", "1,2,3"));
  s.apply(set_of("app.data", "x")); // different prefix: no fire
  EXPECT_EQ(fired, (std::vector<Version>{1}));
}

TEST(Store, CommittedHookFiresOnCommitInOrder)
{
  Store s;
  std::vector<Version> fired;
  s.on_committed("k", [&](Version v, const WriteSet&) {
    fired.push_back(v);
  });
  s.apply(set_of("k1", "a"));
  s.apply(set_of("k2", "b"));
  s.apply(set_of("other", "c"));
  EXPECT_TRUE(fired.empty());
  s.commit(3);
  EXPECT_EQ(fired, (std::vector<Version>{1, 2}));
}

TEST(Store, CommittedHookNotRefiredOnLaterCommit)
{
  Store s;
  int count = 0;
  s.on_committed("k", [&](Version, const WriteSet&) { ++count; });
  s.apply(set_of("k", "a"));
  s.commit(1);
  s.apply(set_of("k", "b"));
  s.commit(2);
  EXPECT_EQ(count, 2);
}

TEST(Store, MultipleHooksAllFire)
{
  Store s;
  int a = 0;
  int b = 0;
  s.on_ordered("k", [&](Version, const WriteSet&) { ++a; });
  s.on_ordered("", [&](Version, const WriteSet&) { ++b; });
  s.apply(set_of("k", "v"));
  s.apply(set_of("other", "v"));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Store, HookReceivesWriteSet)
{
  Store s;
  WriteSet seen;
  s.on_ordered("ccf.", [&](Version, const WriteSet& ws) { seen = ws; });
  const WriteSet ws = set_of("ccf.gov.nodes.info", "1,2");
  s.apply(ws);
  EXPECT_EQ(seen, ws);
}

namespace
{
  /// The backward scan get_at made before the per-key version index, over
  /// its own copy of the history: the last write to the key in versions
  /// (base, version], else the base image.
  struct ScanOracle
  {
    std::map<std::string, std::string> base;
    Version base_version = 0;
    std::vector<WriteSet> applied;

    [[nodiscard]] Version current() const
    {
      return base_version + applied.size();
    }

    [[nodiscard]] std::optional<std::string> get_at(
      const std::string& key, Version version) const
    {
      for (size_t v = version - base_version; v-- > 0;)
      {
        for (auto it = applied[v].writes.rbegin();
             it != applied[v].writes.rend();
             ++it)
        {
          if (it->key == key)
          {
            return it->value;
          }
        }
      }
      const auto it = base.find(key);
      if (it != base.end())
      {
        return it->second;
      }
      return std::nullopt;
    }
  };

  const std::vector<std::string> oracle_keys = {"a", "b", "c", "d", "e"};

  WriteSet random_key_writes(Rng& rng)
  {
    // Repeated keys within one write set are allowed: the last one wins.
    WriteSet ws;
    const size_t n = rng.below(4);
    for (size_t i = 0; i < n; ++i)
    {
      KeyWrite w;
      w.key = oracle_keys[rng.below(oracle_keys.size())];
      if (rng.below(5) != 0)
      {
        w.value = std::to_string(rng.below(1000));
      }
      ws.writes.push_back(std::move(w));
    }
    return ws;
  }
}

TEST(StoreVersionIndex, GetAtMatchesBackwardScanOverRandomHistories)
{
  for (uint64_t seed = 1; seed <= 20; ++seed)
  {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    Store store;
    ScanOracle oracle;
    for (int step = 0; step < 300; ++step)
    {
      const uint64_t dice = rng.below(100);
      if (dice < 60)
      {
        const WriteSet ws = random_key_writes(rng);
        store.apply(ws);
        oracle.applied.push_back(ws);
      }
      else if (dice < 75)
      {
        const Version to = store.commit_version() +
          rng.below(store.current_version() - store.commit_version() + 1);
        store.commit(to);
      }
      else if (dice < 92)
      {
        const Version to = store.commit_version() +
          rng.below(store.current_version() - store.commit_version() + 1);
        store.rollback(to);
        oracle.applied.resize(to - oracle.base_version);
      }
      else
      {
        // A snapshot install at the commit version, in place or as a
        // fresh store; the oracle's new base is its own materialization.
        const Version at = store.commit_version();
        std::map<std::string, std::string> image;
        for (const auto& key : oracle_keys)
        {
          if (const auto value = oracle.get_at(key, at))
          {
            image[key] = *value;
          }
        }
        if (dice < 96)
        {
          store.install_image(store.serialize_image(), at);
        }
        else
        {
          store = Store::from_image(store.serialize_image(), at);
        }
        oracle = {std::move(image), at, {}};
      }
      ASSERT_EQ(store.current_version(), oracle.current());
      // Reads bring the index up to date, so reading after only some
      // steps leaves rollbacks and installs to meet a partly indexed
      // history.
      if (rng.below(3) != 0 && step + 1 < 300)
      {
        continue;
      }
      for (Version v = store.base_version(); v <= store.current_version(); ++v)
      {
        for (const auto& key : oracle_keys)
        {
          ASSERT_EQ(store.get_at(key, v), oracle.get_at(key, v))
            << "key " << key << " at version " << v << " after step "
            << step;
        }
      }
    }
  }
}

namespace
{
  /// The split-based kvws1 decoder that decode_payload replaced: split the
  /// payload into lines and each line into fields, hex-decode through
  /// temporary vectors.
  std::optional<WriteSet> oracle_decode(const std::string& payload)
  {
    if (payload != "kvws1" && !starts_with(payload, "kvws1\n"))
    {
      return std::nullopt;
    }
    WriteSet ws;
    const auto lines = split(payload, '\n');
    for (size_t i = 1; i < lines.size(); ++i)
    {
      const auto fields = split(lines[i], ' ');
      const bool is_write = !fields.empty() && fields[0] == "w";
      const bool is_delete = !fields.empty() && fields[0] == "d";
      if (
        (is_write && fields.size() != 3 && fields.size() != 2) ||
        (is_delete && fields.size() != 2) || (!is_write && !is_delete))
      {
        return std::nullopt;
      }
      const auto key = from_hex(fields[1]);
      if (!key)
      {
        return std::nullopt;
      }
      KeyWrite w;
      w.key.assign(key->begin(), key->end());
      if (is_write)
      {
        if (fields.size() == 3)
        {
          const auto value = from_hex(fields[2]);
          if (!value)
          {
            return std::nullopt;
          }
          w.value = std::string(value->begin(), value->end());
        }
        else
        {
          w.value = std::string();
        }
      }
      ws.writes.push_back(std::move(w));
    }
    return ws;
  }

  std::string random_text(Rng& rng, size_t max_len)
  {
    // Bytes the format must armor: spaces, newlines, NULs, high bytes.
    static constexpr char alphabet[] = {
      'a', 'k', '/', ' ', '\n', '\0', '\xff', '7'};
    std::string out(rng.below(max_len + 1), ' ');
    for (char& c : out)
    {
      c = alphabet[rng.below(sizeof(alphabet))];
    }
    return out;
  }

  WriteSet random_write_set(Rng& rng)
  {
    WriteSet ws;
    const size_t n = rng.below(5);
    for (size_t i = 0; i < n; ++i)
    {
      KeyWrite w;
      w.key = random_text(rng, 8);
      if (rng.below(4) != 0)
      {
        w.value = random_text(rng, 12);
      }
      ws.writes.push_back(std::move(w));
    }
    return ws;
  }

  void expect_same_decode(const std::string& payload)
  {
    EXPECT_EQ(decode_payload(payload), oracle_decode(payload))
      << "payload: " << to_hex(
                          reinterpret_cast<const uint8_t*>(payload.data()),
                          payload.size());
  }
}

TEST(KvPayloadDecode, ValidPayloadsRoundTripLikeTheOracle)
{
  Rng rng(11);
  for (int i = 0; i < 500; ++i)
  {
    const WriteSet ws = random_write_set(rng);
    const std::string payload = encode_payload(ws);
    ASSERT_EQ(decode_payload(payload), ws);
    expect_same_decode(payload);
  }
}

TEST(KvPayloadDecode, TruncationsAgreeWithTheOracle)
{
  Rng rng(12);
  for (int i = 0; i < 50; ++i)
  {
    const std::string payload = encode_payload(random_write_set(rng));
    for (size_t n = 0; n <= payload.size(); ++n)
    {
      expect_same_decode(payload.substr(0, n));
    }
  }
}

TEST(KvPayloadDecode, ByteFlipsAgreeWithTheOracle)
{
  // Every position replaced by each byte that matters to the grammar
  // (separators, kinds, hex digits of either case, non-hex), plus one
  // inserted separator.
  const std::string replacements = " \nwdx0aAfFgG\r";
  Rng rng(13);
  for (int i = 0; i < 20; ++i)
  {
    const std::string payload = encode_payload(random_write_set(rng));
    for (size_t at = 0; at < payload.size(); ++at)
    {
      for (const char c : replacements)
      {
        std::string flipped = payload;
        flipped[at] = c;
        expect_same_decode(flipped);
      }
      std::string inserted = payload;
      inserted.insert(at, 1, ' ');
      expect_same_decode(inserted);
    }
  }
}

TEST(KvPayloadDecode, HandWrittenEdgesAgreeWithTheOracle)
{
  for (const std::string payload :
       {"kvws1",
        "kvws1\n",
        "kvws1\n\n",
        "kvws10",
        "kvws",
        "Kvws1\nw 00",
        "kvws1\nw",
        "kvws1\nw ",
        "kvws1\nw  ",
        "kvws1\nw 6b",
        "kvws1\nw 6b ",
        "kvws1\nw 6B 7A",
        "kvws1\nw 6b 7a 7a",
        "kvws1\nw 6b 7",
        "kvws1\nd",
        "kvws1\nd ",
        "kvws1\nd 6b",
        "kvws1\nd 6b ",
        "kvws1\nd 6b 7a",
        "kvws1\nx 6b",
        "kvws1\nww 6b",
        "kvws1\nw 6b\r",
        "kvws1\nw 6b\nd 6b\nw 6b 00"})
  {
    expect_same_decode(payload);
  }
}

TEST(KvPayloadDecode, LegacyOpaqueBlobsAreNotWriteSets)
{
  // Data entries that predate the kv encoding (the scenario runner's
  // plain payloads) apply as the positional app.<idx> cell.
  for (const std::string payload : {"", "hello", "app.3", "x", "kvws2\nw 00"})
  {
    EXPECT_FALSE(is_kv_payload(payload));
    EXPECT_EQ(decode_payload(payload), std::nullopt);
    expect_same_decode(payload);
  }
}

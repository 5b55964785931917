// Unit tests for the util module: RNG determinism and distribution
// sanity, hashing canonicality, hex codec, JSON round-trips, strings,
// the inline small vector.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/hex.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/small_vec.h"
#include "util/strings.h"

using namespace scv;

TEST(Rng, DeterministicAcrossInstances)
{
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i)
  {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge)
{
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
  {
    if (a.next() == b.next())
    {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowIsInRange)
{
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull})
  {
    for (int i = 0; i < 200; ++i)
    {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BetweenInclusive)
{
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i)
  {
    const uint64_t v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u); // all values hit
}

TEST(Rng, UnitInHalfOpenInterval)
{
  Rng rng(11);
  for (int i = 0; i < 1000; ++i)
  {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, WeightedPickRespectsZeroWeights)
{
  Rng rng(13);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i)
  {
    EXPECT_EQ(rng.weighted_pick(weights), 1u);
  }
}

TEST(Rng, WeightedPickRoughlyProportional)
{
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i)
  {
    counts[rng.weighted_pick(weights)]++;
  }
  // Expect roughly 25% / 75%.
  EXPECT_GT(counts[1], counts[0] * 2);
  EXPECT_LT(counts[1], counts[0] * 4);
}

TEST(Rng, ShufflePreservesElements)
{
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Hash, Fnv1aKnownValue)
{
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a("", fnv1a_init), fnv1a_init);
  // Known vector: fnv1a("a") = 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, Digest64PublishedVectors)
{
  // Published XXH64 (seed 0) values.
  const auto d = [](std::string_view s) {
    return digest64(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(d(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(d("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(d("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(
    d("The quick brown fox jumps over the lazy dog"), 0x0b242d361fda71bcULL);
}

TEST(Hash, Digest64EveryTailPath)
{
  // 0: empty; 1: one 1-byte tail; 7: a 4-byte and three 1-byte tails; 8:
  // one 8-byte tail; 31: three 8-byte, one 4-byte and three 1-byte tails;
  // 32: one stripe; 33: a stripe and a 1-byte tail.
  uint8_t buf[33];
  for (size_t i = 0; i < sizeof(buf); ++i)
  {
    buf[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const std::pair<size_t, uint64_t> vectors[] = {
    {0, 0xef46db3751d8e999ULL},
    {1, 0x8a4127811b21e730ULL},
    {7, 0x34084d91a233a751ULL},
    {8, 0xc6f1803a5e0b3222ULL},
    {31, 0x6ab1c40e29f50073ULL},
    {32, 0x5a0756fbe9ecd3d1ULL},
    {33, 0xdc50cdc37bb9c183ULL},
  };
  for (const auto& [size, want] : vectors)
  {
    EXPECT_EQ(digest64(buf, size), want) << size << " bytes";
    ByteSink sink;
    sink.raw(buf, size);
    EXPECT_EQ(sink.digest(), want) << size << " bytes";
  }
}

TEST(Hash, ByteSinkIntegersAreLittleEndian)
{
  ByteSink sink;
  sink.u16(0x0201);
  sink.u32(0x06050403);
  sink.u64(0x0e0d0c0b0a090807ULL);
  sink.str("x");
  const std::vector<uint8_t> want = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 1, 0, 0, 0, 0, 0, 0, 0, 'x'};
  EXPECT_EQ(std::vector<uint8_t>(sink.bytes().begin(), sink.bytes().end()), want);
}

TEST(Hash, ByteSinkCanonical)
{
  ByteSink a;
  a.u64(5);
  a.str("hello");
  ByteSink b;
  b.u64(5);
  b.str("hello");
  EXPECT_EQ(a.digest(), b.digest());

  ByteSink c;
  c.u64(5);
  c.str("hellp");
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Hash, ByteSinkLengthPrefixPreventsAmbiguity)
{
  ByteSink a;
  a.str("ab");
  a.str("c");
  ByteSink b;
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hex, RoundTrip)
{
  const std::vector<uint8_t> data = {0x00, 0x01, 0xab, 0xff, 0x10};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff10");
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, RejectsMalformed)
{
  EXPECT_FALSE(from_hex("abc").has_value()); // odd length
  EXPECT_FALSE(from_hex("zz").has_value()); // non-hex
  EXPECT_TRUE(from_hex("").has_value()); // empty is fine
}

TEST(Hex, AcceptsUppercase)
{
  const auto v = from_hex("AB");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 0xab);
}

TEST(Json, ScalarRoundTrips)
{
  for (const std::string doc :
       {"null", "true", "false", "0", "-17", "123456789", "\"hi\""})
  {
    const auto v = json::parse(doc);
    ASSERT_TRUE(v.has_value()) << doc;
    EXPECT_EQ(v->dump(), doc);
  }
}

TEST(Json, ObjectPreservesKeyOrder)
{
  const std::string doc = R"({"z":1,"a":2,"m":[1,2,3]})";
  const auto v = json::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->dump(), doc);
}

TEST(Json, StringEscapes)
{
  json::Value v(std::string("a\"b\\c\nd"));
  const std::string dumped = v.dump();
  const auto back = json::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), "a\"b\\c\nd");
}

TEST(Json, UnicodeEscapeParses)
{
  const auto v = json::parse(R"("Aé")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformed)
{
  for (const std::string doc :
       {"{", "[1,", "\"unterminated", "tru", "1.2.3", "{\"a\":}", "[1 2]",
        "{\"a\" 1}", ""})
  {
    EXPECT_FALSE(json::parse(doc).has_value()) << doc;
  }
}

TEST(Json, RejectsTrailingGarbage)
{
  EXPECT_FALSE(json::parse("1 2").has_value());
  EXPECT_FALSE(json::parse("{} []").has_value());
}

TEST(Json, FindAndAt)
{
  const auto v = json::parse(R"({"a":1,"b":"x"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("a"), nullptr);
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_EQ(v->at("a").as_int(), 1);
  EXPECT_THROW((void)v->at("missing"), scv::CheckFailure);
}

TEST(Json, SetInsertsAndOverwrites)
{
  json::Value v = json::object({{"a", 1}});
  v.set("b", 2);
  v.set("a", 3);
  EXPECT_EQ(v.at("a").as_int(), 3);
  EXPECT_EQ(v.at("b").as_int(), 2);
}

TEST(Json, NestedStructures)
{
  const std::string doc = R"({"a":[{"b":[]},{"c":{"d":null}}]})";
  const auto v = json::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->dump(), doc);
}

TEST(Json, DoubleParses)
{
  const auto v = json::parse("1.5");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_double());
  EXPECT_DOUBLE_EQ(v->as_double(), 1.5);
}

TEST(Strings, Split)
{
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, Join)
{
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"x"}, "-"), "x");
}

TEST(Strings, Trim)
{
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWith)
{
  EXPECT_TRUE(starts_with("ccf.gov.nodes", "ccf.gov"));
  EXPECT_FALSE(starts_with("ccf", "ccf.gov"));
}

TEST(Check, ThrowsWithMessage)
{
  try
  {
    SCV_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  }
  catch (const CheckFailure& e)
  {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SmallVec. Elements are std::strings long enough to own heap memory, so
// ASan reports a leaked, double-destroyed or unconstructed element.
// ---------------------------------------------------------------------------

namespace
{
  using Strs = SmallVec<std::string, 3>;

  std::string big(int i)
  {
    return "element-" + std::to_string(i) + std::string(40, 'x');
  }

  /// A SmallVec holding big(0) .. big(n - 1).
  Strs strs(int n)
  {
    Strs v;
    for (int i = 0; i < n; ++i)
    {
      v.push_back(big(i));
    }
    return v;
  }

  std::vector<std::string> as_vector(const Strs& v)
  {
    return {v.begin(), v.end()};
  }

  std::vector<std::string> bigs(std::initializer_list<int> ids)
  {
    std::vector<std::string> out;
    for (const int i : ids)
    {
      out.push_back(big(i));
    }
    return out;
  }
}

TEST(SmallVec, CrossesInlineCapacityAndShrinksBack)
{
  Strs v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 3u);
  for (int i = 0; i < 3; ++i)
  {
    v.push_back(big(i));
  }
  EXPECT_EQ(v.capacity(), 3u); // N elements stay inline
  v.push_back(big(3)); // N + 1 moves to the heap
  EXPECT_GT(v.capacity(), 3u);
  EXPECT_EQ(as_vector(v), bigs({0, 1, 2, 3}));
  EXPECT_EQ(v.back(), big(3));

  v.resize(2); // shrinking keeps the block...
  EXPECT_GT(v.capacity(), 3u);
  EXPECT_EQ(as_vector(v), bigs({0, 1}));
  const Strs copy = v; // ...but a copy that fits starts inline
  EXPECT_EQ(copy.capacity(), 3u);
  EXPECT_EQ(copy, v);

  // Pushing an element of the vector itself across the boundary.
  Strs self = strs(3);
  self.push_back(self[0]);
  EXPECT_EQ(as_vector(self), bigs({0, 1, 2, 0}));

  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(big(7));
  EXPECT_EQ(as_vector(v), bigs({7}));
}

TEST(SmallVec, CopyAndMoveAcrossInlineAndHeap)
{
  // Every destination x source storage pair: 2 elements are inline, 5
  // are on the heap.
  for (const int dst_n : {2, 5})
  {
    for (const int src_n : {2, 5})
    {
      SCOPED_TRACE(std::to_string(dst_n) + " <- " + std::to_string(src_n));
      const Strs src = strs(src_n);
      const std::vector<std::string> want = as_vector(src);

      Strs copied = strs(dst_n);
      copied = src;
      EXPECT_EQ(as_vector(copied), want);
      EXPECT_EQ(as_vector(src), want);

      Strs moved = strs(dst_n);
      Strs from = src;
      moved = std::move(from);
      EXPECT_EQ(as_vector(moved), want);
      EXPECT_TRUE(from.empty()); // NOLINT(bugprone-use-after-move)
      from.push_back(big(9)); // a moved-from vector stays usable
      EXPECT_EQ(as_vector(from), bigs({9}));

      Strs constructed(moved);
      EXPECT_EQ(as_vector(constructed), want);
      Strs move_constructed(std::move(constructed));
      EXPECT_EQ(as_vector(move_constructed), want);
      EXPECT_TRUE(constructed.empty()); // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(SmallVec, SelfAssignmentKeepsContents)
{
  for (const int n : {2, 5})
  {
    Strs v = strs(n);
    const std::vector<std::string> want = as_vector(v);
    Strs& alias = v;
    v = alias;
    EXPECT_EQ(as_vector(v), want);
    v = std::move(alias);
    EXPECT_EQ(as_vector(v), want);
  }
}

TEST(SmallVec, InsertAndEraseKeepOrder)
{
  Strs v;
  std::vector<std::string> ref;
  Rng rng(23);
  // Random inserts and erases, crossing the inline capacity both ways.
  for (int step = 0; step < 400; ++step)
  {
    if (ref.empty() || rng.below(3) != 0)
    {
      const size_t at = rng.below(ref.size() + 1);
      const std::string value = big(step);
      const std::string* pos = v.insert(v.begin() + at, value);
      EXPECT_EQ(*pos, value);
      ref.insert(ref.begin() + static_cast<ptrdiff_t>(at), value);
    }
    else
    {
      const size_t at = rng.below(ref.size());
      const std::string* next = v.erase(v.begin() + at);
      ref.erase(ref.begin() + static_cast<ptrdiff_t>(at));
      EXPECT_EQ(next, v.begin() + at);
    }
    ASSERT_EQ(as_vector(v), ref) << "step " << step;
    if (ref.size() > 8)
    {
      v.clear();
      ref.clear();
    }
  }
}

TEST(SmallVec, ResizeAndAssign)
{
  SmallVec<int, 4> v;
  v.resize(3);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), (std::vector<int>{0, 0, 0}));
  v[1] = 5;
  v.resize(6); // grows past inline with value-initialized elements
  EXPECT_EQ(
    std::vector<int>(v.begin(), v.end()),
    (std::vector<int>{0, 5, 0, 0, 0, 0}));
  v.resize(1);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), (std::vector<int>{0}));

  const std::vector<int> seven = {1, 2, 3, 4, 5, 6, 7};
  v.assign(seven.begin(), seven.end());
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), seven);
  v.assign(seven.begin(), seven.begin() + 2);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), (std::vector<int>{1, 2}));

  Strs s = strs(2);
  const std::vector<std::string> five = bigs({4, 3, 2, 1, 0});
  s.assign(five.begin(), five.end());
  EXPECT_EQ(as_vector(s), five);
  s.resize(4);
  s.resize(5);
  EXPECT_EQ(as_vector(s), (std::vector<std::string>{
                            big(4), big(3), big(2), big(1), std::string()}));
}

TEST(SmallVec, OrderingMatchesStdVector)
{
  // Short sequences over a small alphabet, so equal prefixes, proper
  // prefixes and equal sequences all occur; lengths cross N = 3.
  Rng rng(29);
  const auto random_seq = [&rng] {
    std::vector<int> out(rng.below(6));
    for (int& x : out)
    {
      x = static_cast<int>(rng.below(3));
    }
    return out;
  };
  size_t equal = 0;
  for (int trial = 0; trial < 4000; ++trial)
  {
    const std::vector<int> a = random_seq();
    const std::vector<int> b = random_seq();
    SmallVec<int, 3> sa;
    sa.assign(a.begin(), a.end());
    SmallVec<int, 3> sb;
    sb.assign(b.begin(), b.end());
    ASSERT_EQ(sa == sb, a == b);
    ASSERT_EQ(sa <=> sb, a <=> b);
    ASSERT_EQ(sa < sb, a < b);
    equal += a == b ? 1 : 0;
  }
  EXPECT_GT(equal, 0u);
}

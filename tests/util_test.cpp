// Unit tests for the util module: RNG determinism and distribution
// sanity, hashing canonicality, hex codec, JSON round-trips, strings.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/hash.h"
#include "util/hex.h"
#include "util/json.h"
#include "util/rng.h"
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

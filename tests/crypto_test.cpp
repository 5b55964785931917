// Unit tests for the crypto substrate: SHA-256 against NIST/FIPS vectors
// (through the portable and the SHA-NI block function alike, and the two
// against each other), HMAC-SHA-256 against RFC 4231 vectors, Merkle tree
// structure, proofs, truncation, and the mock signer.
#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/merkle_tree.h"
#include "crypto/sha256.h"
#include "crypto/sha256_detail.h"
#include "crypto/signer.h"
#include "util/hex.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::crypto;

namespace
{
  std::string hex_of(const Digest& d)
  {
    return digest_to_hex(d);
  }
}

TEST(Sha256, EmptyString)
{
  EXPECT_EQ(
    hex_of(sha256("")),
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
  EXPECT_EQ(
    hex_of(sha256("abc")),
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
  EXPECT_EQ(
    hex_of(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i)
  {
    h.update(chunk);
  }
  EXPECT_EQ(
    hex_of(h.finalize()),
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.finalize(), sha256("hello world"));
}

TEST(Sha256, ExactBlockBoundary)
{
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  Sha256 h;
  h.update(block);
  h.update(block);
  EXPECT_EQ(h.finalize(), sha256(two_blocks));
}

TEST(Sha256, ResetReusable)
{
  Sha256 h;
  h.update("garbage");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(
    hex_of(h.finalize()),
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

namespace
{
  namespace sha_detail = scv::crypto::detail;

  Digest portable(const std::vector<uint8_t>& m)
  {
    return sha_detail::sha256_with(
      sha_detail::blocks_portable, m.data(), m.size());
  }

  Digest sha_ni(const std::vector<uint8_t>& m)
  {
    return sha_detail::sha256_with(
      sha_detail::blocks_sha_ni, m.data(), m.size());
  }

  std::vector<uint8_t> random_bytes(Rng& rng, size_t n)
  {
    std::vector<uint8_t> out(n);
    for (auto& b : out)
    {
      b = static_cast<uint8_t>(rng.next());
    }
    return out;
  }

  /// The FIPS 180-4 / NIST example vectors as (message, digest).
  std::vector<std::pair<std::vector<uint8_t>, std::string>> fips_vectors()
  {
    const auto bytes = [](std::string_view s) {
      return std::vector<uint8_t>(s.begin(), s.end());
    };
    return {
      {bytes(""),
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {bytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::vector<uint8_t>(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
  }
}

TEST(Sha256Paths, PaddingMatchesFipsLayoutOnEveryLengthTo300)
{
  // FIPS 180-4 §5.1.1 padding built by hand (0x80, zeros up to 56 mod 64,
  // the 64-bit big-endian bit length) and compressed block by block: an
  // oracle for Sha256's buffering and finalize() that shares neither.
  Rng rng(2029);
  for (size_t n = 0; n <= 300; ++n)
  {
    const auto message = random_bytes(rng, n);
    std::vector<uint8_t> padded = message;
    padded.push_back(0x80);
    while (padded.size() % 64 != 56)
    {
      padded.push_back(0);
    }
    for (int i = 7; i >= 0; --i)
    {
      padded.push_back(static_cast<uint8_t>((uint64_t{n} * 8) >> (8 * i)));
    }
    uint32_t state[8] = {
      0x6a09e667,
      0xbb67ae85,
      0x3c6ef372,
      0xa54ff53a,
      0x510e527f,
      0x9b05688c,
      0x1f83d9ab,
      0x5be0cd19};
    sha_detail::blocks_portable(state, padded.data(), padded.size() / 64);
    Digest expected{};
    for (int i = 0; i < 32; ++i)
    {
      expected[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
    EXPECT_EQ(sha256(message), expected) << n << " bytes";
    EXPECT_EQ(portable(message), expected) << n << " bytes";
  }
}

TEST(Sha256Paths, PortableMatchesFipsVectors)
{
  for (const auto& [message, digest] : fips_vectors())
  {
    EXPECT_EQ(hex_of(portable(message)), digest) << message.size() << " bytes";
  }
}

TEST(Sha256Paths, ShaNiMatchesFipsVectors)
{
  if (!sha_detail::cpu_has_sha_ni())
  {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  for (const auto& [message, digest] : fips_vectors())
  {
    EXPECT_EQ(hex_of(sha_ni(message)), digest) << message.size() << " bytes";
  }
}

TEST(Sha256Paths, ShaNiMatchesPortableOnEveryLengthTo300)
{
  if (!sha_detail::cpu_has_sha_ni())
  {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  Rng rng(2026);
  for (size_t n = 0; n <= 300; ++n)
  {
    const auto message = random_bytes(rng, n);
    EXPECT_EQ(sha_ni(message), portable(message)) << n << " bytes";
  }
}

TEST(Sha256Paths, ShaNiMatchesPortableOnRandomMultiBlockMessages)
{
  if (!sha_detail::cpu_has_sha_ni())
  {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  Rng rng(2027);
  for (int i = 0; i < 200; ++i)
  {
    const auto message = random_bytes(rng, 64 + rng.below(8192));
    EXPECT_EQ(sha_ni(message), portable(message)) << message.size() << " bytes";
  }
}

TEST(Sha256Paths, IncrementalUpdatesMatchPortableOneShot)
{
  // The default hasher (whichever block function this CPU selects) fed in
  // random pieces: partial blocks buffer, whole blocks go straight
  // through.
  Rng rng(2028);
  for (int i = 0; i < 200; ++i)
  {
    const auto message = random_bytes(rng, rng.below(1024));
    Sha256 h;
    size_t at = 0;
    while (at < message.size())
    {
      const size_t piece = std::min<size_t>(
        message.size() - at, static_cast<size_t>(rng.below(200)));
      h.update(message.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(h.finalize(), portable(message)) << message.size() << " bytes";
  }
}

TEST(Sha256Paths, ActiveBlockFunctionFollowsCpuid)
{
  EXPECT_EQ(
    sha_detail::active_blocks(),
    sha_detail::cpu_has_sha_ni() ? sha_detail::blocks_sha_ni :
                               sha_detail::blocks_portable);
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1)
{
  const std::vector<uint8_t> key(20, 0x0b);
  EXPECT_EQ(
    hex_of(hmac_sha256(key, "Hi There")),
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2)
{
  const std::vector<uint8_t> key = {'J', 'e', 'f', 'e'};
  EXPECT_EQ(
    hex_of(hmac_sha256(key, "what do ya want for nothing?")),
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
TEST(Hmac, Rfc4231Case3)
{
  const std::vector<uint8_t> key(20, 0xaa);
  const std::vector<uint8_t> data(50, 0xdd);
  EXPECT_EQ(
    hex_of(hmac_sha256(key, data.data(), data.size())),
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, Rfc4231Case6LongKey)
{
  const std::vector<uint8_t> key(131, 0xaa);
  EXPECT_EQ(
    hex_of(hmac_sha256(
      key, "Test Using Larger Than Block-Size Key - Hash Key First")),
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Merkle, EmptyRootIsHashOfEmpty)
{
  MerkleTree t;
  EXPECT_EQ(t.root(), sha256(""));
  EXPECT_EQ(t.size(), 0u);
}

TEST(Merkle, SingleLeafRootIsLeaf)
{
  MerkleTree t;
  const Digest leaf = sha256("entry0");
  t.append(leaf);
  EXPECT_EQ(t.root(), leaf);
}

TEST(Merkle, TwoLeavesCombine)
{
  MerkleTree t;
  const Digest a = sha256("a");
  const Digest b = sha256("b");
  t.append(a);
  t.append(b);
  EXPECT_EQ(t.root(), MerkleTree::combine(a, b));
}

TEST(Merkle, RootChangesWithEveryAppend)
{
  MerkleTree t;
  std::set<std::string> roots;
  roots.insert(hex_of(t.root()));
  for (int i = 0; i < 20; ++i)
  {
    t.append(sha256("entry" + std::to_string(i)));
    EXPECT_TRUE(roots.insert(hex_of(t.root())).second)
      << "duplicate root at size " << t.size();
  }
}

TEST(Merkle, OrderMatters)
{
  MerkleTree t1;
  t1.append(sha256("a"));
  t1.append(sha256("b"));
  MerkleTree t2;
  t2.append(sha256("b"));
  t2.append(sha256("a"));
  EXPECT_NE(t1.root(), t2.root());
}

class MerklePathTest : public ::testing::TestWithParam<size_t>
{};

TEST_P(MerklePathTest, AllPathsVerify)
{
  const size_t n = GetParam();
  MerkleTree t;
  std::vector<Digest> leaves;
  for (size_t i = 0; i < n; ++i)
  {
    leaves.push_back(sha256("leaf" + std::to_string(i)));
    t.append(leaves.back());
  }
  const Digest root = t.root();
  for (size_t i = 0; i < n; ++i)
  {
    const auto path = t.path(i);
    EXPECT_TRUE(MerkleTree::verify_path(leaves[i], path, root))
      << "n=" << n << " i=" << i;
    // A wrong leaf must not verify.
    EXPECT_FALSE(MerkleTree::verify_path(sha256("evil"), path, root));
  }
}

INSTANTIATE_TEST_SUITE_P(
  Sizes, MerklePathTest, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33));

TEST(Merkle, TruncateRestoresEarlierRoot)
{
  MerkleTree t;
  std::vector<Digest> roots;
  for (int i = 0; i < 10; ++i)
  {
    roots.push_back(t.root());
    t.append(sha256("x" + std::to_string(i)));
  }
  for (size_t back = 10; back-- > 0;)
  {
    t.truncate(back);
    EXPECT_EQ(t.root(), roots[back]);
  }
}

TEST(Merkle, PathTamperDetected)
{
  MerkleTree t;
  for (int i = 0; i < 8; ++i)
  {
    t.append(sha256("l" + std::to_string(i)));
  }
  auto path = t.path(3);
  ASSERT_FALSE(path.empty());
  path[0].sibling_on_left = !path[0].sibling_on_left;
  EXPECT_FALSE(
    MerkleTree::verify_path(sha256("l3"), path, t.root()));
}

TEST(Signer, SignVerifyRoundTrip)
{
  Signer signer(3);
  const Digest d = sha256("payload");
  const Signature sig = signer.sign(d);
  EXPECT_TRUE(verify_signature(3, d, sig));
}

TEST(Signer, WrongNodeRejected)
{
  Signer signer(3);
  const Digest d = sha256("payload");
  const Signature sig = signer.sign(d);
  EXPECT_FALSE(verify_signature(4, d, sig));
}

TEST(Signer, WrongDigestRejected)
{
  Signer signer(3);
  const Signature sig = signer.sign(sha256("payload"));
  EXPECT_FALSE(verify_signature(3, sha256("other"), sig));
}

TEST(Signer, DeterministicPerNode)
{
  const Digest d = sha256("x");
  EXPECT_EQ(Signer(1).sign(d), Signer(1).sign(d));
  EXPECT_NE(Signer(1).sign(d), Signer(2).sign(d));
}

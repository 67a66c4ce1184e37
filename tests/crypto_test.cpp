// Toy crypto substrate: round trips, tamper detection, key separation,
// known-answer vectors, keystore release-ledger semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "crypto/cipher.hpp"
#include "crypto/keystore.hpp"

namespace psf::crypto {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(CipherTest, SealUnsealRoundTrip) {
  const SymmetricKey key = derive_key(123, "alice#3");
  const auto plaintext = bytes("the quick brown fox");
  const SealedBlob blob = seal(key, /*nonce=*/7, plaintext);
  EXPECT_NE(blob.ciphertext, plaintext);  // actually transformed

  std::vector<std::uint8_t> out;
  ASSERT_TRUE(unseal(key, blob, out));
  EXPECT_EQ(out, plaintext);
}

TEST(CipherTest, EmptyPayload) {
  const SymmetricKey key = derive_key(1, "k");
  const SealedBlob blob = seal(key, 1, {});
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(unseal(key, blob, out));
  EXPECT_TRUE(out.empty());
}

TEST(CipherTest, WrongKeyFailsMac) {
  const SymmetricKey k1 = derive_key(123, "alice#3");
  const SymmetricKey k2 = derive_key(123, "alice#4");
  const SealedBlob blob = seal(k1, 7, bytes("secret"));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(unseal(k2, blob, out));
  EXPECT_TRUE(out.empty());
}

TEST(CipherTest, TamperedCiphertextFailsMac) {
  const SymmetricKey key = derive_key(9, "bob#1");
  SealedBlob blob = seal(key, 3, bytes("integrity matters"));
  blob.ciphertext[4] ^= 0x01;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(unseal(key, blob, out));
}

TEST(CipherTest, TamperedNonceFailsMac) {
  const SymmetricKey key = derive_key(9, "bob#1");
  SealedBlob blob = seal(key, 3, bytes("integrity"));
  blob.nonce ^= 1;
  std::vector<std::uint8_t> out{1};
  EXPECT_FALSE(unseal(key, blob, out));
  EXPECT_TRUE(out.empty());
}

TEST(CipherTest, TamperedMacFails) {
  const SymmetricKey key = derive_key(9, "bob#1");
  SealedBlob blob = seal(key, 3, bytes("integrity"));
  blob.mac ^= 1;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(unseal(key, blob, out));
}

TEST(CipherTest, NonceChangesCiphertext) {
  const SymmetricKey key = derive_key(5, "x");
  const auto p = bytes("same plaintext");
  EXPECT_NE(seal(key, 1, p).ciphertext, seal(key, 2, p).ciphertext);
}

TEST(CipherTest, KeyDerivationIsDeterministicAndSeparated) {
  EXPECT_EQ(derive_key(42, "a"), derive_key(42, "a"));
  EXPECT_NE(derive_key(42, "a"), derive_key(42, "b"));
  EXPECT_NE(derive_key(42, "a"), derive_key(43, "a"));
}

TEST(CipherTest, KeystreamIsItsOwnInverse) {
  const SymmetricKey key = derive_key(8, "inv");
  const auto p = bytes("involution");
  const auto c = apply_keystream(key, 11, p);
  EXPECT_EQ(apply_keystream(key, 11, c), p);
}

TEST(CipherTest, WireSizeIncludesOverhead) {
  const SymmetricKey key = derive_key(1, "k");
  const SealedBlob blob = seal(key, 1, bytes("12345"));
  EXPECT_EQ(blob.wire_size(), 5u + 16u);
}

// Known-answer vectors: seal() at a fixed (master, label, nonce) over
// plaintexts whose lengths cross the keystream's 8-byte word boundary. The
// ciphertext bytes define the cipher; any rewrite of the keystream must keep
// them identical. Simulated time depends only on lengths (wire_size,
// crypto_cpu_cost), never on these bytes. The MAC constants pin the tag
// algorithm, and the tag is checked against reference_mac below.
std::vector<std::uint8_t> kat_plaintext(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return p;
}

std::string hex(const std::vector<std::uint8_t>& data) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : data) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

std::uint64_t reference_mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// The tag spelled out from its definition: each word is assembled from its
// bytes with shifts (byte j is bits 8j..8j+7; a short tail is zero-padded),
// so it holds on any host byte order.
std::uint64_t reference_mac(const SymmetricKey& key, std::uint64_t nonce,
                            const std::vector<std::uint8_t>& ciphertext) {
  const std::size_t n = ciphertext.size();
  std::uint64_t h = reference_mix(key.k1 ^ nonce) ^ n * 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 8 && i + j < n; ++j) {
      word |= std::uint64_t{ciphertext[i + j]} << (8 * j);
    }
    h = (h ^ word) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  return reference_mix(h ^ key.k0);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(CipherTest, KnownAnswerVectors) {
  const SymmetricKey key = derive_key(2002, "alice#3");
  EXPECT_EQ(key.k0, 0x4f8b4d77e2cc7047ULL);
  EXPECT_EQ(key.k1, 0x6844f0358250cd86ULL);

  struct Vector {
    std::size_t length;
    const char* ciphertext_hex;
    std::uint64_t mac;
  };
  const Vector vectors[] = {
      {0, "", 0xb23cdaa5c9b727c2ULL},
      {1, "f4", 0xc9b3584039bf66d1ULL},
      {7, "f4d35d88fc5f1e", 0x977af7cde31f4321ULL},
      {8, "f4d35d88fc5f1e8e", 0x54a235381ae72d17ULL},
      {9, "f4d35d88fc5f1e8e02", 0x3a9e360362c5d49dULL},
  };
  for (const Vector& v : vectors) {
    const SealedBlob blob = seal(key, /*nonce=*/42, kat_plaintext(v.length));
    EXPECT_EQ(hex(blob.ciphertext), v.ciphertext_hex) << "length " << v.length;
    EXPECT_EQ(blob.mac, v.mac) << "length " << v.length;
    EXPECT_EQ(blob.nonce, 42u);
  }

  // 2048 bytes: pinned through a 64-bit FNV-1a of the ciphertext.
  const SealedBlob large = seal(key, 42, kat_plaintext(2048));
  ASSERT_EQ(large.ciphertext.size(), 2048u);
  EXPECT_EQ(fnv1a(large.ciphertext), 0xfe52859ce7b34fd4ULL);
  EXPECT_EQ(large.mac, 0xb2ab483e158834c4ULL);

  // The tag agrees with its byte-by-byte definition on every tail length
  // and on a full-size body.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(2048);
  for (std::size_t n : lengths) {
    const SealedBlob blob = seal(key, 42, kat_plaintext(n));
    EXPECT_EQ(blob.mac, reference_mac(key, 42, blob.ciphertext))
        << "length " << n;
  }
}

// Every single-bit change to a sealed blob's ciphertext or nonce, and every
// one-byte change to its length, must fail verification and leave the
// output empty.
TEST(CipherTest, TamperSweepRejectsEveryCase) {
  const SymmetricKey key = derive_key(2002, "alice#3");
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(2048);
  std::size_t cases = 0;
  const auto expect_rejected = [&](const SealedBlob& blob, const char* what,
                                   std::size_t n, std::size_t where) {
    std::vector<std::uint8_t> out{1};
    EXPECT_FALSE(unseal(key, blob, out))
        << what << " at " << where << ", length " << n;
    EXPECT_TRUE(out.empty());
    ++cases;
  };
  for (std::size_t n : lengths) {
    SealedBlob blob = seal(key, 42, kat_plaintext(n));
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      blob.ciphertext[bit / 8] ^= mask;
      expect_rejected(blob, "ciphertext bit", n, bit);
      blob.ciphertext[bit / 8] ^= mask;
    }
    for (unsigned bit = 0; bit < 64; ++bit) {
      blob.nonce ^= std::uint64_t{1} << bit;
      expect_rejected(blob, "nonce bit", n, bit);
      blob.nonce ^= std::uint64_t{1} << bit;
    }
    blob.ciphertext.push_back(0);
    expect_rejected(blob, "appended zero byte", n, n);
    blob.ciphertext.pop_back();
    if (n > 0) {
      const std::uint8_t last = blob.ciphertext.back();
      blob.ciphertext.pop_back();
      expect_rejected(blob, "dropped last byte", n, n - 1);
      blob.ciphertext.push_back(last);
    }
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(unseal(key, blob, out)) << "restored blob, length " << n;
  }
  EXPECT_EQ(cases, 18861u);
}

TEST(CipherTest, CostScalesWithSize) {
  EXPECT_LT(crypto_cpu_cost(100), crypto_cpu_cost(100000));
  EXPECT_GT(crypto_cpu_cost(0), 0.0);  // fixed setup cost
}

// ---- keystore -----------------------------------------------------------

TEST(KeyStoreTest, ProvisionCreatesPerLevelKeys) {
  KeyStore ks(777);
  ks.provision_user("alice", 5);
  for (std::int64_t level = 1; level <= 5; ++level) {
    EXPECT_TRUE(ks.has_key({"alice", level}));
  }
  EXPECT_FALSE(ks.has_key({"alice", 6}));
  EXPECT_FALSE(ks.has_key({"bob", 1}));
  EXPECT_EQ(ks.key_count(), 5u);
}

TEST(KeyStoreTest, ProvisionIsIdempotent) {
  KeyStore ks(777);
  ks.provision_user("alice", 3);
  const SymmetricKey before = ks.key({"alice", 2}).value();
  ks.provision_user("alice", 5);
  EXPECT_EQ(ks.key({"alice", 2}).value(), before);  // keys stable
  EXPECT_EQ(ks.key_count(), 5u);
}

TEST(KeyStoreTest, DistinctUsersGetDistinctKeys) {
  KeyStore ks(777);
  ks.provision_user("alice", 2);
  ks.provision_user("bob", 2);
  EXPECT_NE(ks.key({"alice", 1}).value(), ks.key({"bob", 1}).value());
  EXPECT_NE(ks.key({"alice", 1}).value(), ks.key({"alice", 2}).value());
}

TEST(KeyStoreTest, MissingKeyIsNotFound) {
  KeyStore ks(1);
  auto key = ks.key({"ghost", 1});
  EXPECT_FALSE(key.has_value());
  EXPECT_EQ(key.status().code(), util::ErrorCode::kNotFound);
}

TEST(KeyStoreTest, ReleaseLedgerTracksMaximum) {
  KeyStore ks(1);
  ks.provision_user("alice", 5);
  EXPECT_EQ(ks.released_level("node-sd", "alice"), 0);
  ASSERT_TRUE(ks.release_to_node("node-sd", "alice", 4).is_ok());
  EXPECT_EQ(ks.released_level("node-sd", "alice"), 4);
  // Lower release does not shrink the ledger.
  ASSERT_TRUE(ks.release_to_node("node-sd", "alice", 2).is_ok());
  EXPECT_EQ(ks.released_level("node-sd", "alice"), 4);
  // Other nodes unaffected.
  EXPECT_EQ(ks.released_level("node-sea", "alice"), 0);
}

TEST(KeyStoreTest, ReleaseFailsForUnprovisionedLevels) {
  KeyStore ks(1);
  ks.provision_user("alice", 2);
  EXPECT_FALSE(ks.release_to_node("n", "alice", 3).is_ok());
}

}  // namespace
}  // namespace psf::crypto

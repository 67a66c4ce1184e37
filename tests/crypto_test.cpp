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
// plaintexts whose lengths cross the keystream's 8-byte word boundary. Any
// rewrite of the keystream or the MAC must keep these bytes identical — the
// simulated wire bytes and every sealed payload depend on them.
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
      {0, "", 0xcf85a75d3cbc77cfULL},
      {1, "f4", 0xc9978e3839597d63ULL},
      {7, "f4d35d88fc5f1e", 0xd5037bc0c18995e7ULL},
      {8, "f4d35d88fc5f1e8e", 0xf465b7a307b1b21fULL},
      {9, "f4d35d88fc5f1e8e02", 0x5acd473edcbdffbdULL},
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
  EXPECT_EQ(large.mac, 0x03ca4044db75fdbfULL);
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

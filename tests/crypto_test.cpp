// Toy crypto substrate: round trips, tamper detection, key separation,
// known-answer vectors, batched unsealing, keystore release-ledger semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "crypto/cipher.hpp"
#include "crypto/keystore.hpp"
#include "util/rng.hpp"

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

// ---- unseal_all ---------------------------------------------------------

// One blob for a batch, and how it was made to fail, if at all.
struct BatchCase {
  SymmetricKey key;
  SealedBlob blob;
  std::vector<std::uint8_t> plaintext;
  bool tampered = false;
};

// Opens `cases` as one batch and checks every job against unseal() of the
// same blob alone: the same verdict and the same output, an empty output
// for a rejected job, and the plaintext for an untampered one. Jobs start
// with a stale output and the wrong verdict, which unseal_all must replace.
void expect_batch_matches_unseal(const std::vector<const BatchCase*>& cases) {
  std::vector<UnsealJob> jobs;
  for (const BatchCase* c : cases) {
    jobs.push_back(UnsealJob{c->key, &c->blob, {7, 7, 7}, c->tampered});
  }
  unseal_all(jobs);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BatchCase& c = *cases[i];
    std::vector<std::uint8_t> alone{9};
    const bool ok = unseal(c.key, c.blob, alone);
    EXPECT_EQ(jobs[i].ok, ok) << "job " << i << " of " << cases.size();
    EXPECT_EQ(jobs[i].out, alone) << "job " << i << " of " << cases.size();
    EXPECT_EQ(ok, !c.tampered) << "job " << i << " of " << cases.size();
    if (ok) {
      EXPECT_EQ(jobs[i].out, c.plaintext);
    } else {
      EXPECT_TRUE(jobs[i].out.empty());
    }
  }
}

TEST(CipherTest, UnsealAllMatchesUnsealOneAtATime) {
  const SymmetricKey key = derive_key(2002, "alice#3");
  const SymmetricKey wrong = derive_key(2002, "alice#4");
  util::Rng rng(35);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(2048);
  for (int k = 0; k < 12; ++k) {
    lengths.push_back(static_cast<std::size_t>(rng.uniform_u64(1536, 2560)));
  }

  // Every length untampered, and with each kind of damage it can take.
  enum class Damage { kNone, kCiphertextBit, kNonceBit, kTagBit, kWrongKey };
  std::vector<BatchCase> cases;
  std::uint64_t nonce = 100;
  for (std::size_t n : lengths) {
    for (Damage d : {Damage::kNone, Damage::kCiphertextBit, Damage::kNonceBit,
                     Damage::kTagBit, Damage::kWrongKey}) {
      if (d == Damage::kCiphertextBit && n == 0) continue;
      BatchCase c;
      c.key = key;
      c.plaintext = kat_plaintext(n);
      c.blob = seal(key, ++nonce, c.plaintext);
      c.tampered = d != Damage::kNone;
      switch (d) {
        case Damage::kNone:
          break;
        case Damage::kCiphertextBit: {
          const std::uint64_t bit = rng.uniform_u64(0, 8 * n - 1);
          c.blob.ciphertext[bit / 8] ^=
              static_cast<std::uint8_t>(1u << (bit % 8));
          break;
        }
        case Damage::kNonceBit:
          c.blob.nonce ^= std::uint64_t{1} << rng.uniform_u64(0, 63);
          break;
        case Damage::kTagBit:
          c.blob.mac ^= std::uint64_t{1} << rng.uniform_u64(0, 63);
          break;
        case Damage::kWrongKey:
          c.key = wrong;
          break;
      }
      cases.push_back(std::move(c));
    }
  }
  // A seeded shuffle, so neighbours differ in length and in damage.
  for (std::size_t i = cases.size(); i > 1; --i) {
    std::swap(cases[i - 1], cases[rng.uniform_u64(0, i - 1)]);
  }

  // Every window of the shuffled cases, at odd and even batch sizes, so
  // each case runs in either lane of a pair and as a lone last job.
  std::size_t shorter_first = 0, shorter_second = 0;
  std::size_t damaged_first = 0, damaged_second = 0, lone = 0;
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
    for (std::size_t start = 0; start < cases.size(); ++start) {
      std::vector<const BatchCase*> batch;
      for (std::size_t k = 0; k < count; ++k) {
        batch.push_back(&cases[(start + k) % cases.size()]);
      }
      expect_batch_matches_unseal(batch);
      for (std::size_t k = 0; k + 1 < count; k += 2) {
        const std::size_t na = batch[k]->blob.ciphertext.size();
        const std::size_t nb = batch[k + 1]->blob.ciphertext.size();
        shorter_first += na < nb;
        shorter_second += nb < na;
        damaged_first += batch[k]->tampered && !batch[k + 1]->tampered;
        damaged_second += batch[k + 1]->tampered && !batch[k]->tampered;
      }
      lone += count % 2 == 1 && batch.back()->tampered;
    }
  }
  EXPECT_GT(shorter_first, 0u);
  EXPECT_GT(shorter_second, 0u);
  EXPECT_GT(damaged_first, 0u);
  EXPECT_GT(damaged_second, 0u);
  EXPECT_GT(lone, 0u);

  std::vector<UnsealJob> none;
  unseal_all(none);
}

// TamperSweepRejectsEveryCase's cases, each opened in a pair next to an
// untampered blob, once in each lane: the tampered job is rejected with an
// empty output, and its partner opens to its plaintext.
TEST(CipherTest, TamperSweepRejectsEveryCaseInEitherLane) {
  const SymmetricKey key = derive_key(2002, "alice#3");
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(2048);
  std::vector<BatchCase> partners;
  for (std::size_t n : {std::size_t{0}, std::size_t{9}, std::size_t{1536},
                        std::size_t{2048}, std::size_t{2560}}) {
    BatchCase c;
    c.key = key;
    c.plaintext = kat_plaintext(n);
    c.blob = seal(key, 7 + n, c.plaintext);
    partners.push_back(std::move(c));
  }
  std::size_t cases = 0;
  const auto expect_rejected = [&](const SealedBlob& blob, const char* what,
                                   std::size_t n, std::size_t where) {
    const BatchCase& partner = partners[cases % partners.size()];
    for (bool tampered_first : {true, false}) {
      UnsealJob tampered{key, &blob, {1}, true};
      UnsealJob good{partner.key, &partner.blob, {1}, false};
      std::vector<UnsealJob> jobs;
      jobs.push_back(tampered_first ? tampered : good);
      jobs.push_back(tampered_first ? good : tampered);
      unseal_all(jobs);
      const UnsealJob& t = jobs[tampered_first ? 0 : 1];
      const UnsealJob& g = jobs[tampered_first ? 1 : 0];
      EXPECT_FALSE(t.ok) << what << " at " << where << ", length " << n
                         << ", lane " << (tampered_first ? 0 : 1);
      EXPECT_TRUE(t.out.empty());
      EXPECT_TRUE(g.ok) << what << " at " << where << ", length " << n;
      EXPECT_EQ(g.out, partner.plaintext);
    }
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

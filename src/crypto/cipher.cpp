#include "crypto/cipher.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/rng.hpp"

namespace psf::crypto {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Byte j of a word is bits 8j..8j+7 on every host, so ciphertexts and tags
// do not depend on the host's byte order.
std::uint64_t to_little_endian(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

// Loads n <= 8 bytes as one little-endian word; a short tail reads as if
// zero-padded. `p` must be dereferenceable (never an empty span's data()).
std::uint64_t load_word(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, n);
  return to_little_endian(w);
}

// Stores the low n <= 8 bytes of `w`, little-endian.
void store_word(std::uint8_t* p, std::uint64_t w, std::size_t n) {
  w = to_little_endian(w);
  std::memcpy(p, &w, n);
}

// The keystream for one (key, nonce): one SplitMix64 output per 8-byte word.
util::SplitMix64 keystream(const SymmetricKey& key, std::uint64_t nonce) {
  return util::SplitMix64(mix(key.k0 ^ nonce) ^ key.k1);
}

// One blob's pass over its words: the keystream and the running tag. Lanes
// are local variables, which the compiler keeps in registers; each word's
// tag step waits on the one before, and a round trip through memory would
// lengthen that chain.
class Lane {
 public:
  Lane(const SymmetricKey& key, std::uint64_t nonce, std::size_t n)
      : stream_(keystream(key, nonce)),
        h_(mix(key.k1 ^ nonce) ^
           static_cast<std::uint64_t>(n) * 0x9E3779B97F4A7C15ULL) {}

  // Encrypts one plaintext word (a short tail loaded zero-padded) and
  // absorbs its ciphertext. Only the low `n` bytes are stored, so the tag
  // absorbs the rest as zeros.
  std::uint64_t seal_word(std::uint64_t plain, std::size_t n) {
    const std::uint64_t c = plain ^ stream_.next();
    absorb(n == 8 ? c : c & ((std::uint64_t{1} << (8 * n)) - 1));
    return c;
  }

  // Absorbs one ciphertext word (a short tail loaded zero-padded) and
  // decrypts it.
  std::uint64_t open_word(std::uint64_t cipher) {
    absorb(cipher);
    return cipher ^ stream_.next();
  }

  std::uint64_t tag(const SymmetricKey& key) const { return mix(h_ ^ key.k0); }

 private:
  void absorb(std::uint64_t word) {
    h_ = (h_ ^ word) * 0x100000001B3ULL;
    h_ ^= h_ >> 29;
  }

  util::SplitMix64 stream_;
  std::uint64_t h_;
};

// Opens bytes [i, n) of one blob on one lane. The lane passes in and out
// by value, so its state stays in registers even where this is not inlined.
Lane open_words(Lane lane, const std::uint8_t* in, std::uint8_t* out,
                std::size_t i, std::size_t n) {
  for (; i + 8 <= n; i += 8) {
    store_word(out + i, lane.open_word(load_word(in + i, 8)), 8);
  }
  if (i < n) {
    store_word(out + i, lane.open_word(load_word(in + i, n - i)), n - i);
  }
  return lane;
}

// The tag check after a lane has opened every word: on a mismatch the
// plaintext is discarded.
bool verify(const Lane& lane, const SymmetricKey& key, const SealedBlob& blob,
            std::vector<std::uint8_t>& out) {
  if (lane.tag(key) == blob.mac) return true;
  out.clear();
  return false;
}

// Opens two jobs in lockstep over the words both blobs have, then each
// blob's remaining words on its own lane.
void unseal_pair(UnsealJob& a, UnsealJob& b) {
  const SealedBlob& blob_a = *a.blob;
  const SealedBlob& blob_b = *b.blob;
  const std::size_t na = blob_a.ciphertext.size();
  const std::size_t nb = blob_b.ciphertext.size();
  a.out.resize(na);
  b.out.resize(nb);
  const std::uint8_t* in_a = blob_a.ciphertext.data();
  const std::uint8_t* in_b = blob_b.ciphertext.data();
  std::uint8_t* out_a = a.out.data();
  std::uint8_t* out_b = b.out.data();
  Lane lane_a(a.key, blob_a.nonce, na);
  Lane lane_b(b.key, blob_b.nonce, nb);
  const std::size_t both = std::min(na, nb) / 8 * 8;
  for (std::size_t i = 0; i < both; i += 8) {
    store_word(out_a + i, lane_a.open_word(load_word(in_a + i, 8)), 8);
    store_word(out_b + i, lane_b.open_word(load_word(in_b + i, 8)), 8);
  }
  lane_a = open_words(lane_a, in_a, out_a, both, na);
  lane_b = open_words(lane_b, in_b, out_b, both, nb);
  a.ok = verify(lane_a, a.key, blob_a, a.out);
  b.ok = verify(lane_b, b.key, blob_b, b.out);
}

}  // namespace

SymmetricKey derive_key(std::uint64_t master_secret,
                        const std::string& label) {
  const std::uint64_t lh = hash_string(label);
  SymmetricKey key;
  key.k0 = mix(master_secret ^ lh);
  key.k1 = mix(master_secret + 0x9E3779B97F4A7C15ULL * lh);
  return key;
}

std::vector<std::uint8_t> apply_keystream(const SymmetricKey& key,
                                          std::uint64_t nonce,
                                          std::span<const std::uint8_t> data) {
  const std::size_t n = data.size();
  std::vector<std::uint8_t> out(n);
  util::SplitMix64 stream = keystream(key, nonce);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t w = std::min<std::size_t>(8, n - i);
    store_word(&out[i], load_word(&data[i], w) ^ stream.next(), w);
  }
  return out;
}

SealedBlob seal(const SymmetricKey& key, std::uint64_t nonce,
                std::span<const std::uint8_t> plaintext) {
  const std::size_t n = plaintext.size();
  SealedBlob blob;
  blob.nonce = nonce;
  blob.ciphertext.resize(n);
  const std::uint8_t* in = plaintext.data();
  std::uint8_t* out = blob.ciphertext.data();
  Lane lane(key, nonce, n);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store_word(out + i, lane.seal_word(load_word(in + i, 8), 8), 8);
  }
  if (i < n) {
    store_word(out + i, lane.seal_word(load_word(in + i, n - i), n - i),
               n - i);
  }
  blob.mac = lane.tag(key);
  return blob;
}

bool unseal(const SymmetricKey& key, const SealedBlob& blob,
            std::vector<std::uint8_t>& out) {
  const std::size_t n = blob.ciphertext.size();
  out.resize(n);
  const Lane lane = open_words(Lane(key, blob.nonce, n),
                               blob.ciphertext.data(), out.data(), 0, n);
  return verify(lane, key, blob, out);
}

void unseal_all(std::span<UnsealJob> jobs) {
  std::size_t i = 0;
  for (; i + 2 <= jobs.size(); i += 2) unseal_pair(jobs[i], jobs[i + 1]);
  if (i < jobs.size()) {
    jobs[i].ok = unseal(jobs[i].key, *jobs[i].blob, jobs[i].out);
  }
}

double crypto_cpu_cost(std::size_t bytes) {
  // ~0.0025 cpu units/byte: a 4 KB body costs ~10 units vs ~100 units for a
  // mail-server request in the case-study spec.
  return 2.0 + 0.0025 * static_cast<double>(bytes);
}

}  // namespace psf::crypto

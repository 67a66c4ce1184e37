#include "crypto/cipher.hpp"

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

// out = in XOR keystream, in the word layout apply_keystream documents;
// `out` must hold in.size() bytes.
void xor_keystream(const SymmetricKey& key, std::uint64_t nonce,
                   std::span<const std::uint8_t> in,
                   std::span<std::uint8_t> out) {
  util::SplitMix64 stream(mix(key.k0 ^ nonce) ^ key.k1);
  const std::size_t n = in.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store_word(&out[i], load_word(&in[i], 8) ^ stream.next(), 8);
  }
  if (i < n) {
    store_word(&out[i], load_word(&in[i], n - i) ^ stream.next(), n - i);
  }
}

std::uint64_t absorb(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x100000001B3ULL;
  return h ^ (h >> 29);
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
  std::vector<std::uint8_t> out(data.size());
  xor_keystream(key, nonce, data, out);
  return out;
}

std::uint64_t compute_mac(const SymmetricKey& key, std::uint64_t nonce,
                          std::span<const std::uint8_t> ciphertext) {
  const std::size_t n = ciphertext.size();
  std::uint64_t h = mix(key.k1 ^ nonce) ^
                    static_cast<std::uint64_t>(n) * 0x9E3779B97F4A7C15ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) h = absorb(h, load_word(&ciphertext[i], 8));
  if (i < n) h = absorb(h, load_word(&ciphertext[i], n - i));
  return mix(h ^ key.k0);
}

SealedBlob seal(const SymmetricKey& key, std::uint64_t nonce,
                std::span<const std::uint8_t> plaintext) {
  SealedBlob blob;
  blob.nonce = nonce;
  blob.ciphertext.resize(plaintext.size());
  xor_keystream(key, nonce, plaintext, blob.ciphertext);
  blob.mac = compute_mac(key, nonce, blob.ciphertext);
  return blob;
}

bool unseal(const SymmetricKey& key, const SealedBlob& blob,
            std::vector<std::uint8_t>& out) {
  out.clear();
  if (compute_mac(key, blob.nonce, blob.ciphertext) != blob.mac) return false;
  out.resize(blob.ciphertext.size());
  xor_keystream(key, blob.nonce, blob.ciphertext, out);
  return true;
}

double crypto_cpu_cost(std::size_t bytes) {
  // ~0.0025 cpu units/byte: a 4 KB body costs ~10 units vs ~100 units for a
  // mail-server request in the case-study spec.
  return 2.0 + 0.0025 * static_cast<double>(bytes);
}

}  // namespace psf::crypto

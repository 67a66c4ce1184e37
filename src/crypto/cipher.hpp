// Toy symmetric cipher + MAC used by the Encryptor/Decryptor components.
//
// >>> NOT CRYPTOGRAPHICALLY SECURE. <<<
// The paper used the Cryptix JCE; what the framework actually needs from the
// crypto substrate is (a) a payload transformation so confidentiality
// semantics are exercised end-to-end, (b) keys bound to (user, sensitivity
// level) so trust decisions about key placement are real, and (c) a
// deterministic CPU cost per byte so encryption shows up in latency
// measurements. A keystream XOR + keyed hash delivers all three at
// simulation fidelity; see DESIGN.md §2.
//
// seal and unseal read a body once: each 8-byte word is XORed with the
// keystream and absorbed into the tag in the same step, so the keystream's
// independent multiplies run under the tag's serial multiply chain.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace psf::crypto {

struct SymmetricKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;

  bool operator==(const SymmetricKey&) const = default;
};

// Deterministic key derivation from a master secret + label; stands in for
// account-setup-time key-pair generation (paper §2).
SymmetricKey derive_key(std::uint64_t master_secret, const std::string& label);

// Keystream XOR; encryption and decryption are the same operation.
// `nonce` must differ per message (the mail runtime uses the message id).
// Works one 8-byte little-endian word at a time: word k is XORed with the
// k-th output of a SplitMix64 seeded from (key, nonce), and a tail shorter
// than 8 bytes takes the low bytes of one more output.
std::vector<std::uint8_t> apply_keystream(const SymmetricKey& key,
                                          std::uint64_t nonce,
                                          std::span<const std::uint8_t> data);

// A sealed payload: ciphertext + nonce + tag. The tag is a keyed 64-bit hash
// (toy integrity check) over the nonce, the length and the ciphertext,
// absorbed 8 bytes per step (a short tail zero-padded), so a changed nonce,
// a changed byte, an appended byte or a dropped byte all change it.
struct SealedBlob {
  std::vector<std::uint8_t> ciphertext;
  std::uint64_t nonce = 0;
  std::uint64_t mac = 0;

  // Wire size, for the network cost model (nonce + mac overhead).
  std::size_t wire_size() const { return ciphertext.size() + 16; }
};

SealedBlob seal(const SymmetricKey& key, std::uint64_t nonce,
                std::span<const std::uint8_t> plaintext);

// Verifies the tag while decrypting; returns false (and leaves `out` empty)
// on MAC mismatch.
bool unseal(const SymmetricKey& key, const SealedBlob& blob,
            std::vector<std::uint8_t>& out);

// One blob for unseal_all. `blob` is not owned and must outlive the call.
struct UnsealJob {
  SymmetricKey key;
  const SealedBlob* blob = nullptr;
  std::vector<std::uint8_t> out;  // the plaintext; empty unless `ok`
  bool ok = false;
};

// Opens every job exactly as unseal(job.key, *job.blob, job.out) would,
// setting `ok` to its result. Jobs run in pairs, in order, two lanes in
// lockstep: one lane's tag chain (xor, multiply, shift, xor per word) is
// latency-bound, and a second independent chain fills its gaps. Four lanes
// run no faster than two: the pass is then bound by its three multiplies
// per word, and x86-64's 16 registers cannot hold four lanes. A lone last
// job runs on one lane. Lanes share no state, so a job whose tag fails
// affects no other job.
void unseal_all(std::span<UnsealJob> jobs);

// Cost model: abstract cpu units consumed to seal/unseal `bytes` bytes.
// Tuned so encrypting a 4 KB mail body costs about one tenth of a mail-server
// request (the paper reports encryption overhead as minor relative to
// transfer time on slow links).
double crypto_cpu_cost(std::size_t bytes);

}  // namespace psf::crypto

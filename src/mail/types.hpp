// Wire types and operation names of the security-sensitive mail service
// (paper §2): accounts, folders, contact lists, send/receive, and per-message
// sensitivity levels with transparent encryption.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/cipher.hpp"
#include "runtime/message.hpp"

namespace psf::mail {

// Operation names.
namespace ops {
inline constexpr const char* kSend = "mail.send";
inline constexpr const char* kReceive = "mail.receive";
inline constexpr const char* kCreateAccount = "mail.create_account";
inline constexpr const char* kAddContact = "mail.add_contact";
inline constexpr const char* kGetContacts = "mail.get_contacts";
inline constexpr const char* kSync = "mail.sync";            // replica -> home
inline constexpr const char* kPush = "mail.push";            // home -> replica
inline constexpr const char* kRegisterReplica = "mail.register_replica";
}  // namespace ops

// The paper's sensitivity levels range over the TrustLevel interval (1, 5);
// 0 means "not sensitive" (no encryption).
inline constexpr std::int64_t kMaxSensitivity = 5;

struct MailMessage {
  std::uint64_t id = 0;
  std::string from;
  std::string to;
  std::string subject;
  std::int64_t sensitivity = 0;

  // Exactly one of `plaintext` / `sealed` is populated: a message of
  // sensitivity > 0 travels and is stored sealed under (key_owner,
  // sensitivity); the service re-seals from sender key to recipient key on
  // delivery (paper §2: "transforms these messages to those encrypted to the
  // recipient's sensitivity upon a receive").
  //
  // A sealed body is immutable and shared: every copy of the message (view
  // cache, coherence payloads, home folders, receive results) points at the
  // one ciphertext. Re-sealing makes a new blob and repoints only the copy
  // being re-sealed.
  std::vector<std::uint8_t> plaintext;
  std::shared_ptr<const crypto::SealedBlob> sealed;
  std::string key_owner;  // whose key sealed it (sender until re-encryption)

  std::uint64_t body_bytes() const {
    return sealed ? sealed->wire_size() : plaintext.size();
  }
};

struct Folder {
  std::vector<MailMessage> messages;
};

struct Account {
  std::string user;
  std::set<std::string> contacts;
  Folder inbox;
  Folder sent;
};

// ---- request/response bodies -----------------------------------------------

struct SendBody : runtime::MessageBody {
  MailMessage message;
};

struct ReceiveBody : runtime::MessageBody {
  std::string user;
  std::size_t max_messages = 16;
  // Request messages above the serving replica's trust level too; such a
  // request cannot be served from a lower-trust cache and is forwarded to
  // the home server (this is what makes the view's RRF real at run time).
  bool include_high_sensitivity = false;
};

struct ReceiveResultBody : runtime::MessageBody {
  std::vector<MailMessage> messages;
};

struct AccountBody : runtime::MessageBody {
  std::string user;
};

struct ContactBody : runtime::MessageBody {
  std::string user;
  std::string contact;
};

struct ContactsResultBody : runtime::MessageBody {
  std::set<std::string> contacts;
};

struct RegisterReplicaBody : runtime::MessageBody {
  std::uint64_t replica_instance = 0;
  std::set<std::string> cached_users;
  bool wildcard = false;
};

// Wire-size helpers: header + body estimate, used for the network cost model.
std::uint64_t send_wire_bytes(const MailMessage& message);
std::uint64_t receive_result_wire_bytes(const std::vector<MailMessage>& msgs);

}  // namespace psf::mail

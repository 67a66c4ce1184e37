// Mail service components: end-to-end send/receive with encryption, view
// caching and trust enforcement, client view restrictions, tunnel integrity.
#include <gtest/gtest.h>

#include "mail/client.hpp"
#include "mail/crypto_components.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/server.hpp"
#include "mail/view_server.hpp"

namespace psf::mail {
namespace {

// Hand-built world: client node (trust 4) -- insecure WAN -- home (trust 5).
struct MailFixture : public ::testing::Test {
  MailFixture() : runtime(sim, network) {
    net::Credentials edge_creds;
    edge_creds.set("trust", std::int64_t{4});
    edge_creds.set("secure", true);
    edge = network.add_node("edge", 1e6, edge_creds);

    net::Credentials home_creds;
    home_creds.set("trust", std::int64_t{5});
    home_creds.set("secure", true);
    home = network.add_node("home", 1e6, home_creds);

    net::Credentials insecure;
    insecure.set("secure", false);
    network.add_link(edge, home, 10e6, sim::Duration::from_millis(50),
                     insecure);

    config = std::make_shared<MailServiceConfig>();
    spec = std::make_unique<spec::ServiceSpec>(mail_service_spec());
    PSF_CHECK(register_mail_factories(runtime.factories(), config).is_ok());
  }

  runtime::RuntimeInstanceId install(const std::string& type, net::NodeId node,
                                     std::int64_t trust_factor = 0) {
    planner::FactorBindings factors;
    if (trust_factor > 0) {
      factors.values["TrustLevel"] = spec::PropertyValue::integer(trust_factor);
    }
    runtime::RuntimeInstanceId out = 0;
    runtime.install(*spec->find_component(type), node, factors, node,
                    [&out](util::Expected<runtime::RuntimeInstanceId> id) {
                      PSF_CHECK_MSG(id.has_value(), id.status().to_string());
                      out = *id;
                    });
    sim.run();
    return out;
  }

  runtime::Request send_request(const std::string& from, const std::string& to,
                                std::int64_t sensitivity,
                                const std::string& text = "hello") {
    auto body = std::make_shared<SendBody>();
    body->message.id = next_id++;
    body->message.from = from;
    body->message.to = to;
    body->message.sensitivity = sensitivity;
    body->message.plaintext.assign(text.begin(), text.end());
    runtime::Request request;
    request.op = ops::kSend;
    request.body = body;
    request.wire_bytes = send_wire_bytes(body->message);
    request.principal = from;
    return request;
  }

  runtime::Request receive_request(const std::string& user,
                                   bool include_high = false) {
    auto body = std::make_shared<ReceiveBody>();
    body->user = user;
    body->include_high_sensitivity = include_high;
    runtime::Request request;
    request.op = ops::kReceive;
    request.body = body;
    request.wire_bytes = 256;
    return request;
  }

  runtime::Response invoke(net::NodeId from, runtime::RuntimeInstanceId target,
                           runtime::Request request) {
    runtime::Response out;
    bool done = false;
    runtime.invoke_from_node(from, target, std::move(request),
                             [&](runtime::Response response) {
                               out = std::move(response);
                               done = true;
                             });
    sim.run();
    PSF_CHECK(done);
    return out;
  }

  sim::Simulator sim;
  net::Network network;
  runtime::SmockRuntime runtime;
  net::NodeId edge, home;
  MailConfigPtr config;
  std::unique_ptr<spec::ServiceSpec> spec;
  std::uint64_t next_id = 1;
};

TEST_F(MailFixture, ServerStoresAndServesPlainMail) {
  const auto server = install("MailServer", home);
  ASSERT_TRUE(runtime.start(server).is_ok());
  config->keys->provision_user("alice", kMaxSensitivity);

  auto r = invoke(home, server, send_request("alice", "bob", 0));
  ASSERT_TRUE(r.ok) << r.error;

  auto* comp = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->inbox_size("bob"), 1u);
  EXPECT_EQ(comp->mail_stats().sends, 1u);

  auto recv = invoke(home, server, receive_request("bob"));
  ASSERT_TRUE(recv.ok);
  const auto* result = runtime::body_as<ReceiveResultBody>(recv);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->messages.size(), 1u);
  EXPECT_EQ(result->messages[0].from, "alice");
  EXPECT_EQ(std::string(result->messages[0].plaintext.begin(),
                        result->messages[0].plaintext.end()),
            "hello");
}

TEST_F(MailFixture, FullClientServerEncryptionRoundTrip) {
  // MailClient@edge -> Encryptor@edge -> Decryptor@home -> MailServer@home.
  const auto server = install("MailServer", home);
  const auto decryptor = install("Decryptor", home);
  const auto encryptor = install("Encryptor", edge);
  const auto client = install("MailClient", edge);
  ASSERT_TRUE(runtime.wire(decryptor, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.wire(encryptor, "DecryptorInterface", decryptor).is_ok());
  ASSERT_TRUE(runtime.wire(client, "ServerInterface", encryptor).is_ok());
  for (auto id : {server, decryptor, encryptor, client}) {
    ASSERT_TRUE(runtime.start(id).is_ok());
  }
  config->keys->provision_user("alice", kMaxSensitivity);
  config->keys->provision_user("bob", kMaxSensitivity);

  // Sensitivity-3 mail: sealed by the client, re-sealed by the server for
  // the recipient, unsealed by the recipient's client.
  auto sent = invoke(edge, client, send_request("alice", "bob", 3, "secret!"));
  ASSERT_TRUE(sent.ok) << sent.error;

  auto* server_comp = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());
  ASSERT_EQ(server_comp->inbox_size("bob"), 1u);
  // Stored sealed, not in plaintext.
  const Account* bob = server_comp->find_account("bob");
  ASSERT_TRUE(bob->inbox.messages[0].sealed != nullptr);
  EXPECT_TRUE(bob->inbox.messages[0].plaintext.empty());

  auto recv = invoke(edge, client, receive_request("bob"));
  ASSERT_TRUE(recv.ok) << recv.error;
  const auto* result = runtime::body_as<ReceiveResultBody>(recv);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->messages.size(), 1u);
  EXPECT_EQ(std::string(result->messages[0].plaintext.begin(),
                        result->messages[0].plaintext.end()),
            "secret!");

  auto* client_comp = dynamic_cast<MailClientComponent*>(
      runtime.instance(client).component.get());
  EXPECT_EQ(client_comp->client_stats().messages_decrypted, 1u);
  EXPECT_EQ(client_comp->client_stats().mac_failures, 0u);

  auto* enc = dynamic_cast<EncryptorComponent*>(
      runtime.instance(encryptor).component.get());
  EXPECT_GE(enc->tunnel_stats().requests_sealed, 2u);
  EXPECT_EQ(enc->tunnel_stats().mac_failures, 0u);
}

TEST_F(MailFixture, ViewCachesLowSensitivityAndForwardsHigh) {
  const auto server = install("MailServer", home);
  const auto view = install("ViewMailServer", edge, /*trust=*/4);
  ASSERT_TRUE(runtime.wire(view, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(view).is_ok());
  sim.run();  // replica registration
  config->keys->provision_user("alice", kMaxSensitivity);

  auto* view_comp = dynamic_cast<ViewMailServerComponent*>(
      runtime.instance(view).component.get());
  auto* server_comp = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());
  EXPECT_EQ(view_comp->trust_level(), 4);

  // Low sensitivity: absorbed by the view, not yet at the server (policy is
  // none by default — no propagation until an explicit flush).
  auto low = invoke(edge, view, send_request("alice", "alice", 2));
  ASSERT_TRUE(low.ok);
  EXPECT_EQ(view_comp->view_stats().sends_local, 1u);
  EXPECT_EQ(view_comp->cached_inbox_size("alice"), 1u);
  EXPECT_EQ(server_comp->inbox_size("alice"), 0u);

  // Sensitivity 5 > trust 4: forwarded to the home, never cached.
  auto high = invoke(edge, view, send_request("alice", "alice", 5));
  ASSERT_TRUE(high.ok);
  EXPECT_EQ(view_comp->view_stats().sends_forwarded, 1u);
  EXPECT_EQ(view_comp->cached_inbox_size("alice"), 1u);
  EXPECT_EQ(server_comp->inbox_size("alice"), 1u);

  // Receives: normal ones served locally, high-sensitivity ones forwarded.
  auto local_recv = invoke(edge, view, receive_request("alice"));
  ASSERT_TRUE(local_recv.ok);
  EXPECT_EQ(view_comp->view_stats().receives_local, 1u);
  auto remote_recv = invoke(edge, view, receive_request("alice", true));
  ASSERT_TRUE(remote_recv.ok);
  EXPECT_EQ(view_comp->view_stats().receives_forwarded, 1u);

  // A second cached send to the same recipient. An inbox update is an
  // append, so it must not replace the first one in the replica's queue.
  auto low2 = invoke(edge, view, send_request("alice", "alice", 1));
  ASSERT_TRUE(low2.ok);
  EXPECT_EQ(view_comp->cached_inbox_size("alice"), 2u);
  EXPECT_EQ(server_comp->inbox_size("alice"), 1u);

  // Flush propagates both cached sends to the home.
  view_comp->replica_coherence()->flush();
  sim.run();
  EXPECT_EQ(server_comp->inbox_size("alice"), 3u);
  EXPECT_EQ(server_comp->mail_stats().sync_updates_applied, 2u);
}

TEST_F(MailFixture, ViewNeverHoldsKeysAboveItsTrust) {
  const auto server = install("MailServer", home);
  const auto view = install("ViewMailServer", edge, /*trust=*/2);
  ASSERT_TRUE(runtime.wire(view, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(view).is_ok());
  sim.run();
  config->keys->provision_user("alice", kMaxSensitivity);

  auto* view_comp = dynamic_cast<ViewMailServerComponent*>(
      runtime.instance(view).component.get());

  // Sensitivity 3 > trust 2: forwarded, not cached.
  auto r = invoke(edge, view, send_request("alice", "alice", 3));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(view_comp->cached_inbox_size("alice"), 0u);
  EXPECT_EQ(view_comp->view_stats().sends_forwarded, 1u);
}

TEST_F(MailFixture, ViewClientRejectsAddressBookOps) {
  const auto server = install("MailServer", home);
  const auto vclient = install("ViewMailClient", edge);
  ASSERT_TRUE(runtime.wire(vclient, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(vclient).is_ok());

  auto body = std::make_shared<ContactBody>();
  body->user = "alice";
  body->contact = "bob";
  runtime::Request request;
  request.op = ops::kAddContact;
  request.body = body;
  auto r = invoke(edge, vclient, std::move(request));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not available"), std::string::npos);

  auto* comp = dynamic_cast<ViewMailClientComponent*>(
      runtime.instance(vclient).component.get());
  EXPECT_EQ(comp->client_stats().rejected_ops, 1u);
}

TEST_F(MailFixture, FullClientSupportsAddressBook) {
  const auto server = install("MailServer", home);
  const auto client = install("MailClient", edge);
  ASSERT_TRUE(runtime.wire(client, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(client).is_ok());

  auto contact = std::make_shared<ContactBody>();
  contact->user = "alice";
  contact->contact = "bob";
  runtime::Request add;
  add.op = ops::kAddContact;
  add.body = contact;
  ASSERT_TRUE(invoke(edge, client, std::move(add)).ok);

  auto who = std::make_shared<AccountBody>();
  who->user = "alice";
  runtime::Request get;
  get.op = ops::kGetContacts;
  get.body = who;
  auto r = invoke(edge, client, std::move(get));
  ASSERT_TRUE(r.ok);
  const auto* contacts = runtime::body_as<ContactsResultBody>(r);
  ASSERT_NE(contacts, nullptr);
  EXPECT_EQ(contacts->contacts, (std::set<std::string>{"bob"}));
}

TEST_F(MailFixture, DecryptorRejectsPlainTraffic) {
  const auto server = install("MailServer", home);
  const auto decryptor = install("Decryptor", home);
  ASSERT_TRUE(runtime.wire(decryptor, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(decryptor).is_ok());
  config->keys->provision_user("alice", kMaxSensitivity);

  auto r = invoke(home, decryptor, send_request("alice", "bob", 0));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("sealed tunnel traffic"), std::string::npos);
}

TEST_F(MailFixture, TunnelDetectsTamperedEnvelope) {
  const crypto::SymmetricKey key = tunnel_key(*config);
  auto image = tunnel_image(100, 1);
  crypto::SealedBlob blob = crypto::seal(key, 1, image);
  blob.ciphertext[0] ^= 0xFF;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(crypto::unseal(key, blob, out));
}

// Known-answer vectors for the tunnel image: its length (capped at 4096
// bytes) and a 64-bit FNV-1a of its bytes, at lengths around the 8-byte
// word and the cap. Any rewrite of tunnel_image must keep them.
TEST(TunnelImageTest, KnownAnswerVectors) {
  const auto fnv1a = [](const std::vector<std::uint8_t>& data) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::uint8_t b : data) {
      h ^= b;
      h *= 0x100000001B3ULL;
    }
    return h;
  };
  struct Vector {
    std::uint64_t bytes;
    std::uint64_t nonce;
    std::size_t size;
    std::uint64_t fnv;
  };
  const Vector vectors[] = {
      {0, 2, 0, 0xcbf29ce484222325ULL},
      {1, 2, 1, 0xaf63bf4c8601bb45ULL},
      {7, 2, 7, 0x31ece6f6fb72ff18ULL},
      {8, 2, 8, 0x488c04ad44683ffdULL},
      {9, 2, 9, 0xae2bd96b3d249585ULL},
      {4095, 2, 4095, 0x21b09fb85a080bb8ULL},
      {4096, 2, 4096, 0x472b2d40fbac0325ULL},
      {4097, 2, 4096, 0x472b2d40fbac0325ULL},
      {9, 1, 9, 0xf7494c827d17c9b4ULL},
      {4097, 1, 4096, 0x6a13673e0703c325ULL},
      {9, 0xFFFFFFFFFFFFFFFFULL, 9, 0xdde1093766c97bd6ULL},
      {4095, 0xFFFFFFFFFFFFFFFFULL, 4095, 0x4f7bc06aadc92bbbULL},
      {9, 0x123456789ABCDEFULL, 9, 0xf95fb5ce794fdf46ULL},
      {4096, 0x123456789ABCDEFULL, 4096, 0xe31c33f8735a0325ULL},
  };
  for (const Vector& v : vectors) {
    const std::vector<std::uint8_t> image = tunnel_image(v.bytes, v.nonce);
    EXPECT_EQ(image.size(), v.size) << v.bytes << " bytes, nonce " << v.nonce;
    EXPECT_EQ(fnv1a(image), v.fnv)
        << v.bytes << " bytes, nonce " << v.nonce << ": 0x" << std::hex
        << fnv1a(image);
  }
}

// A receive result with one corrupted body among five. The client opens the
// other four, leaves the corrupted one sealed, counts it as a MAC failure,
// and charges crypto time for the four it opened, in message order.
TEST_F(MailFixture, ClientOpensMixedReceiveResult) {
  const auto server = install("MailServer", home);
  const auto client = install("MailClient", edge);
  ASSERT_TRUE(runtime.wire(client, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(client).is_ok());
  config->keys->provision_user("alice", kMaxSensitivity);
  config->keys->provision_user("bob", kMaxSensitivity);

  // Sealed by alice; the server re-seals each for bob on the receive. The
  // third carries a flipped ciphertext bit, so its re-seal fails and it
  // reaches the client still under alice's key.
  struct Sent {
    std::int64_t sensitivity;
    std::size_t length;
  };
  const Sent sent[] = {{3, 1536}, {3, 2048}, {3, 17}, {4, 2560}, {2, 9}};
  std::vector<std::vector<std::uint8_t>> texts;
  for (std::size_t i = 0; i < std::size(sent); ++i) {
    std::vector<std::uint8_t> text(sent[i].length);
    for (std::size_t j = 0; j < text.size(); ++j) {
      text[j] = static_cast<std::uint8_t>(j * 7 + i);
    }
    auto body = std::make_shared<SendBody>();
    body->message.id = 100 + i;
    body->message.from = "alice";
    body->message.to = "bob";
    body->message.sensitivity = sent[i].sensitivity;
    crypto::SealedBlob blob = crypto::seal(
        config->keys->key({"alice", sent[i].sensitivity}).value(),
        body->message.id, text);
    if (i == 2) blob.ciphertext[5] ^= 0x10;
    body->message.sealed = std::make_shared<crypto::SealedBlob>(blob);
    body->message.key_owner = "alice";
    runtime::Request request;
    request.op = ops::kSend;
    request.body = body;
    request.wire_bytes = send_wire_bytes(body->message);
    ASSERT_TRUE(invoke(home, server, std::move(request)).ok);
    texts.push_back(std::move(text));
  }

  const sim::Time start = sim.now();
  auto recv = invoke(edge, client, receive_request("bob"));
  ASSERT_TRUE(recv.ok) << recv.error;
  // Network, the server's re-seals and the client's opens, all simulated.
  EXPECT_EQ((sim.now() - start).nanos(), 106009347);

  const auto* result = runtime::body_as<ReceiveResultBody>(recv);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->messages.size(), std::size(sent));
  for (std::size_t i = 0; i < std::size(sent); ++i) {
    const MailMessage& m = result->messages[i];
    EXPECT_EQ(m.id, 100 + i);
    if (i == 2) {
      ASSERT_NE(m.sealed, nullptr);
      EXPECT_EQ(m.key_owner, "alice");
      EXPECT_TRUE(m.plaintext.empty());
    } else {
      EXPECT_EQ(m.sealed, nullptr) << "message " << i;
      EXPECT_EQ(m.key_owner, "bob") << "message " << i;
      EXPECT_EQ(m.plaintext, texts[i]) << "message " << i;
    }
  }

  auto* client_comp = dynamic_cast<MailClientComponent*>(
      runtime.instance(client).component.get());
  EXPECT_EQ(client_comp->client_stats().messages_decrypted, 4u);
  EXPECT_EQ(client_comp->client_stats().mac_failures, 1u);
}

TEST_F(MailFixture, ServerReencryptsForRecipient) {
  const auto server = install("MailServer", home);
  ASSERT_TRUE(runtime.start(server).is_ok());
  config->keys->provision_user("alice", kMaxSensitivity);
  config->keys->provision_user("bob", kMaxSensitivity);

  // Pre-sealed by sender.
  auto body = std::make_shared<SendBody>();
  body->message.id = 9;
  body->message.from = "alice";
  body->message.to = "bob";
  body->message.sensitivity = 4;
  const std::string text = "for bob only";
  const auto key = config->keys->key({"alice", 4}).value();
  body->message.sealed = std::make_shared<crypto::SealedBlob>(crypto::seal(
      key, 9, std::vector<std::uint8_t>(text.begin(), text.end())));
  body->message.key_owner = "alice";
  runtime::Request request;
  request.op = ops::kSend;
  request.body = body;
  request.wire_bytes = send_wire_bytes(body->message);
  ASSERT_TRUE(invoke(home, server, std::move(request)).ok);

  auto* comp = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());
  const MailMessage& stored = comp->find_account("bob")->inbox.messages[0];
  const std::shared_ptr<const crypto::SealedBlob> stored_blob = stored.sealed;
  ASSERT_NE(stored_blob, nullptr);

  auto recv = invoke(home, server, receive_request("bob"));
  ASSERT_TRUE(recv.ok);
  const auto* result = runtime::body_as<ReceiveResultBody>(recv);
  ASSERT_EQ(result->messages.size(), 1u);
  const MailMessage& m = result->messages[0];
  EXPECT_EQ(m.key_owner, "bob");  // re-sealed under the recipient's key
  ASSERT_TRUE(m.sealed != nullptr);
  std::vector<std::uint8_t> plain;
  ASSERT_TRUE(crypto::unseal(config->keys->key({"bob", 4}).value(), *m.sealed,
                             plain));
  EXPECT_EQ(std::string(plain.begin(), plain.end()), text);

  // Copy-on-write: re-sealing made a new blob for the returned copy; the
  // stored message still holds the sender's blob, untouched.
  EXPECT_NE(m.sealed, stored_blob);
  EXPECT_EQ(stored.sealed, stored_blob);
  EXPECT_EQ(stored.key_owner, "alice");
  plain.clear();
  ASSERT_TRUE(crypto::unseal(key, *stored.sealed, plain));
  EXPECT_EQ(std::string(plain.begin(), plain.end()), text);

  EXPECT_EQ(comp->mail_stats().reencryptions, 1u);
}

TEST_F(MailFixture, HierarchicalViewChainRelaysSyncs) {
  // view2(trust 2)@edge -> view4(trust 4)@edge -> server@home; a flush from
  // view2 must land in view4's cache and be relayed onward to the server by
  // view4's own coherence.
  const auto server = install("MailServer", home);
  const auto view4 = install("ViewMailServer", edge, 4);
  const auto view2 = install("ViewMailServer", edge, 2);
  ASSERT_TRUE(runtime.wire(view4, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.wire(view2, "ServerInterface", view4).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(view4).is_ok());
  ASSERT_TRUE(runtime.start(view2).is_ok());
  sim.run();
  config->keys->provision_user("alice", kMaxSensitivity);

  auto* v2 = dynamic_cast<ViewMailServerComponent*>(
      runtime.instance(view2).component.get());
  auto* v4 = dynamic_cast<ViewMailServerComponent*>(
      runtime.instance(view4).component.get());
  auto* srv = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());

  ASSERT_TRUE(invoke(edge, view2, send_request("alice", "alice", 1)).ok);
  EXPECT_EQ(v2->cached_inbox_size("alice"), 1u);
  EXPECT_EQ(v4->cached_inbox_size("alice"), 0u);

  v2->replica_coherence()->flush();
  sim.run();
  EXPECT_EQ(v4->cached_inbox_size("alice"), 1u);
  EXPECT_EQ(v4->view_stats().syncs_relayed, 1u);
  EXPECT_EQ(srv->inbox_size("alice"), 0u);  // not yet propagated upward

  v4->replica_coherence()->flush();
  sim.run();
  EXPECT_EQ(srv->inbox_size("alice"), 1u);
}

}  // namespace
}  // namespace psf::mail

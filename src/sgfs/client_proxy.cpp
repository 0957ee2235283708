#include "sgfs/client_proxy.hpp"

#include <algorithm>
#include <cassert>

#include "common/bufchain.hpp"

#include "common/log.hpp"
#include "crypto/key_regression.hpp"
#include "sgfs/replica.hpp"
#include "sgfs/shard_map.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::core {

using nfs::Fh;
using nfs::Proc3;
using nfs::Status;

namespace {

// Raises a server-reported size to `floor`; true if it moved.
bool raise_size(vfs::Attributes& attrs, uint64_t floor) {
  if (attrs.size >= floor) return false;
  attrs.size = floor;
  return true;
}

bool raise_size(std::optional<vfs::Attributes>& attrs, uint64_t floor) {
  return attrs && raise_size(*attrs, floor);
}

template <class T>
BufChain encode_xdr(const T& value) {
  xdr::Encoder enc;
  value.encode(enc);
  return enc.take();
}

template <class T>
T decode_xdr(const BufChain& bytes) {
  xdr::Decoder dec(bytes);
  return T::decode(dec);
}

}  // namespace

ClientProxy::~ClientProxy() = default;

ClientProxy::ClientProxy(net::Host& host, ClientProxyConfig config, Rng rng)
    : host_(host),
      config_(std::move(config)),
      rng_(rng),
      session_mgr_(host, config_, rng_),
      forward_mutex_(host.engine()) {
  auto& m = host.engine().metrics();
  m_sessions_ = {m, "sgfs.client_proxy.sessions"};
  m_forwarded_ = {m, "sgfs.client_proxy.forwarded"};
  m_jukebox_retries_ = {m, "sgfs.client_proxy.jukebox_retries"};
  m_reconnects_ = {m, "sgfs.client_proxy.reconnects"};
  m_flushed_bytes_ = {m, "sgfs.client_proxy.flushed_bytes"};
  m_writeback_error_bytes_ = {m, "sgfs.client_proxy.writeback_error_bytes"};
  m_absorbed_getattrs_ = {m, "sgfs.client_proxy.absorbed.getattrs"};
  m_absorbed_lookups_ = {m, "sgfs.client_proxy.absorbed.lookups"};
  m_absorbed_reads_ = {m, "sgfs.client_proxy.absorbed.reads"};
  m_absorbed_writes_ = {m, "sgfs.client_proxy.absorbed.writes"};
  m_sealed_blocks_ = {m, "sgfs.cache.sealed_blocks"};
  m_verify_failures_ = {m, "sgfs.cache.verify_failures"};
  m_poison_evictions_ = {m, "sgfs.cache.poison_evictions"};
  m_refetches_ = {m, "sgfs.cache.refetches"};
  m_bypass_entries_ = {m, "sgfs.cache.bypass_entries"};
  m_probes_ = {m, "sgfs.cache.probes"};
  m_revocation_purges_ = {m, "sgfs.cache.revocation_purges"};
  m_name_verify_failures_ = {m, "sgfs.cache.name_verify_failures"};
  m_replica_reads_ = {m, "sgfs.client_proxy.replica_reads"};
  m_replica_fallbacks_ = {m, "sgfs.client_proxy.replica_fallbacks"};
  cache_breaker_ = TrustBreaker(cache_breaker_policy());
  if (config_.replica.enabled) {
    replica_ = std::make_unique<ReplicaSet>(host_, config_.replica,
                                            config_.security.trusted,
                                            &config_.security.cost);
  }
  if (config_.cache.encryption) {
    // Session-random until a key-regression epoch secret rebinds it.  The
    // draw happens ONLY with encryption on: legacy configurations keep
    // their exact RNG stream (golden-pin protection).
    cache_master_ = rng_.bytes(crypto::KeyRegression::kSecretSize);
  }
  if (config_.retry_budget_ratio > 0) {
    // Shared across (and surviving) the session's upstream clients, so a
    // reconnect does not refill the bucket.
    retry_budget_ = std::make_shared<rpc::RetryBudget>(
        config_.retry_budget_ratio, config_.retry_budget_burst);
  }
  if (config_.pool.streams > 1) {
    pool_ = std::make_unique<StreamPool>(host_, config_, session_mgr_);
  }
}

void ClientProxy::start(uint16_t port) {
  rpc_server_ = std::make_unique<rpc::RpcServer>(host_, port);
  auto self = shared_from_this();
  rpc_server_->register_program(nfs::kNfsProgram, nfs::kNfsVersion3, self);
  rpc_server_->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                                self);
  rpc_server_->start();
  if (config_.security.renegotiate_interval > 0) {
    host_.engine().spawn(renegotiate_loop(alive_));
  }
}

void ClientProxy::stop() {
  stopped_ = true;
  *alive_ = false;
  if (rpc_server_) rpc_server_->stop();
  if (pool_) pool_->reset();
  if (upstream_nfs_) upstream_nfs_->close();
  if (upstream_mount_) upstream_mount_->close();
}

uint64_t ClientProxy::dirty_bytes() const {
  uint64_t total = 0;
  for (const auto& [fileid, set] : dirty_) {
    total += set.size() * config_.cache.block_size;
  }
  return total;
}

uint32_t ClientProxy::key_generation() const { return handshakes_; }

uint64_t ClientProxy::upstream_retransmits() const {
  uint64_t total = retransmits_accumulated_;
  if (upstream_nfs_) total += upstream_nfs_->retransmits();
  if (upstream_mount_) total += upstream_mount_->retransmits();
  return total;
}

void ClientProxy::drop_upstream() {
  // Pool streams are channels of the primary's session: they die with it
  // (the next striped transfer re-resumes off the fresh handshake).
  if (pool_) pool_->reset();
  if (upstream_nfs_) {
    retransmits_accumulated_ += upstream_nfs_->retransmits();
    upstream_nfs_->close();
    upstream_nfs_.reset();
  }
  if (upstream_mount_) {
    retransmits_accumulated_ += upstream_mount_->retransmits();
    upstream_mount_->close();
    upstream_mount_.reset();
  }
}

sim::Task<void> ClientProxy::ensure_upstream() {
  // Establishment flavour (plain, ticket resumption, full handshake) is the
  // SessionManager's call; with resumption enabled the MOUNT connection
  // rides the ticket the NFS full handshake just armed, so a reconnect pays
  // one RSA exchange, not two.
  if (!upstream_nfs_) {
    upstream_nfs_ =
        co_await session_mgr_.establish(nfs::kNfsProgram, nfs::kNfsVersion3);
    upstream_nfs_->set_retry(config_.retry);
    if (retry_budget_) upstream_nfs_->set_retry_budget(retry_budget_);
    ++handshakes_;
    m_sessions_.inc();
  }
  if (!upstream_mount_) {
    upstream_mount_ = co_await session_mgr_.establish(nfs::kMountProgram,
                                                      nfs::kMountVersion3);
    upstream_mount_->set_retry(config_.retry);
    if (retry_budget_) upstream_mount_->set_retry_budget(retry_budget_);
  }
}

std::optional<Buffer> ClientProxy::epoch_key(uint32_t epoch) const {
  if (!epoch_secret_ || epoch > epoch_secret_epoch_) return std::nullopt;
  Buffer secret = crypto::KeyRegression::regress(*epoch_secret_,
                                                 epoch_secret_epoch_, epoch);
  return crypto::KeyRegression::content_key(secret, epoch);
}

void ClientProxy::note_epoch_secret(Buffer secret, uint32_t epoch) {
  epoch_secret_ = std::move(secret);
  epoch_secret_epoch_ = epoch;
  if (config_.cache.encryption) rekey_cache();
}

// --- encrypted-at-rest cache (hostile storage, DESIGN.md §15) ---------------

const crypto::SealKeys& ClientProxy::seal_keys(uint64_t fileid) {
  auto it = file_keys_.find(fileid);
  if (it == file_keys_.end()) {
    it = file_keys_
             .emplace(fileid, crypto::derive_seal_keys(cache_master_, fileid))
             .first;
  }
  return it->second;
}

sim::SimDur ClientProxy::seal_cost(size_t bytes) const {
  // One cipher pass plus one MAC pass over the block, at the session's
  // crypto-cost rates (the at-rest seal always uses AES-256 + HMAC, even
  // when the wire cipher is kNull).
  return config_.security.cost.record_cost(crypto::Cipher::kAes256Cbc,
                                           crypto::MacAlgo::kHmacSha1, bytes);
}

void ClientProxy::seal_into(Block& b, const BlockKey& key,
                            ByteView plaintext) {
  b.generation = ++seal_clock_;
  b.data = crypto::seal_block(seal_keys(key.first), key.first, key.second,
                              b.generation, plaintext);
  host_.cpu().charge(seal_cost(plaintext.size()), "crypto");
  m_sealed_blocks_.inc();
}

TrustBreaker::Policy ClientProxy::cache_breaker_policy() const {
  TrustBreaker::Policy p;
  p.burst = config_.cache.poison_burst;
  p.window = config_.cache.poison_window;
  p.open_duration = config_.cache.bypass_duration;
  p.probe_on_expiry = true;
  return p;
}

void ClientProxy::note_verify_failure() {
  m_verify_failures_.inc();
  const bool was_active =
      cache_breaker_.state() == TrustBreaker::State::kActive;
  if (cache_breaker_.note_failure(host_.engine().now())) {
    m_bypass_entries_.inc();
    if (was_active) {
      // Sustained tampering: stop trusting the scratch disk.  Clean blocks
      // are dropped (they would keep failing anyway); dirty blocks are the
      // only copy of absorbed writes and stay until flush.  A failed
      // half-open probe goes straight back to bypass without a re-purge
      // (the probe fill is the only clean block to have landed since).
      purge_clean_blocks();
      SGFS_WARN("sgfs-proxy", "poisoned cache: entering bypass for ",
                config_.cache.bypass_duration / sim::kMillisecond, " ms");
    }
  }
}

std::optional<ByteView> ClientProxy::open_block(const BlockKey& key,
                                                Buffer& scratch) {
  const Block& b = blocks_.at(key);
  if (!config_.cache.encryption) return ByteView(b.data);
  std::optional<Buffer> plain;
  if (b.generation != 0) {  // 0 = never sealed
    host_.cpu().charge(seal_cost(b.data.size()), "crypto");
    plain = crypto::unseal_block(seal_keys(key.first), key.first, key.second,
                                 b.generation, ByteView(b.data));
  }
  if (!plain) {
    // The scratch disk lied (tamper/truncate/splice/rollback).  Never
    // surface the bytes: count the failure and evict the block.
    note_verify_failure();
    poison_evict(key);
    return std::nullopt;
  }
  scratch = std::move(*plain);
  return ByteView(scratch);
}

bool ClientProxy::store_block(const BlockKey& key, const BufChain& bytes,
                              bool dirty) {
  const size_t bs = config_.cache.block_size;
  const auto n = static_cast<uint32_t>(std::min(bytes.size(), bs));
  Block* b = nullptr;
  if (!config_.cache.encryption) {
    b = &put_block(key.first, key.second);
    bytes.copy_to(MutByteView(b->data.data(), n));
    b->valid = std::max(b->valid, n);
  } else {
    // Stage the full plaintext block (old verified contents overlaid with
    // the new bytes), then seal it at a new generation.  A failed old blob
    // forfeits the tail beyond `bytes`: the server still holds it.
    Buffer stage;
    uint32_t old_valid = 0;
    if (blocks_.count(key)) {
      if (open_block(key, stage)) {
        old_valid = blocks_.at(key).valid;
      } else if (!dirty && cache_bypassed()) {
        return false;  // bypass admits no new clean blocks
      }
    }
    stage.resize(bs, 0);
    bytes.copy_to(MutByteView(stage.data(), n));
    b = &put_block(key.first, key.second);
    b->valid = std::max(old_valid, n);
    seal_into(*b, key, ByteView(stage));
  }
  if (dirty) {
    b->dirty = true;
    dirty_[key.first].insert(key.second);
  }
  return true;
}

std::vector<std::pair<ClientProxy::BlockKey, Buffer>>
ClientProxy::open_dirty_blocks() {
  std::vector<BlockKey> keys;
  for (const auto& [key, b] : blocks_) {
    if (b.dirty) keys.push_back(key);
  }
  std::vector<std::pair<BlockKey, Buffer>> out;
  for (const BlockKey& key : keys) {
    Buffer scratch;
    auto plain = open_block(key, scratch);
    if (!plain) continue;  // poisoned while dirty: evicted, write-back lost
    Buffer copy(plain->begin(), plain->end());
    copy.resize(config_.cache.block_size, 0);
    out.emplace_back(key, std::move(copy));
  }
  return out;
}

std::map<ClientProxy::BlockKey, ClientProxy::Block>::iterator
ClientProxy::erase_block(std::map<BlockKey, Block>::iterator it) {
  if (it->second.dirty) {
    // The cache held the only copy of these bytes: account the loss (or
    // the deliberate drop) as a cancelled write-back.
    cancelled_writeback_bytes_ += it->second.valid;
    mark_clean(it->first);
  }
  lru_.erase(it->second.lru);
  it = blocks_.erase(it);
  cache_bytes_used_ -= config_.cache.block_size;
  assert(cache_accounting_consistent());
  return it;
}

void ClientProxy::mark_clean(const BlockKey& key) {
  auto it = blocks_.find(key);
  if (it != blocks_.end()) it->second.dirty = false;
  auto ds = dirty_.find(key.first);
  if (ds != dirty_.end() && ds->second.erase(key.second) &&
      ds->second.empty()) {
    dirty_.erase(ds);
  }
}

void ClientProxy::poison_evict(const BlockKey& key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  erase_block(it);
  m_poison_evictions_.inc();
}

void ClientProxy::purge_clean_blocks() {
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    it = it->second.dirty ? std::next(it) : erase_block(it);
  }
}

void ClientProxy::purge_cached_plaintext() {
  for (auto it = blocks_.begin(); it != blocks_.end();) it = erase_block(it);
  uncommitted_.clear();
  attrs_.clear();
  names_.clear();
  access_cache_.clear();
  dir_cache_.clear();
  file_keys_.clear();
  name_keys_.clear();
  name_master_.clear();
  m_revocation_purges_.inc();
}

void ClientProxy::rekey_cache() {
  Buffer new_master = crypto::KeyRegression::content_key(*epoch_secret_,
                                                         epoch_secret_epoch_);
  if (new_master == cache_master_) return;
  // Dirty blocks are the only copy of absorbed writes: reopen them under
  // the outgoing keys and re-seal under the new master.  Clean blocks are
  // simply dropped (a re-fetch is cheaper than a re-seal pass and stale
  // keys must never serve).
  purge_clean_blocks();
  auto dirty_plain = open_dirty_blocks();
  cache_master_ = std::move(new_master);
  file_keys_.clear();
  // Sealed name entries were keyed under the outgoing master: they can no
  // longer verify, so forget them (a name is re-learned on the next LOOKUP,
  // far cheaper than a data re-fetch).
  names_.clear();
  name_keys_.clear();
  name_master_.clear();
  for (auto& [key, plain] : dirty_plain) {
    seal_into(blocks_.at(key), key, ByteView(plain));
  }
}

bool ClientProxy::data_cache_admitting() {
  if (!config_.cache.encryption) return true;
  const bool was_open = cache_breaker_.state() == TrustBreaker::State::kOpen;
  const bool ok = cache_breaker_.admitting(host_.engine().now());
  if (was_open && ok) {
    // Bypass window over: half-open.  Fills are admitted on trial; the
    // cache earns back full trust only when a trial blob verifies on its
    // next hit — i.e. after it has actually rested on the suspect disk.
    m_probes_.inc();
    SGFS_INFO("sgfs-proxy", "cache half-open: probing the scratch disk");
  }
  return ok;
}

// --- sealed name table (satellite of DESIGN.md §16) -------------------------
//
// The name/fileid lookup table is cache metadata with the same threat model
// as the data blocks: a scratch disk that can swap one name's binding for
// another redirects a victim's open() to an attacker-chosen file.  Entries
// are therefore sealed under a dedicated sub-master ("sgfs name table") with
// the directory fileid as the key-schedule file and the name's hash as the
// block index; verification happens on every hit, and a MAC failure drops
// the entry (forcing a server refetch) and strikes the poisoned-cache
// breaker like a data-block failure.

const crypto::SealKeys& ClientProxy::name_keys(uint64_t dir) {
  if (name_master_.empty()) {
    name_master_ = crypto::derive(ByteView(cache_master_), "sgfs name table",
                                  ByteView(), cache_master_.size());
  }
  auto it = name_keys_.find(dir);
  if (it == name_keys_.end()) {
    it = name_keys_
             .emplace(dir, crypto::derive_seal_keys(name_master_, dir))
             .first;
  }
  return it->second;
}

void ClientProxy::name_put(uint64_t dir, const std::string& name,
                           const nfs::LookupRes& res) {
  NameEntry& e = names_[{dir, name}];
  if (!config_.cache.encryption) {
    e.res = res;
    e.sealed.clear();
    e.generation = 0;
    return;
  }
  xdr::Encoder enc;
  res.encode(enc);
  Buffer plain = enc.take_flat();
  e.generation = ++seal_clock_;
  e.sealed = crypto::seal_block(name_keys(dir), dir, shard_hash(name),
                                e.generation,
                                ByteView(plain.data(), plain.size()));
  e.res = nfs::LookupRes();  // the sealed blob is the only trusted copy
  host_.cpu().charge(seal_cost(plain.size()), "crypto");
}

std::optional<nfs::LookupRes> ClientProxy::name_get(uint64_t dir,
                                                    const std::string& name) {
  auto it = names_.find({dir, name});
  if (it == names_.end()) return std::nullopt;
  NameEntry& e = it->second;
  if (e.generation == 0) {
    if (config_.cache.encryption) {
      // Legacy (unsealed) entry in an encrypted cache: never trust it.
      names_.erase(it);
      return std::nullopt;
    }
    return e.res;
  }
  host_.cpu().charge(seal_cost(e.sealed.size()), "crypto");
  auto plain = crypto::unseal_block(name_keys(dir), dir, shard_hash(name),
                                    e.generation,
                                    ByteView(e.sealed.data(),
                                             e.sealed.size()));
  if (plain) {
    try {
      xdr::Decoder dec(ByteView(plain->data(), plain->size()));
      nfs::LookupRes res = nfs::LookupRes::decode(dec);
      dec.expect_done();
      return res;
    } catch (const xdr::XdrError&) {
      // MAC passed but the payload is malformed: treat as tampering.
    }
  }
  m_name_verify_failures_.inc();
  names_.erase(it);
  SGFS_WARN("sgfs-proxy", "name table entry failed verification: dir ", dir,
            " name ", name);
  note_verify_failure();
  return std::nullopt;
}

std::vector<std::pair<uint64_t, std::string>> ClientProxy::tamperable_names()
    const {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const auto& [key, e] : names_) {
    if (e.generation > 0) out.push_back(key);
  }
  return out;
}

bool ClientProxy::tamper_name(const std::pair<uint64_t, std::string>& key,
                              const std::function<void(Buffer&)>& fn) {
  auto it = names_.find(key);
  if (it == names_.end() || it->second.generation == 0) return false;
  fn(it->second.sealed);
  return true;
}

// --- replica read path (DESIGN.md §16) --------------------------------------

sim::Task<std::optional<BufChain>> ClientProxy::replica_read(
    const nfs::ReadArgs& a) {
  const uint32_t bs = config_.cache.block_size;
  auto info = co_await replica_->file_info(a.fh.fileid);
  // The publication's block geometry must match the cache's — the Merkle
  // leaves are cache blocks, anything else would verify the wrong bytes.
  if (!info || info->block_size != bs) co_return std::nullopt;
  nfs::ReadRes res;
  auto at = attrs_.find(a.fh.fileid);
  if (at != attrs_.end()) res.post_attrs = at->second.attrs;
  if (a.offset >= info->size) {
    // Reading past the published EOF needs no replica round trip.
    res.count = 0;
    res.eof = true;
    m_replica_reads_.inc();
    xdr::Encoder enc;
    res.encode(enc);
    co_return enc.take();
  }
  const uint64_t index = a.offset / bs;
  auto plain = co_await replica_->fetch_block(a.fh.fileid, index);
  if (!plain) {
    // Degraded: all candidates blacklisted or failing.  The caller falls
    // back to the origin's secure channel — availability over locality.
    m_replica_fallbacks_.inc();
    co_return std::nullopt;
  }
  const uint64_t size = info->size;
  const size_t have = static_cast<size_t>(std::min<uint64_t>(
      std::min<uint64_t>(a.count, plain->size()), size - a.offset));
  res.count = static_cast<uint32_t>(have);
  res.eof = a.offset + have >= size;
  res.data = BufChain::copy_of(ByteView(plain->data(), have));
  ++absorbed_reads_;
  m_replica_reads_.inc();
  // Fill the local cache so repeat reads stay local (same admission rules
  // as an origin fill; never overwrite resident blocks or replay shadows).
  const BlockKey rkey{a.fh.fileid, index};
  if (config_.cache.cache_data && blocks_.find(rkey) == blocks_.end() &&
      uncommitted_.find(rkey) == uncommitted_.end() &&
      data_cache_admitting()) {
    const size_t n = std::min<size_t>(plain->size(), bs);
    store_block(rkey, BufChain(std::move(*plain)), /*dirty=*/false);
    spawn_cache_store(a.fh.fileid, index, n);
    co_await evict_if_needed();
  }
  if (host_.memcpy_charged()) co_await host_.memcpy_cost(have);
  co_await host_.cpu().use(config_.cost.msg_cost(have), "proxy");
  xdr::Encoder enc;
  res.encode(enc);
  co_return enc.take();
}


sim::Task<BufChain> ClientProxy::forward(const rpc::CallContext& ctx,
                                         BufChain args) {
  std::optional<sim::SimMutex::Guard> guard;
  if (config_.serialize_forwarding) {
    guard.emplace(co_await forward_mutex_.scoped());
  }
  ++forwarded_;
  m_forwarded_.inc();
  if (config_.cost.per_msg_latency > 0) {
    co_await host_.engine().sleep(config_.cost.per_msg_latency);
  }
  // Session re-establishment (paper §4.2: the FSS-managed session survives
  // transient failures).  A broken stream, a failed-closed secure channel
  // or a retransmission give-up tears the upstream session down; the proxy
  // re-handshakes and resends the call under its ORIGINAL xid so the
  // server's duplicate-request cache suppresses re-execution of
  // non-idempotent ops across the new connection.
  BufChain reply;
  std::optional<uint32_t> xid;
  int busy_retries = 0;
  for (int attempt = 0;; ++attempt) {
    std::exception_ptr failure;
    try {
      co_await ensure_upstream();
      rpc::RpcClient& client =
          ctx.prog == nfs::kMountProgram ? *upstream_mount_ : *upstream_nfs_;
      // Pass the job account's AUTH_SYS credentials through; the
      // server-side proxy performs the identity mapping.
      if (ctx.auth_sys) {
        client.set_auth(*ctx.auth_sys);
      } else {
        client.clear_auth();
      }
      if (!xid) xid = client.reserve_xid();
      reply = co_await client.call_with_xid(*xid, ctx.proc, args);
      if (config_.jukebox.enabled() && ctx.prog == nfs::kNfsProgram &&
          busy_retries < config_.jukebox.max_retries &&
          nfs::reply_is_jukebox(reply)) {
        // The overloaded server proxy shed this call without executing it:
        // wait out the overload and re-issue under a FRESH xid (the old one
        // could replay a DRC-cached jukebox result).  The successful round
        // trip proved the session healthy, so the reconnect counter resets.
        m_jukebox_retries_.inc();
        co_await host_.engine().sleep(config_.jukebox.delay(busy_retries));
        ++busy_retries;
        xid.reset();
        attempt = -1;
        continue;
      }
      break;
    } catch (const rpc::RpcAuthError&) {
      // The server-side proxy rejected this session's credentials — the DN
      // was revoked (gridmap removal + epoch bump).  Fail closed AND
      // forget: every cached byte, attribute, name and access verdict this
      // DN could still read through the proxy is purged before the denial
      // surfaces (satellite: revocation must not leave readable plaintext).
      purge_cached_plaintext();
      throw;
    } catch (const rpc::RpcTimeout&) {
      failure = std::current_exception();
    } catch (const crypto::SecurityError&) {
      failure = std::current_exception();
    } catch (const net::StreamClosed&) {
      failure = std::current_exception();
    }
    if (stopped_ || attempt >= config_.max_reconnects) {
      std::rethrow_exception(failure);
    }
    ++reconnects_;
    m_reconnects_.inc();
    SGFS_INFO("sgfs-proxy", "upstream session failed; re-establishing ",
              "(attempt ", attempt + 1, ")");
    drop_upstream();
    co_await host_.engine().sleep(config_.reconnect_backoff * (attempt + 1));
  }
  // Reply processing: inside the blocking proxy's single thread this
  // serializes with everything else; an async daemon overlaps it.
  co_await host_.cpu().use(config_.cost.msg_cost(reply.size()), "proxy");
  if (config_.cost.overlapped_bytes_per_sec > 0) {
    host_.cpu().charge(
        sim::from_seconds(reply.size() /
                          config_.cost.overlapped_bytes_per_sec),
        "proxy");
  }
  co_return reply;
}

sim::Task<void> ClientProxy::renegotiate_loop(std::shared_ptr<bool> alive) {
  const sim::SimDur interval = config_.security.renegotiate_interval;
  auto& eng = host_.engine();
  for (;;) {
    co_await eng.sleep(interval);
    if (!*alive) co_return;
    try {
      co_await renegotiate();
    } catch (const std::exception& e) {
      if (*alive) SGFS_WARN("sgfs-proxy", "renegotiation failed: ", e.what());
      co_return;
    }
    if (!*alive) co_return;
  }
}

sim::Task<void> ClientProxy::renegotiate() {
  // Re-keys the session by running a fresh handshake: the proxy's upstream
  // RPC connection has a concurrent reader, so in-band renegotiation (which
  // SecureChannel supports for single-stream users) is replaced by an
  // equivalent reconnect — new session keys, re-read and re-validated
  // certificates (paper §4.2).
  auto guard = co_await forward_mutex_.scoped();
  if (!upstream_nfs_) co_return;
  drop_upstream();
  // Renegotiation wants genuinely fresh keys and re-validated certificates:
  // redeeming the old ticket would defeat both.
  session_mgr_.invalidate_ticket();
  co_await ensure_upstream();
}

void ClientProxy::reload(const ClientProxyConfig& config) {
  const bool security_changed =
      config.security.cipher != config_.security.cipher ||
      config.security.mac != config_.security.mac;
  if (config.cache.encryption != config_.cache.encryption) {
    // Blocks stored under the old at-rest mode must never be served under
    // the new one: a plaintext blob would fail (or worse, satisfy) the
    // sealed read path, and a sealed blob is garbage to the plaintext one.
    // Clean blocks are droppable; dirty blocks carry the only copy of
    // absorbed writes, so each is opened in the old format and converted
    // in place.
    purge_clean_blocks();
    auto dirty_plain = open_dirty_blocks();
    config_ = config;
    if (config_.cache.encryption) {
      // Nothing was sealed before: just (re)bind the master.
      if (epoch_secret_) {
        cache_master_ = crypto::KeyRegression::content_key(
            *epoch_secret_, epoch_secret_epoch_);
      } else if (cache_master_.empty()) {
        cache_master_ = rng_.bytes(crypto::KeyRegression::kSecretSize);
      }
      file_keys_.clear();
    }
    for (auto& [key, plain] : dirty_plain) {
      Block& b = blocks_.at(key);
      if (config_.cache.encryption) {
        seal_into(b, key, ByteView(plain));
      } else {
        b.data = std::move(plain);
        b.generation = 0;
      }
    }
    cache_breaker_ = TrustBreaker(cache_breaker_policy());
    // Name entries sealed (or stored plaintext) under the old mode are
    // unreadable under the new one; the table re-fills on the next lookups.
    names_.clear();
    name_keys_.clear();
    name_master_.clear();
  }
  config_ = config;
  // A shrunk capacity must not leave over-capacity blocks resident: drop
  // clean victims in LRU order now (reload is synchronous, so dirty blocks
  // wait for the next cache operation's writeback-eviction).
  for (auto it = lru_.begin();
       cache_bytes_used_ > config_.cache.capacity_bytes &&
       it != lru_.end();) {
    auto bit = blocks_.find((it++)->second);
    if (bit != blocks_.end() && !bit->second.dirty) erase_block(bit);
  }
  if (security_changed) {
    // Tear down the secured connections; the next request re-handshakes
    // under the new configuration (certificates are re-read then too).  The
    // retained ticket resumes the OLD cipher suite, so it dies here as well.
    drop_upstream();
    session_mgr_.invalidate_ticket();
  }
}

std::vector<ClientProxy::BlockKey> ClientProxy::tamperable_blocks() const {
  std::vector<BlockKey> keys;
  keys.reserve(blocks_.size());
  for (const auto& [key, b] : blocks_) {
    if (b.dirty || uncommitted_.count(key)) continue;
    keys.push_back(key);
  }
  return keys;
}

bool ClientProxy::tamper_block(const BlockKey& key,
                               const std::function<void(Buffer&)>& fn) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return false;
  fn(it->second.data);
  return true;
}

// --- cache plumbing -----------------------------------------------------------

sim::Task<void> ClientProxy::cache_disk_io(uint64_t fileid, uint64_t block,
                                           size_t bytes, bool write) {
  const bool sequential = last_disk_block_.first == fileid &&
                          (block == last_disk_block_.second + 1 ||
                           block == last_disk_block_.second);
  last_disk_block_ = {fileid, block};
  if (write) {
    co_await host_.disk().write(bytes, sequential, "proxy.cache");
  } else {
    co_await host_.disk().read(bytes, sequential, "proxy.cache");
  }
}

void ClientProxy::spawn_cache_store(uint64_t fileid, uint64_t block,
                                    size_t bytes) {
  // Writing a fetched block to the cache disk happens off the reply path.
  auto task = [](ClientProxy* proxy, std::shared_ptr<bool> alive,
                 uint64_t fileid, uint64_t block,
                 size_t bytes) -> sim::Task<void> {
    if (!*alive) co_return;
    co_await proxy->cache_disk_io(fileid, block, bytes, /*write=*/true);
  };
  host_.engine().spawn(task(this, alive_, fileid, block, bytes));
}

bool ClientProxy::attrs_fresh(const AttrEntry& entry) const {
  if (config_.cache.consistency == Consistency::kSessionExclusive) {
    return true;
  }
  return host_.engine().now() - entry.fetched <= config_.cache.attr_ttl;
}

void ClientProxy::remember(const Fh& fh,
                           const std::optional<vfs::Attributes>& attrs) {
  if (!attrs || !config_.cache.cache_attrs) return;
  AttrEntry& entry = attrs_[fh.fileid] =
      AttrEntry{*attrs, host_.engine().now()};
  entry.attrs.size = std::max(entry.attrs.size, dirty_extent(fh.fileid));
}

uint64_t ClientProxy::dirty_extent(uint64_t fileid) const {
  auto ds = dirty_.find(fileid);
  if (ds == dirty_.end() || ds->second.empty()) return 0;
  const uint64_t last = *ds->second.rbegin();
  auto it = blocks_.find({fileid, last});
  const uint64_t valid = it != blocks_.end() ? it->second.valid : 0;
  return last * config_.cache.block_size + valid;
}

void ClientProxy::drop_file(uint64_t fileid) {
  // Removed files need no write-back or verifier replay ("only the final
  // results are written back", §6.3.2 — and the server unlinked the data).
  drop_blocks(fileid, 0);
  attrs_.erase(fileid);
  access_cache_.erase(fileid);
  dir_cache_.erase(fileid);
}

void ClientProxy::drop_blocks(uint64_t fileid, uint64_t first) {
  auto it = blocks_.lower_bound({fileid, first});
  while (it != blocks_.end() && it->first.first == fileid) {
    it = erase_block(it);
  }
  drop_shadows(fileid, first);
}

bool ClientProxy::last_link(const nfs::LookupRes& victim) const {
  // The vfs frees an inode only at nlink 0, and a directory has one name.
  // Only the attribute cache's link count is kept current (LINK and
  // non-final unlinks through this proxy adjust it); without it the name
  // may not be the last, so the write-backs are kept (safe, not optimal).
  auto at = attrs_.find(victim.fh.fileid);
  const vfs::Attributes* known = at != attrs_.end() ? &at->second.attrs
                                 : victim.attrs     ? &*victim.attrs
                                                    : nullptr;
  if (known && known->type == vfs::FileType::kDirectory) return true;
  return at != attrs_.end() && at->second.attrs.nlink <= 1;
}

void ClientProxy::unlink_name(const nfs::LookupRes& victim) {
  if (last_link(victim)) {
    drop_file(victim.fh.fileid);
  } else if (auto at = attrs_.find(victim.fh.fileid); at != attrs_.end()) {
    --at->second.attrs.nlink;
  }
}

ClientProxy::Block& ClientProxy::put_block(uint64_t fileid, uint64_t block) {
  BlockKey key{fileid, block};
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    Block b;
    b.data.assign(config_.cache.block_size, 0);
    b.lru = ++lru_clock_;
    it = blocks_.emplace(key, std::move(b)).first;
    lru_[it->second.lru] = key;
    cache_bytes_used_ += config_.cache.block_size;
  } else {
    // A hostile scratch disk may have truncated the at-rest buffer (the
    // plaintext negative control serves wrong bytes, never out-of-bounds
    // ones); restore capacity before any overlay.  No-op on honest storage
    // and on sealed blobs (ciphertext + MAC is never shorter than a block).
    if (it->second.data.size() < config_.cache.block_size) {
      it->second.data.resize(config_.cache.block_size, 0);
    }
    lru_.erase(it->second.lru);
    it->second.lru = ++lru_clock_;
    lru_[it->second.lru] = key;
  }
  return it->second;
}

template <class Res, class Args>
sim::Task<Res> ClientProxy::call_upstream(Proc3 proc, const Args& args) {
  rpc::CallContext ctx;
  ctx.prog = nfs::kNfsProgram;
  ctx.vers = nfs::kNfsVersion3;
  ctx.proc = static_cast<uint32_t>(proc);
  ctx.auth_sys = last_client_auth_;
  BufChain reply = co_await forward(ctx, encode_xdr(args));
  co_return decode_xdr<Res>(reply);
}

sim::Task<bool> ClientProxy::snapshot_dirty(const BlockKey& key,
                                            Snapshots& snaps) {
  auto it = blocks_.find(key);
  if (it == blocks_.end() || !it->second.dirty) co_return false;
  // Read the block back from the cache disk, then copy it out.
  co_await cache_disk_io(key.first, key.second, it->second.valid,
                         /*write=*/false);
  // The disk read suspended: a concurrent op (poison eviction, truncate,
  // another flush) may have erased the block meanwhile.
  it = blocks_.find(key);
  if (it == blocks_.end() || !it->second.dirty) co_return false;
  const size_t len = it->second.valid;
  const uint64_t stamp = it->second.lru;
  Buffer scratch;
  auto plain = open_block(key, scratch);
  if (!plain) {
    // The scratch disk destroyed the only copy: never push the bytes.
    SGFS_WARN("sgfs-proxy",
              "dirty cache block failed verification; dropping write-back");
    co_return false;
  }
  // The kernel client may keep writing into the cached block while the
  // WRITE is in flight, so the upstream payload cannot alias it.  This is
  // the one copy a write-back cache fundamentally needs.
  snaps[key.second] = {stamp, BufChain::copy_of(plain->first(len))};
  if (host_.memcpy_charged()) co_await host_.memcpy_cost(len);
  co_return true;
}

sim::Task<void> ClientProxy::writeback_block(uint64_t fileid, uint64_t block,
                                             bool file_sync) {
  Snapshots snaps;
  if (!co_await snapshot_dirty({fileid, block}, snaps)) co_return;
  std::vector<nfs::WriteArgs> sent(1);
  sent[0].fh = Fh(seen_fsid_, fileid);
  sent[0].offset = block * config_.cache.block_size;
  sent[0].stable = file_sync ? nfs::StableHow::kFileSync
                             : nfs::StableHow::kUnstable;
  sent[0].data = snaps.at(block).second;
  std::vector<std::optional<nfs::WriteRes>> replies(1);
  replies[0] = co_await call_upstream<nfs::WriteRes>(Proc3::kWrite, sent[0]);
  co_await complete_writeback(sent, replies, snaps);
}

sim::Task<void> ClientProxy::complete_writeback(
    const std::vector<nfs::WriteArgs>& sent,
    const std::vector<std::optional<nfs::WriteRes>>& replies,
    const Snapshots& snaps) {
  const size_t bs = config_.cache.block_size;
  std::vector<uint64_t> verfs;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i]) continue;  // undelivered: still dirty
    const nfs::WriteRes& res = *replies[i];
    if (res.status != Status::kOk) {
      SGFS_WARN("sgfs-proxy", "write-back failed: ",
                vfs::to_string(res.status));
    }
    // The WRITE carried the snapshots from its first block up to the next
    // WRITE's first block.
    auto it = snaps.lower_bound(sent[i].offset / bs);
    const auto end = i + 1 < sent.size()
                         ? snaps.lower_bound(sent[i + 1].offset / bs)
                         : snaps.end();
    for (; it != end; ++it) {
      const BlockKey key{sent[i].fh.fileid, it->first};
      const auto& [stamp, data] = it->second;
      if (res.status == Status::kOk) {
        flushed_bytes_ += data.size();
        m_flushed_bytes_.inc(data.size());
      } else {
        m_writeback_error_bytes_.inc(data.size());
      }
      // A WRITE absorbed while this one was in flight stored the block
      // again (bumping its LRU tick): those bytes have not gone out yet.
      // A refused block is dropped, not kept: dirty, it would be
      // evict_if_needed's victim again and again; clean, it would serve
      // bytes the server never took.  Its attributes go with it, so the
      // next READ asks the origin.
      auto b = blocks_.find(key);
      if (b != blocks_.end() && b->second.lru == stamp) {
        mark_clean(key);
        if (res.status != Status::kOk) {
          erase_block(b);
          attrs_.erase(key.first);
        }
      }
      // If this went out UNSTABLE and the file server restarts before
      // COMMIT, exactly these bytes are resent.
      if (res.status == Status::kOk &&
          sent[i].stable == nfs::StableHow::kUnstable) {
        uncommitted_[key] = data;
      }
    }
    if (res.status == Status::kOk) verfs.push_back(res.verf);
  }
  for (uint64_t verf : verfs) co_await note_upstream_verf(verf);
}

void ClientProxy::drop_shadows(uint64_t fileid, uint64_t first) {
  auto it = uncommitted_.lower_bound({fileid, first});
  while (it != uncommitted_.end() && it->first.first == fileid) {
    it = uncommitted_.erase(it);
  }
}

sim::Task<bool> ClientProxy::note_upstream_verf(uint64_t verf) {
  if (upstream_verf_ && *upstream_verf_ == verf) co_return false;
  if (!upstream_verf_) {
    upstream_verf_ = verf;
    co_return false;
  }
  // The file server rebooted: UNSTABLE data pushed since the last COMMIT
  // may be gone.  Adopt the new instance cookie first, then resend the
  // shadows (RFC 1813 §3.3.21 — the proxy is "the client" on this hop).
  upstream_verf_ = verf;
  host_.engine().metrics().counter("sgfs.recovery.verf_mismatches").inc();
  if (config_.verifier_replay && !uncommitted_.empty()) {
    co_await replay_uncommitted();
  }
  co_return true;
}

sim::Task<void> ClientProxy::replay_uncommitted() {
  auto& metrics = host_.engine().metrics();
  metrics.counter("sgfs.recovery.replays").inc();
  // Another crash may roll the verifier mid-replay: restart until one full
  // pass completes under a single instance cookie.
  for (bool complete = false; !complete;) {
    complete = true;
    const uint64_t cookie = *upstream_verf_;
    std::vector<BlockKey> keys;
    keys.reserve(uncommitted_.size());
    for (const auto& [key, chain] : uncommitted_) keys.push_back(key);
    for (const BlockKey& key : keys) {
      auto it = uncommitted_.find(key);
      if (it == uncommitted_.end()) continue;  // dropped while we slept
      nfs::WriteArgs wargs;
      wargs.fh = Fh(seen_fsid_, key.first);
      wargs.offset = key.second * config_.cache.block_size;
      wargs.stable = nfs::StableHow::kUnstable;
      wargs.data = it->second;
      const size_t nbytes = wargs.data.size();
      auto res = co_await call_upstream<nfs::WriteRes>(Proc3::kWrite, wargs);
      if (res.status != Status::kOk) {
        SGFS_WARN("sgfs-proxy", "replay failed: ",
                  vfs::to_string(res.status));
        continue;
      }
      metrics.counter("sgfs.recovery.replayed_bytes").inc(nbytes);
      if (res.verf != cookie) {
        upstream_verf_ = res.verf;
        metrics.counter("sgfs.recovery.verf_mismatches").inc();
        complete = false;
        break;
      }
    }
  }
}

sim::Task<void> ClientProxy::striped_fill(const nfs::ReadArgs& a) {
  const size_t bs = config_.cache.block_size;
  // Hold the forwarding mutex for the whole striped transfer: the primary
  // stream serves stripe chunks too and must not interleave with other
  // forwarded calls.
  std::optional<sim::SimMutex::Guard> guard;
  if (config_.serialize_forwarding) {
    guard.emplace(co_await forward_mutex_.scoped());
  }
  // Re-check under the mutex: a concurrent miss may have filled the block
  // while this coroutine waited.
  if (blocks_.count({a.fh.fileid, a.offset / bs})) co_return;
  try {
    co_await ensure_upstream();
    co_await pool_->ensure_streams(*upstream_nfs_, retry_budget_);
    const size_t want = config_.pool.effective_prefetch();
    StreamPool::StripedRead res = co_await pool_->read_striped(
        *upstream_nfs_, a.fh, a.offset, want, last_client_auth_);
    remember(a.fh, res.post_attrs);
    const size_t got = res.data.size();
    for (size_t off = 0; off < got; off += bs) {
      const uint64_t block = (a.offset + off) / bs;
      const BlockKey key{a.fh.fileid, block};
      const size_t len = std::min(bs, got - off);
      // Local state wins over server bytes: never overwrite a cached block
      // (it may be dirty) or one with an uncommitted replay shadow.
      if (blocks_.count(key) || uncommitted_.count(key)) continue;
      store_block(key, res.data.slice(off, len), /*dirty=*/false);
      if (host_.memcpy_charged()) co_await host_.memcpy_cost(len);
      spawn_cache_store(a.fh.fileid, block, len);
    }
    co_await evict_if_needed();
  } catch (const std::exception& e) {
    // Non-fatal: the caller falls back to the single-stream forward path.
    SGFS_WARN("sgfs-proxy", "striped readahead failed: ", e.what());
  }
}

sim::Task<void> ClientProxy::evict_if_needed() {
  while (cache_bytes_used_ > config_.cache.capacity_bytes && !lru_.empty()) {
    const uint64_t victim_lru = lru_.begin()->first;
    const BlockKey victim = lru_.begin()->second;
    auto it = blocks_.find(victim);
    if (it == blocks_.end()) {
      // Orphaned LRU entry (the block went away by another path): erase by
      // key, never by begin() — concurrent evictions may have reshaped lru_.
      lru_.erase(victim_lru);
      continue;
    }
    if (it->second.dirty) {
      co_await writeback_block(victim.first, victim.second,
                               /*file_sync=*/true);
      // The write-back suspended: the victim may be gone, re-dirtied, or
      // merely touched.  Re-validate before erasing anything.
      it = blocks_.find(victim);
      if (it == blocks_.end() || it->second.dirty) continue;
    }
    erase_block(it);
  }
  assert(cache_accounting_consistent());
}

sim::Task<void> ClientProxy::flush_file(uint64_t fileid) {
  const size_t bs = config_.cache.block_size;
  auto still_dirty = [this, fileid] {
    auto ds = dirty_.find(fileid);
    return ds == dirty_.end()
               ? std::vector<uint64_t>()
               : std::vector<uint64_t>(ds->second.begin(), ds->second.end());
  };
  if (pool_) {
    Snapshots snaps;
    for (uint64_t block : still_dirty()) {
      co_await snapshot_dirty({fileid, block}, snaps);
    }
    // Coalesce adjacent full blocks into compound UNSTABLE WRITEs; a short
    // (partially-valid) block may only end a run.
    std::vector<nfs::WriteArgs> batches;
    for (const auto& [block, snap] : snaps) {
      const BufChain& data = snap.second;
      const nfs::WriteArgs* run = batches.empty() ? nullptr : &batches.back();
      if (!run || run->data.size() % bs != 0 ||
          run->offset + run->data.size() != block * bs ||
          run->data.size() + data.size() > config_.pool.coalesce_bytes) {
        batches.emplace_back();
        batches.back().fh = Fh(seen_fsid_, fileid);
        batches.back().offset = block * bs;
        batches.back().stable = nfs::StableHow::kUnstable;
      }
      batches.back().data.append(data);
    }
    std::vector<std::optional<nfs::WriteRes>> replies;
    if (!batches.empty()) {
      try {
        co_await ensure_upstream();
        co_await pool_->ensure_streams(*upstream_nfs_, retry_budget_);
        std::optional<sim::SimMutex::Guard> guard;
        if (config_.serialize_forwarding) {
          guard.emplace(co_await forward_mutex_.scoped());
        }
        replies = co_await pool_->write_batches(*upstream_nfs_, batches,
                                                last_client_auth_);
      } catch (const std::exception& e) {
        // Everything is still dirty; the serial step below delivers it.
        SGFS_WARN("sgfs-proxy", "pipelined write-back failed: ", e.what());
      }
    }
    co_await complete_writeback(batches, replies, snaps);
  }
  // Serial step: every dirty block without a pool; with one, the batches
  // it could not deliver and blocks stored again while theirs was in
  // flight — so the flush epoch always completes.
  for (uint64_t block : still_dirty()) {
    co_await writeback_block(fileid, block, /*file_sync=*/false);
  }
  // COMMIT until the reply's verifier matches the server instance that
  // holds the data; a mismatch means a mid-flush restart, which
  // note_upstream_verf answers by replaying the uncommitted shadows.
  for (;;) {
    const nfs::CommitArgs cargs(Fh(seen_fsid_, fileid), 0, 0);
    auto res = co_await call_upstream<nfs::CommitRes>(Proc3::kCommit, cargs);
    if (res.status != Status::kOk) {
      SGFS_WARN("sgfs-proxy", "flush COMMIT failed: ",
                vfs::to_string(res.status));
      break;
    }
    const bool rolled = co_await note_upstream_verf(res.verf);
    if (!rolled) break;
  }
  drop_shadows(fileid);
}

sim::Task<void> ClientProxy::flush() {
  // Push dirty blocks per file, then COMMIT each file.  Files whose blocks
  // already went upstream UNSTABLE (eviction pressure) but were never
  // committed need the COMMIT too, even with nothing left dirty.
  std::set<uint64_t> files;
  for (const auto& [fileid, set] : dirty_) files.insert(fileid);
  for (const auto& [key, chain] : uncommitted_) files.insert(key.first);
  for (uint64_t fileid : files) co_await flush_file(fileid);
}

// --- request handling -----------------------------------------------------------

template <class Res, class Attrs>
bool ClientProxy::settle(BufChain& reply, Res& res, Attrs Res::*attrs,
                         const Fh& fh, bool keep) {
  if (res.status != Status::kOk) return false;
  if (raise_size(res.*attrs, dirty_extent(fh.fileid))) {
    reply = encode_xdr(res);
  }
  if (keep) remember(fh, res.*attrs);
  return true;
}

sim::Task<BufChain> ClientProxy::handle(const rpc::CallContext& ctx,
                                        BufChain args) {
  co_await host_.cpu().use(config_.cost.msg_cost(args.size()), "proxy");
  if (config_.cost.overlapped_bytes_per_sec > 0) {
    host_.cpu().charge(sim::from_seconds(args.size() /
                                         config_.cost.overlapped_bytes_per_sec),
                       "proxy");
  }
  if (ctx.auth_sys) last_client_auth_ = ctx.auth_sys;

  if (ctx.prog == nfs::kMountProgram || !config_.cache.enabled) {
    co_return co_await forward(ctx, args);
  }

  const auto proc = static_cast<Proc3>(ctx.proc);
  const size_t bs = config_.cache.block_size;

  switch (proc) {
    case Proc3::kGetattr: {
      auto a = decode_xdr<nfs::GetattrArgs>(args);
      auto hit = attrs_.find(a.fh.fileid);
      if (config_.cache.cache_attrs && hit != attrs_.end() &&
          attrs_fresh(hit->second)) {
        ++absorbed_getattrs_;
        m_absorbed_getattrs_.inc();
        nfs::GetattrRes res;
        res.attrs = hit->second.attrs;
        co_return encode_xdr(res);
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::GetattrRes>(reply);
      settle(reply, res, &nfs::GetattrRes::attrs, a.fh);
      co_return reply;
    }

    case Proc3::kLookup: {
      auto a = decode_xdr<nfs::DiropArgs>(args);
      if (config_.cache.cache_names) {
        auto cached = name_get(a.dir.fileid, a.name);
        if (cached) {
          ++absorbed_lookups_;
          m_absorbed_lookups_.inc();
          nfs::LookupRes res = *cached;
          // Refresh attrs from the attribute cache (local writes move them).
          auto at = attrs_.find(res.fh.fileid);
          if (at != attrs_.end()) res.attrs = at->second.attrs;
          co_return encode_xdr(res);
        }
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::LookupRes>(reply);
      if (settle(reply, res, &nfs::LookupRes::attrs, res.fh,
                 config_.cache.cache_names) &&
          config_.cache.cache_names) {
        name_put(a.dir.fileid, a.name, res);
        remember(a.dir, res.dir_attrs);
      }
      co_return reply;
    }

    case Proc3::kAccess: {
      auto a = decode_xdr<nfs::AccessArgs>(args);
      auto hit = access_cache_.find(a.fh.fileid);
      if (hit != access_cache_.end() &&
          (a.access & ~hit->second.first) == 0) {
        nfs::AccessRes res;
        res.access = hit->second.second & a.access;
        auto at = attrs_.find(a.fh.fileid);
        if (at != attrs_.end()) res.post_attrs = at->second.attrs;
        co_return encode_xdr(res);
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::AccessRes>(reply);
      if (settle(reply, res, &nfs::AccessRes::post_attrs, a.fh)) {
        access_cache_[a.fh.fileid] = {a.access, res.access};
      }
      co_return reply;
    }

    case Proc3::kRead: {
      auto a = decode_xdr<nfs::ReadArgs>(args);
      seen_fsid_ = a.fh.fsid;
      // Block alignment is what the replica path needs; cachability
      // additionally requires the data cache to be on.
      const bool block_aligned = a.offset % bs == 0 && a.count <= bs;
      const bool aligned = config_.cache.cache_data && block_aligned;
      // Two passes at most: a miss with a stream pool runs a striped
      // readahead, then re-checks the cache (the pool populated whole
      // blocks).  Without a pool the loop body executes exactly once —
      // the K=1 path is unchanged.
      const BlockKey rkey{a.fh.fileid, a.offset / bs};
      for (int pass = 0;; ++pass) {
        auto bit = blocks_.find(rkey);
        auto at = attrs_.find(a.fh.fileid);
        // A dirty block is the only up-to-date copy of its bytes: it is
        // always served from cache, whatever the attribute cache and the
        // bypass say.  Clean blocks need fresh attributes and no bypass.
        const bool fresh = at != attrs_.end() && attrs_fresh(at->second);
        if (aligned && bit != blocks_.end() &&
            (bit->second.dirty || (fresh && !cache_bypassed()))) {
          Buffer scratch;
          const uint32_t valid = bit->second.valid;
          auto plain = open_block(rkey, scratch);
          if (!plain) {
            m_refetches_.inc();  // verification failed: re-fetch upstream
          } else {
            if (cache_breaker_.state() == TrustBreaker::State::kProbe) {
              // A trial blob survived at rest and verified: the disk is
              // behaving again, re-arm full caching.
              cache_breaker_.note_success();
              SGFS_INFO("sgfs-proxy", "cache probe clean: caching re-enabled");
            }
            ++absorbed_reads_;
            m_absorbed_reads_.inc();
            // Without cached attributes the dirty extent is a lower bound
            // on the size, so it never proves EOF.
            const bool sized = at != attrs_.end();
            const uint64_t size =
                sized ? at->second.attrs.size : dirty_extent(a.fh.fileid);
            size_t have =
                a.offset >= size
                    ? 0
                    : std::min<uint64_t>(std::min<uint64_t>(a.count, valid),
                                         size - a.offset);
            // The opened bytes bound the copy (a tampered plaintext cache
            // may hold a truncated buffer — the negative control serves
            // wrong bytes, never out-of-bounds ones).
            have = std::min(have, plain->size());
            // Snapshot the reply before the disk-io suspension: a
            // concurrent op may evict the block (or drop the attrs) while
            // this coroutine sleeps on the cache disk.
            nfs::ReadRes res;
            res.count = static_cast<uint32_t>(have);
            res.eof = sized && a.offset + have >= size;
            res.data = BufChain::copy_of(plain->first(have));
            if (sized) res.post_attrs = at->second.attrs;
            co_await cache_disk_io(a.fh.fileid, a.offset / bs,
                                   have ? have : 1,
                                   /*write=*/false);
            if (host_.memcpy_charged()) co_await host_.memcpy_cost(have);
            co_return encode_xdr(res);
          }
        }
        if (pass == 0 && pool_ && aligned && data_cache_admitting()) {
          co_await striped_fill(a);
          continue;  // re-check: the readahead usually made this a hit
        }
        break;
      }
      // Replica fast path (DESIGN.md §16): a clean miss on a published
      // read-only file is served from the verified replica set instead of
      // the origin's secure channel.  Files with local dirty state keep the
      // origin path (session-exclusive semantics trump the published copy).
      if (replica_ && block_aligned &&
          dirty_.find(a.fh.fileid) == dirty_.end()) {
        auto served = co_await replica_read(a);
        if (served) co_return std::move(*served);
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::ReadRes>(reply);
      // A fill never overlays a dirty block (one may have been absorbed
      // while this READ was in flight): the server's bytes are older.
      auto fill = blocks_.find(rkey);
      if (settle(reply, res, &nfs::ReadRes::post_attrs, a.fh, aligned) &&
          aligned && (fill == blocks_.end() || !fill->second.dirty) &&
          data_cache_admitting() &&
          store_block(rkey, res.data, /*dirty=*/false)) {
        if (host_.memcpy_charged()) {
          co_await host_.memcpy_cost(res.data.size());
        }
        spawn_cache_store(a.fh.fileid, a.offset / bs, res.count);
        co_await evict_if_needed();
      }
      co_return reply;
    }

    case Proc3::kWrite: {
      auto a = decode_xdr<nfs::WriteArgs>(args);
      seen_fsid_ = a.fh.fsid;
      const BlockKey wkey{a.fh.fileid, a.offset / bs};
      // During bypass, a block that is already dirty stays cache-owned
      // (ordering: its eventual flush must not overwrite later
      // write-throughs); everything else writes through.
      auto bit = blocks_.find(wkey);
      const bool absorb =
          config_.cache.write_back && config_.cache.cache_data &&
          a.offset % bs == 0 && a.data.size() <= bs &&
          (data_cache_admitting() ||
           (bit != blocks_.end() && bit->second.dirty));
      if (absorb) {
        ++absorbed_writes_;
        m_absorbed_writes_.inc();
        store_block(wkey, a.data, /*dirty=*/true);
        if (host_.memcpy_charged()) co_await host_.memcpy_cost(a.data.size());
        spawn_cache_store(a.fh.fileid, a.offset / bs, a.data.size());
        // Update the locally-known attributes.
        auto at = attrs_.find(a.fh.fileid);
        if (at != attrs_.end()) {
          at->second.attrs.size = std::max<uint64_t>(
              at->second.attrs.size, a.offset + a.data.size());
          at->second.attrs.mtime =
              static_cast<int64_t>(host_.engine().now() / sim::kSecond);
          at->second.fetched = host_.engine().now();
        }
        nfs::WriteRes res;
        res.count = static_cast<uint32_t>(a.data.size());
        res.committed = nfs::StableHow::kFileSync;  // durable in disk cache
        res.verf = 0x53474653;
        if (at != attrs_.end()) res.post_attrs = at->second.attrs;
        BufChain reply = encode_xdr(res);
        co_await evict_if_needed();
        co_return reply;
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::WriteRes>(reply);
      settle(reply, res, &nfs::WriteRes::post_attrs, a.fh);
      co_return reply;
    }

    case Proc3::kCommit: {
      // (During bypass, WRITEs went through to the server UNSTABLE, so the
      // COMMIT barrier must reach the server too.)
      if (config_.cache.write_back && config_.cache.cache_data &&
          !cache_bypassed()) {
        // Data is durable in the proxy's disk cache; the real write-back
        // happens at flush() (end of session) or under eviction pressure.
        nfs::CommitRes res;
        res.verf = 0x53474653;
        co_return encode_xdr(res);
      }
      co_return co_await forward(ctx, args);
    }

    case Proc3::kCreate:
    case Proc3::kMkdir:
    case Proc3::kSymlink: {
      xdr::Decoder dec(args);
      Fh dir;
      std::string name;
      if (proc == Proc3::kCreate) {
        auto a = nfs::CreateArgs::decode(dec);
        dir = a.dir;
        name = a.name;
      } else if (proc == Proc3::kMkdir) {
        auto a = nfs::MkdirArgs::decode(dec);
        dir = a.dir;
        name = a.name;
      } else {
        auto a = nfs::SymlinkArgs::decode(dec);
        dir = a.dir;
        name = a.name;
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::CreateRes>(reply);
      // A create invalidates the cached listing but not sibling names.
      dir_cache_.erase(dir.fileid);
      // A non-exclusive create of a file this cache holds dirty blocks of
      // answers with the server's (older, shorter) attributes.
      if (settle(reply, res, &nfs::CreateRes::attrs, res.fh)) {
        remember(dir, res.dir_attrs);
        if (config_.cache.cache_names) {
          nfs::LookupRes lr;
          lr.fh = res.fh;
          lr.attrs = res.attrs;
          name_put(dir.fileid, name, lr);
        }
      }
      co_return reply;
    }

    case Proc3::kRemove:
    case Proc3::kRmdir: {
      auto a = decode_xdr<nfs::DiropArgs>(args);
      // Identify the victim before forwarding so pending write-backs can be
      // cancelled (paper §6.3.2).
      // (A sealed entry that fails its MAC leaves the victim unknown: the
      // pending write-backs then flush normally — safe, just not optimal.)
      auto victim = name_get(a.dir.fileid, a.name);
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::WccRes>(reply);
      if (res.status == Status::kOk) {
        dir_cache_.erase(a.dir.fileid);
        names_.erase({a.dir.fileid, a.name});
        remember(a.dir, res.post_attrs);
        if (victim) unlink_name(*victim);
      }
      co_return reply;
    }

    case Proc3::kRename: {
      auto a = decode_xdr<nfs::RenameArgs>(args);
      // A rename over an existing name unlinks its file, like REMOVE —
      // unless both names link the same file, which the vfs leaves as is.
      auto moved = name_get(a.from_dir.fileid, a.from_name);
      auto target = name_get(a.to_dir.fileid, a.to_name);
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::WccRes>(reply);
      if (res.status != Status::kOk ||
          (moved && target && moved->fh.fileid == target->fh.fileid)) {
        co_return reply;
      }
      dir_cache_.erase(a.from_dir.fileid);
      dir_cache_.erase(a.to_dir.fileid);
      names_.erase({a.from_dir.fileid, a.from_name});
      if (moved) {
        name_put(a.to_dir.fileid, a.to_name, *moved);
      } else {
        names_.erase({a.to_dir.fileid, a.to_name});
      }
      // With the moved file unknown, a target with other links may be that
      // very file: only a target known to lose its last link is unlinked.
      if (target && (moved || last_link(*target))) unlink_name(*target);
      co_return reply;
    }

    case Proc3::kLink: {
      auto a = decode_xdr<nfs::LinkArgs>(args);
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::WccRes>(reply);
      if (res.status == Status::kOk) {
        // The reply carries only the directory's attributes: count the new
        // link here, so unlinking one name keeps the file's write-backs.
        auto at = attrs_.find(a.file.fileid);
        if (at != attrs_.end()) ++at->second.attrs.nlink;
        dir_cache_.erase(a.dir.fileid);
        if (config_.cache.cache_names) {
          nfs::LookupRes lr;
          lr.fh = a.file;
          if (at != attrs_.end()) lr.attrs = at->second.attrs;
          name_put(a.dir.fileid, a.name, lr);
        }
      }
      co_return reply;
    }

    case Proc3::kSetattr: {
      auto a = decode_xdr<nfs::SetattrArgs>(args);
      BufChain reply = co_await forward(ctx, args);
      auto res = decode_xdr<nfs::WccRes>(reply);
      if (res.status == Status::kOk && a.sattr.size) {
        // Truncate: drop cached blocks beyond the new size.  The boundary
        // block keeps only the bytes below it, so neither its write-back
        // nor dirty_extent() resurrects the tail.
        const uint64_t keep_blocks = (*a.sattr.size + bs - 1) / bs;
        drop_blocks(a.fh.fileid, keep_blocks);
        auto edge = blocks_.find({a.fh.fileid, keep_blocks - 1});
        if (keep_blocks > 0 && edge != blocks_.end()) {
          edge->second.valid = static_cast<uint32_t>(std::min<uint64_t>(
              edge->second.valid, *a.sattr.size - (keep_blocks - 1) * bs));
        }
      }
      settle(reply, res, &nfs::WccRes::post_attrs, a.fh);
      co_return reply;
    }

    case Proc3::kReaddir:
    case Proc3::kReaddirplus: {
      auto a = decode_xdr<nfs::ReaddirArgs>(args);
      if (config_.cache.cache_dirs && a.cookie == 0) {
        auto hit = dir_cache_.find(a.dir.fileid);
        if (hit != dir_cache_.end()) co_return encode_xdr(hit->second);
      }
      BufChain reply = co_await forward(ctx, args);
      if (config_.cache.cache_dirs && a.cookie == 0) {
        auto res = decode_xdr<nfs::ReaddirRes>(reply);
        if (res.status == Status::kOk && res.eof) {
          for (const auto& entry : res.entries) {
            if (entry.fh && entry.attrs) {
              remember(*entry.fh, entry.attrs);
              if (config_.cache.cache_names && entry.name != "." &&
                  entry.name != "..") {
                nfs::LookupRes lr;
                lr.fh = *entry.fh;
                lr.attrs = entry.attrs;
                name_put(a.dir.fileid, entry.name, lr);
              }
            }
          }
          dir_cache_[a.dir.fileid] = std::move(res);
        }
      }
      co_return reply;
    }

    default:
      co_return co_await forward(ctx, args);
  }
}

}  // namespace sgfs::core

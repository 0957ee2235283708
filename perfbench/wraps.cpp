// Link-time wrappers for the traced binary (perfbench_traced).
//
// Each wrapper below is bound by an asm label to __wrap_<mangled name>; the
// build passes -Wl,--wrap=<mangled name> for every such label it finds in
// this file, so every call from another translation unit into the
// repository's static libraries lands here, opens a span and forwards to
// __real_<mangled name>.  Calls inside one translation unit (Sha1::hash
// calling Sha1::update within sha.cpp) bypass the wrapper, which keeps each
// piece of work counted once.  A member function is declared as a free
// function taking `this` first, which is how the Itanium ABI passes it.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rc4.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha.hpp"
#include "services/envelope.hpp"
#include "spans.hpp"
#include "vfs/vfs.hpp"

using namespace sgfs;
using perfbench::Layer;
using perfbench::Scope;

#define PB_WRAP(sym) __asm__("__wrap_" sym)
#define PB_REAL(sym) __asm__("__real_" sym)

// --- crypto.cipher ----------------------------------------------------------

#define SYM "_ZN4sgfs6crypto15aes_cbc_encryptERKNS0_3AesESt4spanIKhLm18446744073709551615EES6_"
Buffer real_aes_cbc_encrypt(const crypto::Aes&, ByteView, ByteView) PB_REAL(SYM);
Buffer wrap_aes_cbc_encrypt(const crypto::Aes&, ByteView, ByteView) PB_WRAP(SYM);
#undef SYM
Buffer wrap_aes_cbc_encrypt(const crypto::Aes& aes, ByteView iv, ByteView p) {
  Scope s(Layer::kCipher, p.size());
  return real_aes_cbc_encrypt(aes, iv, p);
}

#define SYM "_ZN4sgfs6crypto21aes_cbc_encrypt_chainERKNS0_3AesESt4spanIKhLm18446744073709551615EERKNS_8BufChainE"
Buffer real_aes_cbc_encrypt_chain(const crypto::Aes&, ByteView,
                                  const BufChain&) PB_REAL(SYM);
Buffer wrap_aes_cbc_encrypt_chain(const crypto::Aes&, ByteView,
                                  const BufChain&) PB_WRAP(SYM);
#undef SYM
Buffer wrap_aes_cbc_encrypt_chain(const crypto::Aes& aes, ByteView iv,
                                  const BufChain& p) {
  Scope s(Layer::kCipher, p.size());
  return real_aes_cbc_encrypt_chain(aes, iv, p);
}

#define SYM "_ZN4sgfs6crypto15aes_cbc_decryptERKNS0_3AesESt4spanIKhLm18446744073709551615EES6_"
Buffer real_aes_cbc_decrypt(const crypto::Aes&, ByteView, ByteView) PB_REAL(SYM);
Buffer wrap_aes_cbc_decrypt(const crypto::Aes&, ByteView, ByteView) PB_WRAP(SYM);
#undef SYM
Buffer wrap_aes_cbc_decrypt(const crypto::Aes& aes, ByteView iv, ByteView c) {
  Scope s(Layer::kCipher, c.size());
  return real_aes_cbc_decrypt(aes, iv, c);
}

#define SYM "_ZN4sgfs6crypto3Rc47processESt4spanIhLm18446744073709551615EE"
void real_rc4_process(crypto::Rc4*, MutByteView) PB_REAL(SYM);
void wrap_rc4_process(crypto::Rc4*, MutByteView) PB_WRAP(SYM);
#undef SYM
void wrap_rc4_process(crypto::Rc4* self, MutByteView data) {
  Scope s(Layer::kCipher, data.size());
  real_rc4_process(self, data);
}

// --- crypto.hash ------------------------------------------------------------

#define SYM "_ZN4sgfs6crypto4Sha16updateESt4spanIKhLm18446744073709551615EE"
void real_sha1_update(crypto::Sha1*, ByteView) PB_REAL(SYM);
void wrap_sha1_update(crypto::Sha1*, ByteView) PB_WRAP(SYM);
#undef SYM
void wrap_sha1_update(crypto::Sha1* self, ByteView data) {
  Scope s(Layer::kHash, data.size());
  real_sha1_update(self, data);
}

#define SYM "_ZN4sgfs6crypto4Sha16finishEv"
crypto::Sha1::Digest real_sha1_finish(crypto::Sha1*) PB_REAL(SYM);
crypto::Sha1::Digest wrap_sha1_finish(crypto::Sha1*) PB_WRAP(SYM);
#undef SYM
crypto::Sha1::Digest wrap_sha1_finish(crypto::Sha1* self) {
  Scope s(Layer::kHash);
  return real_sha1_finish(self);
}

#define SYM "_ZN4sgfs6crypto4Sha14hashESt4spanIKhLm18446744073709551615EE"
crypto::Sha1::Digest real_sha1_hash(ByteView) PB_REAL(SYM);
crypto::Sha1::Digest wrap_sha1_hash(ByteView) PB_WRAP(SYM);
#undef SYM
crypto::Sha1::Digest wrap_sha1_hash(ByteView data) {
  Scope s(Layer::kHash, data.size());
  return real_sha1_hash(data);
}

#define SYM "_ZN4sgfs6crypto6Sha2566updateESt4spanIKhLm18446744073709551615EE"
void real_sha256_update(crypto::Sha256*, ByteView) PB_REAL(SYM);
void wrap_sha256_update(crypto::Sha256*, ByteView) PB_WRAP(SYM);
#undef SYM
void wrap_sha256_update(crypto::Sha256* self, ByteView data) {
  Scope s(Layer::kHash, data.size());
  real_sha256_update(self, data);
}

#define SYM "_ZN4sgfs6crypto6Sha2566finishEv"
crypto::Sha256::Digest real_sha256_finish(crypto::Sha256*) PB_REAL(SYM);
crypto::Sha256::Digest wrap_sha256_finish(crypto::Sha256*) PB_WRAP(SYM);
#undef SYM
crypto::Sha256::Digest wrap_sha256_finish(crypto::Sha256* self) {
  Scope s(Layer::kHash);
  return real_sha256_finish(self);
}

#define SYM "_ZN4sgfs6crypto6Sha2564hashESt4spanIKhLm18446744073709551615EE"
crypto::Sha256::Digest real_sha256_hash(ByteView) PB_REAL(SYM);
crypto::Sha256::Digest wrap_sha256_hash(ByteView) PB_WRAP(SYM);
#undef SYM
crypto::Sha256::Digest wrap_sha256_hash(ByteView data) {
  Scope s(Layer::kHash, data.size());
  return real_sha256_hash(data);
}

// --- crypto.rsa / crypto.keygen ---------------------------------------------

#define SYM "_ZN4sgfs6crypto13rsa_sign_sha1ERKNS0_13RsaPrivateKeyESt4spanIKhLm18446744073709551615EE"
Buffer real_rsa_sign_sha1(const crypto::RsaPrivateKey&, ByteView) PB_REAL(SYM);
Buffer wrap_rsa_sign_sha1(const crypto::RsaPrivateKey&, ByteView) PB_WRAP(SYM);
#undef SYM
Buffer wrap_rsa_sign_sha1(const crypto::RsaPrivateKey& key, ByteView m) {
  Scope s(Layer::kRsa);
  return real_rsa_sign_sha1(key, m);
}

#define SYM "_ZN4sgfs6crypto15rsa_verify_sha1ERKNS0_12RsaPublicKeyESt4spanIKhLm18446744073709551615EES6_"
bool real_rsa_verify_sha1(const crypto::RsaPublicKey&, ByteView,
                          ByteView) PB_REAL(SYM);
bool wrap_rsa_verify_sha1(const crypto::RsaPublicKey&, ByteView,
                          ByteView) PB_WRAP(SYM);
#undef SYM
bool wrap_rsa_verify_sha1(const crypto::RsaPublicKey& key, ByteView m,
                          ByteView sig) {
  Scope s(Layer::kRsa);
  return real_rsa_verify_sha1(key, m, sig);
}

#define SYM "_ZN4sgfs6crypto11rsa_encryptERKNS0_12RsaPublicKeyERNS_3RngESt4spanIKhLm18446744073709551615EE"
Buffer real_rsa_encrypt(const crypto::RsaPublicKey&, Rng&, ByteView) PB_REAL(SYM);
Buffer wrap_rsa_encrypt(const crypto::RsaPublicKey&, Rng&, ByteView) PB_WRAP(SYM);
#undef SYM
Buffer wrap_rsa_encrypt(const crypto::RsaPublicKey& key, Rng& rng,
                        ByteView m) {
  Scope s(Layer::kRsa);
  return real_rsa_encrypt(key, rng, m);
}

#define SYM "_ZN4sgfs6crypto11rsa_decryptERKNS0_13RsaPrivateKeyESt4spanIKhLm18446744073709551615EE"
Buffer real_rsa_decrypt(const crypto::RsaPrivateKey&, ByteView) PB_REAL(SYM);
Buffer wrap_rsa_decrypt(const crypto::RsaPrivateKey&, ByteView) PB_WRAP(SYM);
#undef SYM
Buffer wrap_rsa_decrypt(const crypto::RsaPrivateKey& key, ByteView c) {
  Scope s(Layer::kRsa);
  return real_rsa_decrypt(key, c);
}

#define SYM "_ZN4sgfs6crypto12rsa_generateERNS_3RngEm"
crypto::RsaKeyPair real_rsa_generate(Rng&, size_t) PB_REAL(SYM);
crypto::RsaKeyPair wrap_rsa_generate(Rng&, size_t) PB_WRAP(SYM);
#undef SYM
crypto::RsaKeyPair wrap_rsa_generate(Rng& rng, size_t bits) {
  Scope s(Layer::kKeygen);
  return real_rsa_generate(rng, bits);
}

// --- crypto.merkle ----------------------------------------------------------

#define SYM "_ZN4sgfs6crypto10MerkleTree6verifyERKSt5arrayIhLm32EEmmSt4spanIKhLm18446744073709551615EERKSt6vectorIS3_SaIS3_EE"
bool real_merkle_verify(const crypto::Sha256::Digest&, size_t, size_t,
                        ByteView,
                        const std::vector<crypto::Sha256::Digest>&) PB_REAL(SYM);
bool wrap_merkle_verify(const crypto::Sha256::Digest&, size_t, size_t,
                        ByteView,
                        const std::vector<crypto::Sha256::Digest>&) PB_WRAP(SYM);
#undef SYM
bool wrap_merkle_verify(const crypto::Sha256::Digest& root, size_t leaves,
                        size_t index, ByteView block,
                        const std::vector<crypto::Sha256::Digest>& proof) {
  Scope s(Layer::kMerkle, block.size());
  return real_merkle_verify(root, leaves, index, block, proof);
}

// --- services.envelope ------------------------------------------------------

#define SYM "_ZN4sgfs8services13sign_envelopeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt3mapIS6_S6_St4lessIS6_ESaISt4pairIS7_S6_EEERKNS_6crypto10CredentialEl"
services::Envelope real_sign_envelope(const std::string&,
                                      std::map<std::string, std::string>,
                                      const crypto::Credential&,
                                      int64_t) PB_REAL(SYM);
services::Envelope wrap_sign_envelope(const std::string&,
                                      std::map<std::string, std::string>,
                                      const crypto::Credential&,
                                      int64_t) PB_WRAP(SYM);
#undef SYM
services::Envelope wrap_sign_envelope(const std::string& action,
                                      std::map<std::string, std::string> fields,
                                      const crypto::Credential& signer,
                                      int64_t timestamp) {
  Scope s(Layer::kEnvelope);
  return real_sign_envelope(action, std::move(fields), signer, timestamp);
}

#define SYM "_ZN4sgfs8services15verify_envelopeERKNS0_8EnvelopeERKSt6vectorINS_6crypto11CertificateESaIS6_EEll"
services::VerifiedEnvelope real_verify_envelope(
    const services::Envelope&, const std::vector<crypto::Certificate>&,
    int64_t, int64_t) PB_REAL(SYM);
services::VerifiedEnvelope wrap_verify_envelope(
    const services::Envelope&, const std::vector<crypto::Certificate>&,
    int64_t, int64_t) PB_WRAP(SYM);
#undef SYM
services::VerifiedEnvelope wrap_verify_envelope(
    const services::Envelope& env,
    const std::vector<crypto::Certificate>& trusted, int64_t now,
    int64_t skew) {
  Scope s(Layer::kEnvelope);
  return real_verify_envelope(env, trusted, now, skew);
}

// --- vfs --------------------------------------------------------------------

#define SYM "_ZNK4sgfs3vfs10FileSystem4readERKNS0_4CredEmmj"
vfs::Result<vfs::FileSystem::ReadResult> real_vfs_read(
    const vfs::FileSystem*, const vfs::Cred&, vfs::FileId, uint64_t,
    uint32_t) PB_REAL(SYM);
vfs::Result<vfs::FileSystem::ReadResult> wrap_vfs_read(
    const vfs::FileSystem*, const vfs::Cred&, vfs::FileId, uint64_t,
    uint32_t) PB_WRAP(SYM);
#undef SYM
vfs::Result<vfs::FileSystem::ReadResult> wrap_vfs_read(
    const vfs::FileSystem* self, const vfs::Cred& cred, vfs::FileId id,
    uint64_t offset, uint32_t count) {
  Scope s(Layer::kVfs, count);
  return real_vfs_read(self, cred, id, offset, count);
}

#define SYM "_ZN4sgfs3vfs10FileSystem5writeERKNS0_4CredEmmSt4spanIKhLm18446744073709551615EE"
vfs::Result<uint32_t> real_vfs_write(vfs::FileSystem*, const vfs::Cred&,
                                     vfs::FileId, uint64_t,
                                     ByteView) PB_REAL(SYM);
vfs::Result<uint32_t> wrap_vfs_write(vfs::FileSystem*, const vfs::Cred&,
                                     vfs::FileId, uint64_t,
                                     ByteView) PB_WRAP(SYM);
#undef SYM
vfs::Result<uint32_t> wrap_vfs_write(vfs::FileSystem* self,
                                     const vfs::Cred& cred, vfs::FileId id,
                                     uint64_t offset, ByteView data) {
  Scope s(Layer::kVfs, data.size());
  return real_vfs_write(self, cred, id, offset, data);
}

#define SYM "_ZNK4sgfs3vfs10FileSystem6lookupERKNS0_4CredEmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
vfs::Result<vfs::FileId> real_vfs_lookup(const vfs::FileSystem*,
                                         const vfs::Cred&, vfs::FileId,
                                         const std::string&) PB_REAL(SYM);
vfs::Result<vfs::FileId> wrap_vfs_lookup(const vfs::FileSystem*,
                                         const vfs::Cred&, vfs::FileId,
                                         const std::string&) PB_WRAP(SYM);
#undef SYM
vfs::Result<vfs::FileId> wrap_vfs_lookup(const vfs::FileSystem* self,
                                         const vfs::Cred& cred,
                                         vfs::FileId dir,
                                         const std::string& name) {
  Scope s(Layer::kVfs);
  return real_vfs_lookup(self, cred, dir, name);
}

#define SYM "_ZNK4sgfs3vfs10FileSystem7getattrEm"
vfs::Result<vfs::Attributes> real_vfs_getattr(const vfs::FileSystem*,
                                              vfs::FileId) PB_REAL(SYM);
vfs::Result<vfs::Attributes> wrap_vfs_getattr(const vfs::FileSystem*,
                                              vfs::FileId) PB_WRAP(SYM);
#undef SYM
vfs::Result<vfs::Attributes> wrap_vfs_getattr(const vfs::FileSystem* self,
                                              vfs::FileId id) {
  Scope s(Layer::kVfs);
  return real_vfs_getattr(self, id);
}

#define SYM "_ZN4sgfs3vfs10FileSystem6createERKNS0_4CredEmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjb"
vfs::Result<vfs::FileId> real_vfs_create(vfs::FileSystem*, const vfs::Cred&,
                                         vfs::FileId, const std::string&,
                                         uint32_t, bool) PB_REAL(SYM);
vfs::Result<vfs::FileId> wrap_vfs_create(vfs::FileSystem*, const vfs::Cred&,
                                         vfs::FileId, const std::string&,
                                         uint32_t, bool) PB_WRAP(SYM);
#undef SYM
vfs::Result<vfs::FileId> wrap_vfs_create(vfs::FileSystem* self,
                                         const vfs::Cred& cred,
                                         vfs::FileId dir,
                                         const std::string& name,
                                         uint32_t mode, bool exclusive) {
  Scope s(Layer::kVfs);
  return real_vfs_create(self, cred, dir, name, mode, exclusive);
}

#define SYM "_ZN4sgfs3vfs10FileSystem6removeERKNS0_4CredEmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
vfs::Status real_vfs_remove(vfs::FileSystem*, const vfs::Cred&, vfs::FileId,
                            const std::string&) PB_REAL(SYM);
vfs::Status wrap_vfs_remove(vfs::FileSystem*, const vfs::Cred&, vfs::FileId,
                            const std::string&) PB_WRAP(SYM);
#undef SYM
vfs::Status wrap_vfs_remove(vfs::FileSystem* self, const vfs::Cred& cred,
                            vfs::FileId dir, const std::string& name) {
  Scope s(Layer::kVfs);
  return real_vfs_remove(self, cred, dir, name);
}

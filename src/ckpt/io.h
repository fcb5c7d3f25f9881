// Crash-safe checkpoint I/O: checksummed binary snapshots written with the
// tmp-file + rename protocol so a file on disk is always either the previous
// complete checkpoint or the new complete checkpoint, never a torn write.
//
// Every checkpoint file carries a fixed envelope:
//
//   magic           8 bytes  "CNVCKPT\0"
//   format_version  u32      envelope layout version (kFormatVersion)
//   payload_type    u32      caller-chosen discriminator (explore snapshot,
//                            campaign manifest, campaign cell, ...)
//   payload_version u32      caller-chosen payload layout version
//   config_digest   u64      FNV-1a digest of the producing configuration;
//                            a resume with a different config is rejected
//                            instead of silently mixing incompatible state
//   payload_size    u64
//   payload_sum     u64      FNV-1a over the payload bytes
//   payload         payload_size bytes
//
// Reads validate magic, versions, type, digest, size and checksum and report
// a typed LoadStatus, so callers can distinguish "no checkpoint yet" from
// "checkpoint damaged" and fall back to the last good snapshot.
//
// Encoding is host-endian (checkpoints resume on the machine that wrote
// them); strings and POD arrays are length-prefixed.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cnv::ckpt {

// --- FNV-1a -----------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t Fnv1a64(std::string_view bytes,
                             std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Streaming FNV-1a digest over heterogeneous config fields; used to build
// the config_digest that guards a resume against mismatched options.
class DigestBuilder {
 public:
  DigestBuilder& Add(std::string_view s) {
    Raw(s.size());
    h_ = Fnv1a64(s, h_);
    return *this;
  }
  DigestBuilder& Add(std::uint64_t v) {
    Raw(v);
    return *this;
  }
  DigestBuilder& Add(std::int64_t v) { return Add(static_cast<std::uint64_t>(v)); }
  DigestBuilder& Add(bool v) { return Add(static_cast<std::uint64_t>(v)); }
  DigestBuilder& Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return Add(bits);
  }
  std::uint64_t Finish() const { return h_; }

 private:
  void Raw(std::uint64_t v) {
    char buf[sizeof(v)];
    std::memcpy(buf, &v, sizeof(v));
    h_ = Fnv1a64(std::string_view(buf, sizeof(buf)), h_);
  }
  std::uint64_t h_ = kFnvOffset;
};

// --- binary payload encoding ------------------------------------------------

class BinaryWriter {
 public:
  void U8(std::uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(std::int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  // Length-prefixed raw image of a trivially copyable element vector.
  template <typename T>
  void PodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&v, sizeof(T));
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, std::size_t n) {
    if (n > 0) buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

// Bounds-checked reader over a payload. Any overrun latches `ok() == false`
// and subsequent reads return zero values; callers check ok() once at the
// end instead of after every field.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t U8() { return Scalar<std::uint8_t>(); }
  std::uint32_t U32() { return Scalar<std::uint32_t>(); }
  std::uint64_t U64() { return Scalar<std::uint64_t>(); }
  std::int64_t I64() { return Scalar<std::int64_t>(); }
  double F64() { return Scalar<double>(); }
  std::string Str() {
    const std::uint64_t n = U64();
    if (!Require(n)) return {};
    std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  template <typename T>
  std::vector<T> PodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = U64();
    if (n > bytes_.size() / sizeof(T) || !Require(n * sizeof(T))) {
      ok_ = false;
      return {};
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), bytes_.data() + pos_,
                  static_cast<std::size_t>(n) * sizeof(T));
    }
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return v;
  }
  template <typename T>
  T Pod() {
    return Scalar<T>();
  }

  bool ok() const { return ok_; }
  // True when the whole payload was consumed with no overrun — the usual
  // "decoded cleanly" condition.
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  template <typename T>
  T Scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Require(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  bool Require(std::uint64_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- checkpoint files -------------------------------------------------------

inline constexpr std::uint32_t kFormatVersion = 1;

enum class PayloadType : std::uint32_t {
  kExploreSnapshot = 1,
  kCampaignManifest = 2,
  kCampaignCell = 3,
  kScreeningCell = 4,
  kConformanceCell = 5,
  // 6 is retired (a removed exploration-frontier file type): never reuse it,
  // so an old file of that type can only ever load as kBadType.
};

enum class LoadStatus {
  kOk,
  kMissing,           // file does not exist
  kTruncated,         // shorter than the declared envelope + payload
  kBadMagic,          // not a checkpoint file
  kBadVersion,        // produced by an incompatible format or payload layout
  kBadType,           // a checkpoint, but of a different payload type
  kConfigMismatch,    // config digest differs from the resuming run's
  kChecksumMismatch,  // payload bytes damaged
};

std::string ToString(LoadStatus s);

// Why a checkpoint save failed. The cases callers care about operationally:
// kNoSpace means the volume is full and retrying without freeing space is
// pointless; kShortWrite means the kernel accepted fewer bytes than asked
// (or the write failed outright) and the tmp file was discarded; in every
// failure case the previous checkpoint, if any, is left untouched and still
// loads kOk — the last-good-fallback contract.
enum class SaveStatus {
  kOk,
  kOpenFailed,    // tmp file could not be created (permissions, bad path)
  kShortWrite,    // write error or fewer bytes accepted than requested
  kNoSpace,       // ENOSPC / EDQUOT: the volume is full
  kRenameFailed,  // envelope+payload landed, but tmp -> target rename failed
};

std::string ToString(SaveStatus s);

// Writes envelope + payload to `path` via tmp + rename, creating parent
// directories. On any failure the tmp file is removed and the previous
// file, if any, is left untouched.
SaveStatus SaveCheckpointFile(const std::string& path, PayloadType type,
                              std::uint32_t payload_version,
                              std::uint64_t config_digest,
                              std::string_view payload);

// Compatibility wrapper: true iff SaveCheckpointFile returns kOk.
bool WriteCheckpointFile(const std::string& path, PayloadType type,
                         std::uint32_t payload_version,
                         std::uint64_t config_digest,
                         std::string_view payload);

// Test seam: replaces the ::write() call inside SaveCheckpointFile so tests
// can inject short writes and disk-full errors without a full volume. The
// shim sees (fd, data, size) and returns bytes written, or -1 with errno
// set. Pass nullptr to restore the real ::write. Not thread-safe; tests
// only.
using WriteShim = long (*)(int fd, const void* data, std::size_t size);
void SetWriteShimForTest(WriteShim shim);

// Reads and validates `path`. On kOk fills `payload`. `config_digest` must
// match the stored digest; pass kAnyConfigDigest to skip the check (the
// stored digest is then returned through `stored_digest` when non-null).
inline constexpr std::uint64_t kAnyConfigDigest = ~0ull;
LoadStatus ReadCheckpointFile(const std::string& path, PayloadType type,
                              std::uint32_t payload_version,
                              std::uint64_t config_digest,
                              std::string* payload,
                              std::uint64_t* stored_digest = nullptr);

}  // namespace cnv::ckpt

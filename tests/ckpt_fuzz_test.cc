// Fuzz the checkpoint envelope loader: random single-bit flips over a valid
// checkpoint file, truncations and garbage files must always land in the
// typed LoadStatus taxonomy — never a crash, never a silently accepted
// damaged payload. Runs under ASan in CI.
#include "ckpt/io.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "gtest/gtest.h"
#include "test_dirs.h"
#include "util/rng.h"

namespace cnv::ckpt {
namespace {

constexpr PayloadType kType = PayloadType::kConformanceCell;
constexpr std::uint32_t kPayloadVersion = 3;
constexpr std::uint64_t kDigest = 0x00d1ce5ull;

// Envelope layout offsets (see the Envelope struct in ckpt/io.cc): magic 8,
// format_version 4, payload_type 4, payload_version 4, reserved 4,
// config_digest 8, payload_size 8, payload_sum 8 = 48 bytes.
constexpr std::size_t kEnvelopeSize = 48;
constexpr std::size_t kReservedBegin = 20;
constexpr std::size_t kReservedEnd = 24;

std::string TestPath(const std::string& name) {
  return (test::TestTempDir() / name).string();
}

std::string MakePayload() {
  BinaryWriter w;
  w.U64(42);
  w.Str("conformance cell payload");
  for (int i = 0; i < 64; ++i) w.F64(i * 0.5);
  return w.Take();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

LoadStatus Load(const std::string& path, std::string* payload = nullptr) {
  return ReadCheckpointFile(path, kType, kPayloadVersion, kDigest, payload);
}

TEST(CkptFuzzTest, IntactFileLoadsOk) {
  const std::string path = TestPath("intact");
  const std::string payload = MakePayload();
  ASSERT_TRUE(WriteCheckpointFile(path, kType, kPayloadVersion, kDigest,
                                  payload));
  std::string loaded;
  ASSERT_EQ(Load(path, &loaded), LoadStatus::kOk);
  EXPECT_EQ(loaded, payload);
  ASSERT_EQ(ReadBytes(path).size(), kEnvelopeSize + payload.size());
}

TEST(CkptFuzzTest, EverySingleBitFlipIsClassified) {
  const std::string path = TestPath("bitflip");
  const std::string payload = MakePayload();
  ASSERT_TRUE(WriteCheckpointFile(path, kType, kPayloadVersion, kDigest,
                                  payload));
  const std::string pristine = ReadBytes(path);
  ASSERT_EQ(pristine.size(), kEnvelopeSize + payload.size());

  cnv::Rng rng(0xb17f11b5);
  for (int round = 0; round < 400; ++round) {
    const auto offset = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(pristine.size()) - 1));
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    SCOPED_TRACE("offset " + std::to_string(offset) + " bit " +
                 std::to_string(bit));
    std::string damaged = pristine;
    damaged[offset] = static_cast<char>(damaged[offset] ^ (1 << bit));
    WriteBytes(path, damaged);

    std::string loaded;
    const LoadStatus status = Load(path, &loaded);
    if (offset >= kReservedBegin && offset < kReservedEnd) {
      // The reserved field is not validated; the payload must still be
      // delivered intact.
      EXPECT_EQ(status, LoadStatus::kOk);
      EXPECT_EQ(loaded, payload);
    } else {
      EXPECT_NE(status, LoadStatus::kOk) << ToString(status);
    }
  }
}

TEST(CkptFuzzTest, EnvelopeFieldDamageMapsToItsStatus) {
  const std::string path = TestPath("fields");
  const std::string payload = MakePayload();
  ASSERT_TRUE(WriteCheckpointFile(path, kType, kPayloadVersion, kDigest,
                                  payload));
  const std::string pristine = ReadBytes(path);

  const struct {
    std::size_t offset;
    LoadStatus expected;
  } kCases[] = {
      {0, LoadStatus::kBadMagic},          // magic
      {7, LoadStatus::kBadMagic},
      {8, LoadStatus::kBadVersion},        // format_version
      {12, LoadStatus::kBadType},          // payload_type
      {16, LoadStatus::kBadVersion},       // payload_version
      {24, LoadStatus::kConfigMismatch},   // config_digest
      {32, LoadStatus::kTruncated},        // payload_size
      {40, LoadStatus::kChecksumMismatch},  // payload_sum
      {kEnvelopeSize, LoadStatus::kChecksumMismatch},      // payload bytes
      {pristine.size() - 1, LoadStatus::kChecksumMismatch},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE("offset " + std::to_string(c.offset));
    std::string damaged = pristine;
    damaged[c.offset] = static_cast<char>(damaged[c.offset] ^ 0x01);
    WriteBytes(path, damaged);
    EXPECT_EQ(Load(path), c.expected);
  }
}

TEST(CkptFuzzTest, RandomTruncationsAreTruncatedNeverOk) {
  const std::string path = TestPath("truncate");
  const std::string payload = MakePayload();
  ASSERT_TRUE(WriteCheckpointFile(path, kType, kPayloadVersion, kDigest,
                                  payload));
  const std::string pristine = ReadBytes(path);

  cnv::Rng rng(0x7a11);
  for (int round = 0; round < 100; ++round) {
    const auto keep = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(pristine.size()) - 1));
    SCOPED_TRACE("keep " + std::to_string(keep));
    WriteBytes(path, pristine.substr(0, keep));
    EXPECT_EQ(Load(path), LoadStatus::kTruncated);
  }
  // Trailing garbage counts as damage too (size mismatch).
  WriteBytes(path, pristine + "extra");
  EXPECT_EQ(Load(path), LoadStatus::kTruncated);
}

TEST(CkptFuzzTest, GarbageFilesNeverLoad) {
  const std::string path = TestPath("garbage");
  cnv::Rng rng(0x6a5ba6e);
  for (int round = 0; round < 100; ++round) {
    const auto len =
        static_cast<std::size_t>(rng.UniformInt(0, 256));
    std::string garbage;
    garbage.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    SCOPED_TRACE("len " + std::to_string(len));
    WriteBytes(path, garbage);
    const LoadStatus status = Load(path);
    EXPECT_NE(status, LoadStatus::kOk);
    EXPECT_FALSE(ToString(status).empty());
  }
}

TEST(CkptFuzzTest, MissingFileIsMissing) {
  EXPECT_EQ(Load(TestPath("does_not_exist")), LoadStatus::kMissing);
}

TEST(CkptFuzzTest, EveryStatusHasAName) {
  for (const auto s :
       {LoadStatus::kOk, LoadStatus::kMissing, LoadStatus::kTruncated,
        LoadStatus::kBadMagic, LoadStatus::kBadVersion, LoadStatus::kBadType,
        LoadStatus::kConfigMismatch, LoadStatus::kChecksumMismatch}) {
    EXPECT_FALSE(ToString(s).empty());
    EXPECT_NE(ToString(s), "unknown");
  }
}

}  // namespace
}  // namespace cnv::ckpt

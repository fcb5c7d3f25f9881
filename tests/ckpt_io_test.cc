// Checkpoint envelope + codec tests: FNV digests, the bounds-checked binary
// reader, the full damage taxonomy of ReadCheckpointFile — missing,
// truncated, bad magic, wrong version/type, config mismatch, flipped byte —
// and the save-failure taxonomy of SaveCheckpointFile under an injected
// writer (disk-full, short write), proving the last-good-fallback contract.
#include "ckpt/io.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_dirs.h"

namespace cnv::ckpt {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (test::TestTempDir() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Fnv1a64Test, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(DigestBuilderTest, SensitiveToValueTypeAndOrder) {
  const auto d = [](auto&&... parts) {
    DigestBuilder b;
    (b.Add(parts), ...);
    return b.Finish();
  };
  EXPECT_EQ(d(std::uint64_t{1}, std::uint64_t{2}),
            d(std::uint64_t{1}, std::uint64_t{2}));
  EXPECT_NE(d(std::uint64_t{1}, std::uint64_t{2}),
            d(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_NE(d(std::string_view("ab")), d(std::string_view("a"),
                                         std::string_view("b")));
  EXPECT_NE(d(true), d(false));
  EXPECT_NE(d(1.0), d(2.0));
}

TEST(BinaryCodecTest, RoundTripsEveryFieldKind) {
  struct Pod {
    int a;
    double b;
  };
  BinaryWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(1ull << 60);
  w.I64(-42);
  w.F64(3.25);
  w.Str("hello \0 world");
  w.Str("");
  w.PodVector(std::vector<std::uint32_t>{1, 2, 3});
  w.PodVector(std::vector<std::uint32_t>{});
  w.Pod(Pod{-1, 0.5});

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 1ull << 60);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello ");  // string_view literal stops at the NUL
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.PodVector<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.PodVector<std::uint32_t>().empty());
  const Pod p = r.Pod<Pod>();
  EXPECT_EQ(p.a, -1);
  EXPECT_DOUBLE_EQ(p.b, 0.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryReaderTest, OverrunLatchesAndReturnsZeroValues) {
  const std::string four(4, '\x01');
  BinaryReader r(four);
  EXPECT_EQ(r.U64(), 0u);  // needs 8, only 4 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0u);  // still latched even though 4 bytes remain
  EXPECT_FALSE(r.AtEnd());
}

TEST(BinaryReaderTest, HugeStringLengthFailsInsteadOfAllocating) {
  BinaryWriter w;
  w.U64(~0ull);  // declared length far beyond the buffer
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(BinaryReaderTest, HugePodVectorLengthFailsInsteadOfAllocating) {
  BinaryWriter w;
  w.U64(1ull << 61);  // n * sizeof(u64) would overflow
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.PodVector<std::uint64_t>().empty());
  EXPECT_FALSE(r.ok());
}

TEST(BinaryReaderTest, AtEndRequiresFullConsumption) {
  BinaryWriter w;
  w.U32(1);
  w.U32(2);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.AtEnd());  // trailing bytes: a layout mismatch
}

TEST(CheckpointFileTest, RoundTripsAndReportsStoredDigest) {
  const std::string path = TempPath("roundtrip.ckpt");
  const std::string payload = "the payload bytes";
  ASSERT_TRUE(WriteCheckpointFile(path, PayloadType::kExploreSnapshot,
                                  /*payload_version=*/3, /*config_digest=*/77,
                                  payload));
  std::string got;
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kExploreSnapshot, 3, 77,
                               &got),
            LoadStatus::kOk);
  EXPECT_EQ(got, payload);

  // kAnyConfigDigest skips the check and surfaces the stored digest.
  std::uint64_t stored = 0;
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kExploreSnapshot, 3,
                               kAnyConfigDigest, &got, &stored),
            LoadStatus::kOk);
  EXPECT_EQ(stored, 77u);
}

TEST(CheckpointFileTest, EmptyPayloadRoundTrips) {
  const std::string path = TempPath("empty.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, PayloadType::kCampaignManifest, 1, 1,
                                  ""));
  std::string got = "sentinel";
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignManifest, 1, 1,
                               &got),
            LoadStatus::kOk);
  EXPECT_TRUE(got.empty());
}

TEST(CheckpointFileTest, MissingFile) {
  std::string got;
  EXPECT_EQ(ReadCheckpointFile(TempPath("nonexistent.ckpt"),
                               PayloadType::kCampaignCell, 1, 1, &got),
            LoadStatus::kMissing);
}

TEST(CheckpointFileTest, DamageTaxonomy) {
  const std::string path = TempPath("damage.ckpt");
  const std::string payload = "twelve bytes";
  ASSERT_TRUE(WriteCheckpointFile(path, PayloadType::kCampaignCell, 2, 9,
                                  payload));
  const std::string pristine = ReadAll(path);
  ASSERT_GT(pristine.size(), payload.size());
  std::string got;

  // Wrong expectations against a pristine file.
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignManifest, 2, 9,
                               &got),
            LoadStatus::kBadType);
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 3, 9, &got),
            LoadStatus::kBadVersion);
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 2, 10, &got),
            LoadStatus::kConfigMismatch);

  // Truncated: the envelope declares more payload than the file holds.
  WriteAll(path, pristine.substr(0, pristine.size() - 1));
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 2, 9, &got),
            LoadStatus::kTruncated);

  // Flipped payload byte: size intact, checksum catches it.
  std::string flipped = pristine;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x40);
  WriteAll(path, flipped);
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 2, 9, &got),
            LoadStatus::kChecksumMismatch);

  // Stomped magic: not a checkpoint file at all.
  std::string stomped = pristine;
  stomped[0] = 'X';
  WriteAll(path, stomped);
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 2, 9, &got),
            LoadStatus::kBadMagic);

  // A pristine rewrite reads cleanly again — damage lives in the file, not
  // in any reader state.
  WriteAll(path, pristine);
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 2, 9, &got),
            LoadStatus::kOk);
  EXPECT_EQ(got, payload);
}

TEST(CheckpointFileTest, WriteLeavesNoTmpFileBehind) {
  const std::string path = TempPath("clean.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, PayloadType::kScreeningCell, 1, 1,
                                  "x"));
  for (const auto& e : fs::directory_iterator(fs::path(path).parent_path())) {
    EXPECT_EQ(e.path().extension(), ".ckpt") << e.path();
  }
}

// --- save fault injection ---------------------------------------------------
//
// The write shim stands in for ::write inside SaveCheckpointFile, so tests
// can exhaust a byte budget mid-save the way a full disk would — without
// needing an actual full volume. The shim is a plain function pointer, so
// its state lives in these file-scope variables.
std::size_t g_write_budget = 0;  // bytes the shim will accept before failing
int g_fail_errno = 0;            // errno once exhausted; 0 => short write of 0

long BudgetedWrite(int fd, const void* data, std::size_t size) {
  if (g_write_budget == 0) {
    if (g_fail_errno != 0) {
      errno = g_fail_errno;
      return -1;
    }
    return 0;  // kernel accepted nothing: a short write
  }
  const std::size_t n = std::min(size, g_write_budget);
  g_write_budget -= n;
  return static_cast<long>(::write(fd, data, n));
}

// RAII so a failing EXPECT cannot leave the shim installed for later tests.
struct ShimGuard {
  ShimGuard(std::size_t budget, int fail_errno) {
    g_write_budget = budget;
    g_fail_errno = fail_errno;
    SetWriteShimForTest(&BudgetedWrite);
  }
  ~ShimGuard() { SetWriteShimForTest(nullptr); }
};

TEST(SaveFaultTest, DiskFullMidPayloadReportsNoSpaceAndKeepsLastGood) {
  const std::string path = TempPath("diskfull.ckpt");
  const std::string good = "generation 1 survives";
  ASSERT_EQ(SaveCheckpointFile(path, PayloadType::kCampaignCell, 1, 5, good),
            SaveStatus::kOk);

  {
    // Envelope fits, then the volume "fills" a few bytes into the payload.
    ShimGuard shim(/*budget=*/48 + 3, /*fail_errno=*/ENOSPC);
    EXPECT_EQ(SaveCheckpointFile(path, PayloadType::kCampaignCell, 1, 5,
                                 "generation 2 must not land"),
              SaveStatus::kNoSpace);
  }

  // Last-good fallback: the failed save left no tmp debris and the previous
  // checkpoint still reads back byte-for-byte.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::string got;
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kCampaignCell, 1, 5, &got),
            LoadStatus::kOk);
  EXPECT_EQ(got, good);
}

TEST(SaveFaultTest, ShortWriteIsDistinctFromDiskFull) {
  const std::string path = TempPath("shortwrite.ckpt");
  const std::string good = "old payload";
  ASSERT_TRUE(WriteCheckpointFile(path, PayloadType::kScreeningCell, 1, 6,
                                  good));

  {
    // The writer accepts nothing at all: short write, not disk-full.
    ShimGuard shim(/*budget=*/0, /*fail_errno=*/0);
    EXPECT_EQ(SaveCheckpointFile(path, PayloadType::kScreeningCell, 1, 6,
                                 "new payload"),
              SaveStatus::kShortWrite);
  }
  {
    // A hard I/O error that is not ENOSPC also maps to short-write.
    ShimGuard shim(/*budget=*/8, /*fail_errno=*/EIO);
    EXPECT_EQ(SaveCheckpointFile(path, PayloadType::kScreeningCell, 1, 6,
                                 "new payload"),
              SaveStatus::kShortWrite);
  }

  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::string got;
  EXPECT_EQ(ReadCheckpointFile(path, PayloadType::kScreeningCell, 1, 6, &got),
            LoadStatus::kOk);
  EXPECT_EQ(got, good);
}

TEST(SaveFaultTest, BoolWrapperStillReportsFailure) {
  const std::string path = TempPath("wrapper.ckpt");
  ShimGuard shim(/*budget=*/0, /*fail_errno=*/ENOSPC);
  EXPECT_FALSE(WriteCheckpointFile(path, PayloadType::kCampaignCell, 1, 1,
                                   "payload"));
}

TEST(SaveFaultTest, UnwritableParentReportsOpenFailed) {
  // The parent "directory" is a regular file, so neither create_directories
  // nor open can succeed.
  const std::string blocker = TempPath("blocker.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(blocker, PayloadType::kCampaignCell, 1, 1,
                                  "x"));
  EXPECT_EQ(SaveCheckpointFile(blocker + "/nested.ckpt",
                               PayloadType::kCampaignCell, 1, 1, "y"),
            SaveStatus::kOpenFailed);
}

TEST(SaveFaultTest, TargetOccupiedByDirectoryReportsRenameFailed) {
  const std::string path = TempPath("occupied.ckpt");
  fs::create_directories(fs::path(path) / "occupant");
  EXPECT_EQ(SaveCheckpointFile(path, PayloadType::kCampaignCell, 1, 1, "z"),
            SaveStatus::kRenameFailed);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SaveStatusTest, EveryStatusHasAName) {
  for (const auto s :
       {SaveStatus::kOk, SaveStatus::kOpenFailed, SaveStatus::kShortWrite,
        SaveStatus::kNoSpace, SaveStatus::kRenameFailed}) {
    EXPECT_FALSE(ToString(s).empty());
  }
}

TEST(LoadStatusTest, EveryStatusHasAName) {
  for (const auto s :
       {LoadStatus::kOk, LoadStatus::kMissing, LoadStatus::kTruncated,
        LoadStatus::kBadMagic, LoadStatus::kBadVersion, LoadStatus::kBadType,
        LoadStatus::kConfigMismatch, LoadStatus::kChecksumMismatch}) {
    EXPECT_FALSE(ToString(s).empty());
  }
}

}  // namespace
}  // namespace cnv::ckpt

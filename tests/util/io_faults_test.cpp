// The Io seam and the FaultyIo decorator: the passthrough base must behave
// like the filesystem, ScopedIo must install/restore overrides, and injected
// faults must be deterministic, transience-bounded, and path-scoped.
#include "util/io_faults.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "scratch_path.hpp"

namespace astra::io {
namespace {

class IoFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_io_faults_test_");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(IoFaultsTest, PassthroughRoundTrip) {
  Io& io = DefaultIo();
  const std::string path = Path("data.bin");
  // Embedded NUL: byte-level APIs must not treat the payload as a C string.
  const std::string payload =
      std::string("line one\nline two\n") + '\0' + "binary tail";

  ASSERT_TRUE(io.WriteFile(path, payload));
  EXPECT_TRUE(io.SyncFile(path));
  EXPECT_TRUE(io.SyncDir(dir_));

  const auto bytes = io.ReadFile(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, payload);

  const auto mapped = io.MapFile(path);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->Bytes(), payload);

  const auto size = io.FileSize(path);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, payload.size());

  const std::string moved = Path("moved.bin");
  ASSERT_TRUE(io.Rename(path, moved));
  EXPECT_FALSE(io.FileSize(path).has_value());
  EXPECT_TRUE(io.FileSize(moved).has_value());

  EXPECT_TRUE(io.Remove(moved));
  EXPECT_FALSE(io.FileSize(moved).has_value());
  // Removing an absent file is "already gone", not a failure.
  EXPECT_TRUE(io.Remove(moved));
}

TEST_F(IoFaultsTest, PassthroughFailsOnMissingFiles) {
  Io& io = DefaultIo();
  const std::string nope = Path("nope");
  EXPECT_FALSE(io.ReadFile(nope).has_value());
  EXPECT_FALSE(io.MapFile(nope).has_value());
  EXPECT_FALSE(io.FileSize(nope).has_value());
  EXPECT_FALSE(io.Rename(nope, Path("still_nope")));
  EXPECT_FALSE(io.SyncFile(nope));
}

TEST_F(IoFaultsTest, ScopedIoInstallsAndRestoresNested) {
  ASSERT_EQ(&Current(), &DefaultIo());
  FaultConfig outer_config;
  FaultyIo outer(outer_config);
  {
    ScopedIo outer_scope(outer);
    EXPECT_EQ(&Current(), &outer);
    FaultyIo inner(outer_config);
    {
      ScopedIo inner_scope(inner);
      EXPECT_EQ(&Current(), &inner);
    }
    EXPECT_EQ(&Current(), &outer);
  }
  EXPECT_EQ(&Current(), &DefaultIo());
}

TEST_F(IoFaultsTest, MaxConsecutiveBoundsEveryFailureStreak) {
  // p = 1.0 wants to fail every call; the transience bound forces a success
  // after each streak of two, so the observed pattern is fail,fail,ok,...
  FaultConfig config;
  config.open_fail = 1.0;
  config.max_consecutive = 2;
  FaultyIo faulty(config);

  const std::string path = Path("data.txt");
  ASSERT_TRUE(DefaultIo().WriteFile(path, "payload"));
  int streak = 0;
  for (int i = 0; i < 30; ++i) {
    if (faulty.ReadFile(path).has_value()) {
      EXPECT_EQ(streak, 2) << "success arrived off-schedule at call " << i;
      streak = 0;
    } else {
      ++streak;
      ASSERT_LE(streak, 2) << "streak exceeded the transience bound";
    }
  }
  EXPECT_EQ(faulty.Stats().Count(Fault::kOpenFail), 20u);
}

TEST_F(IoFaultsTest, PersistentConfigurationNeverRecovers) {
  FaultConfig config;
  config.open_fail = 1.0;
  config.max_consecutive = 0;  // persistent: the fatal-path configuration
  FaultyIo faulty(config);
  const std::string path = Path("data.txt");
  ASSERT_TRUE(DefaultIo().WriteFile(path, "payload"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(faulty.ReadFile(path).has_value());
  }
}

TEST_F(IoFaultsTest, ShortReadDeliversStrictPrefix) {
  FaultConfig config;
  config.read_short = 1.0;
  config.max_consecutive = 0;
  FaultyIo faulty(config);
  const std::string path = Path("data.txt");
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE(DefaultIo().WriteFile(path, payload));

  const auto bytes = faulty.ReadFile(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_LT(bytes->size(), payload.size());
  EXPECT_EQ(*bytes, payload.substr(0, bytes->size()));
  EXPECT_GE(faulty.Stats().Count(Fault::kShortRead), 1u);
}

TEST_F(IoFaultsTest, TornWriteLeavesStrictPrefixOnDiskAndFails) {
  FaultConfig config;
  config.write_torn = 1.0;
  config.max_consecutive = 0;
  FaultyIo faulty(config);
  const std::string path = Path("data.txt");
  const std::string payload = "0123456789abcdef0123456789abcdef";

  EXPECT_FALSE(faulty.WriteFile(path, payload));
  const auto on_disk = DefaultIo().ReadFile(path);
  ASSERT_TRUE(on_disk.has_value());  // the torn prefix IS left behind
  EXPECT_LT(on_disk->size(), payload.size());
  EXPECT_EQ(*on_disk, payload.substr(0, on_disk->size()));
}

TEST_F(IoFaultsTest, PathFilterScopesFaultsToMatchingPaths) {
  FaultConfig config;
  config.open_fail = 1.0;
  config.max_consecutive = 0;
  config.path_filter = "het_events";
  FaultyIo faulty(config);

  const std::string healthy = Path("memory_errors.tsv");
  const std::string sick = Path("het_events.tsv");
  ASSERT_TRUE(DefaultIo().WriteFile(healthy, "a"));
  ASSERT_TRUE(DefaultIo().WriteFile(sick, "b"));

  EXPECT_TRUE(faulty.ReadFile(healthy).has_value());
  EXPECT_FALSE(faulty.ReadFile(sick).has_value());
  EXPECT_TRUE(faulty.MapFile(healthy).has_value());
  EXPECT_FALSE(faulty.MapFile(sick).has_value());
}

TEST_F(IoFaultsTest, SameSeedSameDecisionSequence) {
  const std::string path = Path("data.txt");
  ASSERT_TRUE(DefaultIo().WriteFile(path, "payload"));

  const auto run = [&](std::uint64_t seed) {
    FaultConfig config;
    config.seed = seed;
    config.open_fail = 0.4;
    config.max_consecutive = 3;
    FaultyIo faulty(config);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += faulty.ReadFile(path).has_value() ? 'o' : 'x';
    }
    return pattern;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST_F(IoFaultsTest, FaultNamesAreDistinct) {
  for (int a = 0; a < kFaultKindCount; ++a) {
    EXPECT_FALSE(FaultName(static_cast<Fault>(a)).empty());
    for (int b = a + 1; b < kFaultKindCount; ++b) {
      EXPECT_NE(FaultName(static_cast<Fault>(a)),
                FaultName(static_cast<Fault>(b)));
    }
  }
}

}  // namespace
}  // namespace astra::io

#include "util/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace ms::util {
namespace {

/// Redirects stderr to a temp file for the duration of one scope so tests
/// can assert on what log_message actually wrote. The file name carries the
/// process id: a parallel ctest runs each test as its own process, and a
/// shared name would let them truncate and delete each other's capture.
class StderrCapture {
 public:
  StderrCapture() {
    path_ = ::testing::TempDir() + "ms_log_capture_" + std::to_string(getpid()) + ".txt";
    std::fflush(stderr);
    saved_fd_ = dup(fileno(stderr));
    FILE* file = std::freopen(path_.c_str(), "w", stderr);
    EXPECT_NE(file, nullptr);
  }
  ~StderrCapture() {
    restore();
    std::remove(path_.c_str());
  }
  std::string take() {
    restore();
    std::ifstream in(path_);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

 private:
  void restore() {
    if (saved_fd_ < 0) return;
    std::fflush(stderr);
    dup2(saved_fd_, fileno(stderr));
    close(saved_fd_);
    saved_fd_ = -1;
  }
  std::string path_;
  int saved_fd_ = -1;
};

TEST(Log, LevelRoundTrip) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(log_level(), LogLevel::Warn);
  set_log_level(original);
}

TEST(Log, ParseKnownNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
}

TEST(Log, ParseUnknownFallsBackToInfo) {
  EXPECT_EQ(parse_log_level("verbose"), LogLevel::Info);
  EXPECT_EQ(parse_log_level(""), LogLevel::Info);
}

TEST(Log, ParseReportsValidityThroughOkOutParam) {
  bool ok = false;
  EXPECT_EQ(parse_log_level("debug", &ok), LogLevel::Debug);
  EXPECT_TRUE(ok);
  ok = true;
  EXPECT_EQ(parse_log_level("verbose", &ok), LogLevel::Info);
  EXPECT_FALSE(ok);
}

TEST(Log, EnvOverrideAppliesValidLevelsOnly) {
  const LogLevel original = log_level();

  ASSERT_EQ(unsetenv("MS_LOG_LEVEL"), 0);
  EXPECT_FALSE(apply_env_log_level());
  EXPECT_EQ(log_level(), original);

  ASSERT_EQ(setenv("MS_LOG_LEVEL", "error", 1), 0);
  EXPECT_TRUE(apply_env_log_level());
  EXPECT_EQ(log_level(), LogLevel::Error);

  set_log_level(LogLevel::Warn);
  ASSERT_EQ(setenv("MS_LOG_LEVEL", "not-a-level", 1), 0);
  EXPECT_FALSE(apply_env_log_level());  // warns, leaves the level untouched
  EXPECT_EQ(log_level(), LogLevel::Warn);

  ASSERT_EQ(unsetenv("MS_LOG_LEVEL"), 0);
  set_log_level(original);
}

TEST(Log, SuppressedMessageDoesNotCrash) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Off);
  MS_LOG_ERROR("suppressed %d", 42);
  set_log_level(original);
}

TEST(Log, MessageCarriesLevelTagFileAndBody) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Info);
  std::string output;
  {
    StderrCapture capture;
    MS_LOG_INFO("assembled %d dofs", 1234);
    output = capture.take();
  }
  set_log_level(original);
  EXPECT_NE(output.find("[INFO test_log.cpp:"), std::string::npos) << output;
  EXPECT_NE(output.find("assembled 1234 dofs"), std::string::npos) << output;
  EXPECT_EQ(output.back(), '\n');
}

TEST(Log, OversizedMessagesTruncateToOneMarkedLine) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Info);
  const std::string huge(4096, 'y');
  std::string output;
  {
    StderrCapture capture;
    MS_LOG_INFO("%s", huge.c_str());
    output = capture.take();
  }
  set_log_level(original);
  ASSERT_FALSE(output.empty());
  EXPECT_EQ(output.size(), 1023u);  // formatting buffer bound, incl. newline
  // Exactly one line, ending in the truncation marker.
  EXPECT_EQ(output.find('\n'), output.size() - 1);
  EXPECT_EQ(output.substr(output.size() - 4), "...\n");
}

TEST(Log, ConcurrentWritersNeverInterleaveMidLine) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Info);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::string output;
  {
    StderrCapture capture;
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([t] {
        for (int i = 0; i < kPerThread; ++i) {
          MS_LOG_INFO("writer=%d iteration=%d tail", t, i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    output = capture.take();
  }
  set_log_level(original);

  // Each message lands as one atomic write: every captured line is complete
  // (prefix + body + "tail"), and all kThreads * kPerThread lines arrive.
  std::stringstream stream(output);
  std::string line;
  int lines = 0;
  while (std::getline(stream, line)) {
    ++lines;
    EXPECT_EQ(line.find("[INFO"), 0u) << line;
    EXPECT_NE(line.find("writer="), std::string::npos) << line;
    EXPECT_EQ(line.substr(line.size() - 4), "tail") << line;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
}

}  // namespace
}  // namespace ms::util

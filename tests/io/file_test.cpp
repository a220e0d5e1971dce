// io::atomicWriteFile under concurrent writers: two processes writing one
// path at once must both succeed, and the file must end up holding one of
// the writers' contents whole.
#include "io/file.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "re/types.hpp"

namespace relb::io {
namespace {

namespace fs = std::filesystem;

// Forks a child that waits for the pipe `go` to close, then writes `path`
// `rounds` times; it exits 0 if every write succeeded.
pid_t forkWriter(const int (&go)[2], const fs::path& path,
                 const std::string& content, int rounds) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::close(go[1]);
  char byte;
  (void)::read(go[0], &byte, 1);  // returns once the parent closes its end
  int status = 0;
  for (int i = 0; i < rounds; ++i) {
    try {
      atomicWriteFile(path, content);
    } catch (const re::Error&) {
      status = 1;
    }
  }
  ::_exit(status);
}

TEST(AtomicWriteFile, TwoProcessesWritingOnePathBothSucceed) {
  const fs::path dir = fs::path(testing::TempDir()) / "io-two-writers";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "FORMAT";
  const std::string first(4096, 'a');
  const std::string second(4096, 'b');
  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  const pid_t a = forkWriter(go, path, first, 300);
  const pid_t b = forkWriter(go, path, second, 300);
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);
  ::close(go[0]);
  ::close(go[1]);  // both writers start now
  for (const pid_t pid : {a, b}) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a writer failed: its temp file was the other's";
  }
  const auto bytes = readFile(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(*bytes == first || *bytes == second);
  // Every temp file was renamed into place.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
}

}  // namespace
}  // namespace relb::io

// A live `hobbit_serve --mmap` process while its snapshot file is
// re-exported underneath it: the mapped snapshot keeps answering with the
// old bytes until RELOAD publishes the new epoch.  The binaries under test
// are the build's own hobbit_serve and hobbit_sim (HOBBIT_SERVE_BIN and
// HOBBIT_SIM_BIN).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "serve/service.h"
#include "serve/snapshot.h"

extern char** environ;

namespace hobbit::serve {
namespace {

/// One hobbit_serve child on pipes: commands go to its stdin, replies
/// come back line by line from its stdout.
class ServeProcess {
 public:
  explicit ServeProcess(std::vector<std::string> args) {
    int in[2], out[2];
    EXPECT_EQ(::pipe2(in, O_CLOEXEC), 0);
    EXPECT_EQ(::pipe2(out, O_CLOEXEC), 0);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    spawned_ = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                           environ) == 0;
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
  }

  ~ServeProcess() {
    Wait();
    ::close(from_child_);
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  bool spawned() const { return spawned_; }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    EXPECT_EQ(::write(to_child_, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  /// The next reply line, with its '\n'; empty on EOF or after 30 s of
  /// silence, so a wedged server fails the test instead of hanging it.
  std::string ReadLine() {
    std::string line;
    char c = 0;
    while (line.empty() || line.back() != '\n') {
      pollfd ready{from_child_, POLLIN, 0};
      if (::poll(&ready, 1, 30'000) != 1) return {};
      if (::read(from_child_, &c, 1) != 1) return {};
      line.push_back(c);
    }
    return line;
  }

  /// Closes the child's stdin and reaps it; returns its exit status, or
  /// -1 if it did not exit normally.
  int Wait() {
    if (to_child_ >= 0) {
      ::close(to_child_);
      to_child_ = -1;
    }
    if (spawned_ && status_ < 0) {
      int status = 0;
      if (::waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status)) {
        status_ = WEXITSTATUS(status);
      } else {
        status_ = -1;
        spawned_ = false;
      }
    }
    return status_;
  }

 private:
  pid_t pid_ = -1;
  bool spawned_ = false;
  int status_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

/// `hobbit_sim export-snapshot` of a fresh tiny campaign, written to `path`
/// the way the tool always writes (a temporary file renamed over it).
void Export(const std::string& path, int seed, int epoch) {
  const std::string command = std::string(HOBBIT_SIM_BIN) +
                              " export-snapshot --scale 0.02 --seed " +
                              std::to_string(seed) + " --epoch " +
                              std::to_string(epoch) + " --out " + path +
                              " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
}

/// What a fresh in-process LineService over `path` replies to `lines`.
std::vector<std::string> ExpectedReplies(
    const std::string& path, const std::vector<std::string>& lines) {
  SnapshotStore store;
  ServeMetrics metrics;
  std::string error;
  EXPECT_TRUE(store.ReloadFromFile(path, &error)) << error;
  LineService service(&store, &metrics);
  std::vector<std::string> replies;
  for (const std::string& line : lines) {
    service.Execute(line, {}, &replies.emplace_back());
  }
  return replies;
}

std::vector<std::string> Ask(ServeProcess& server,
                             const std::vector<std::string>& lines) {
  for (const std::string& line : lines) server.Send(line);
  std::vector<std::string> replies;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    replies.push_back(server.ReadLine());
  }
  return replies;
}

TEST(ServeLifecycle, ReexportUnderALiveMappedServerKeepsOldRepliesUntilReload) {
  // A dead child must fail the test, not kill it on a write.
  const auto previous_sigpipe = std::signal(SIGPIPE, SIG_IGN);
  const std::string path = ::testing::TempDir() + "serve_lifecycle.snap";
  ASSERT_NO_FATAL_FAILURE(Export(path, /*seed=*/5, /*epoch=*/1));
  std::string error;
  const auto first = Snapshot::FromFile(path, &error);
  ASSERT_TRUE(first.has_value()) << error;
  ASSERT_GT(first->entry_count(), 0u);
  // One exact hit and one covering query over every mapped entry.
  const std::vector<std::string> lookups = {
      "LOOKUP " + first->EntryPrefix(0).ToString(), "LOOKUP 0.0.0.0/0"};
  const std::vector<std::string> old_replies = ExpectedReplies(path, lookups);

  ServeProcess server(
      {HOBBIT_SERVE_BIN, "--snapshot", path, "--mmap", "--threads", "1"});
  ASSERT_TRUE(server.spawned());
  // The first reply proves the file is mapped before it is replaced.
  ASSERT_EQ(Ask(server, lookups), old_replies);

  ASSERT_NO_FATAL_FAILURE(Export(path, /*seed=*/6, /*epoch=*/2));
  const std::vector<std::string> new_replies = ExpectedReplies(path, lookups);
  ASSERT_NE(new_replies, old_replies);
  EXPECT_EQ(Ask(server, lookups), old_replies);

  const std::string reload = Ask(server, {"RELOAD " + path})[0];
  EXPECT_EQ(reload.rfind("OK generation=2 ", 0), 0u) << reload;
  EXPECT_NE(reload.find(" epoch=2\n"), std::string::npos) << reload;
  EXPECT_EQ(Ask(server, lookups), new_replies);

  EXPECT_EQ(Ask(server, {"QUIT"})[0], "BYE\n");
  EXPECT_EQ(server.Wait(), 0);
  std::remove(path.c_str());
  std::signal(SIGPIPE, previous_sigpipe);
}

}  // namespace
}  // namespace hobbit::serve

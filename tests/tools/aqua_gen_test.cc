// The aqua_gen binary's exit codes: --help prints the usage on stdout and
// exits 0, as aqua_cli's does; a usage mistake still prints it on stderr
// and exits 2.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct GenRun {
  int exit_code = -1;
  std::string out;  // stdout only
};

GenRun RunGen(const std::string& args) {
  GenRun run;
  const std::string command =
      std::string(AQUA_GEN_PATH) + " " + args + " 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    run.out.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(AquaGenTest, HelpPrintsUsageAndExitsZero) {
  for (const char* flag : {"--help", "-h"}) {
    const GenRun run = RunGen(flag);
    EXPECT_EQ(run.exit_code, 0) << flag;
    EXPECT_EQ(run.out.rfind("usage: ", 0), 0u) << run.out;
    EXPECT_NE(run.out.find("--workload"), std::string::npos) << run.out;
  }
}

TEST(AquaGenTest, UnknownFlagIsAUsageError) {
  const GenRun run = RunGen("--bogus");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_TRUE(run.out.empty()) << run.out;  // the usage went to stderr
}

}  // namespace

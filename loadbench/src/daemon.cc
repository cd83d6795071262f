#include "daemon.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "http_client.h"

namespace loadbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Asks the kernel for a free loopback port. Another process could take it
/// before aquad binds; Start() then fails with aquad's startup error.
aqua::Result<int> FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return aqua::Status::Unavailable("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok =
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  close(fd);
  if (!ok) return aqua::Status::Unavailable("no free loopback port");
  return static_cast<int>(ntohs(addr.sin_port));
}

/// Waits up to `timeout` for `pid` to exit; returns its wait status, or -1
/// if it is still running.
int WaitFor(pid_t pid, std::chrono::milliseconds timeout) {
  const auto until = Clock::now() + timeout;
  while (true) {
    int status = 0;
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return 0;  // already reaped
    if (Clock::now() >= until) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

aqua::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const DaemonConfig& config) {
  AQUA_ASSIGN_OR_RETURN(const int port, FreePort());
  const std::string port_arg = std::to_string(port);
  const std::string threads_arg = std::to_string(config.threads);
  std::vector<std::string> args = {
      config.binary,  "--data",    config.csv_path, "--schema",
      config.schema_spec, "--mapping", config.mapping_path, "--port",
      port_arg,       "--threads", threads_arg};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto spawned = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return aqua::Status::Unavailable("fork failed");
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    const int log = open(config.log_path.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, port));

  const std::string healthz =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  const auto give_up = spawned + std::chrono::seconds(120);
  while (true) {
    aqua::Result<HttpReply> reply = Exchange(port, healthz, 5000);
    if (reply.ok() && reply->status == 200) break;
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return aqua::Status::Unavailable(
          "aquad exited during startup (status " + std::to_string(status) +
          "); see " + config.log_path);
    }
    if (Clock::now() > give_up) {
      return aqua::Status::DeadlineExceeded("aquad did not become healthy");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  daemon->setup_s_ =
      std::chrono::duration<double>(Clock::now() - spawned).count();
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  (void)WaitFor(pid_, std::chrono::seconds(10));
}

aqua::Result<double> Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return aqua::Status::Unavailable("no VmHWM for aquad");
}

aqua::Status Daemon::Stop() {
  if (pid_ <= 0) return aqua::Status::OK();
  kill(pid_, SIGTERM);
  int status = WaitFor(pid_, std::chrono::seconds(15));
  if (status == -1) {
    kill(pid_, SIGKILL);
    status = WaitFor(pid_, std::chrono::seconds(10));
    pid_ = -1;
    return aqua::Status::DeadlineExceeded("aquad ignored SIGTERM");
  }
  pid_ = -1;
  // aquad answers /healthz a moment before it installs its drain handler;
  // a SIGTERM in that window ends it by the default action, with nothing
  // in flight. That is as clean as a drain.
  const bool clean = (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
                     (WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM);
  if (!clean) {
    return aqua::Status::Internal("aquad did not drain cleanly (status " +
                                  std::to_string(status) + ")");
  }
  return aqua::Status::OK();
}

}  // namespace loadbench

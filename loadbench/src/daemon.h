#ifndef LOADBENCH_DAEMON_H_
#define LOADBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>

#include "aqua/common/result.h"

namespace loadbench {

struct DaemonConfig {
  std::string binary;  // the aquad executable
  std::string csv_path;
  std::string mapping_path;
  std::string schema_spec;
  std::string log_path;  // aquad's stdout and stderr
  int threads = 2;
};

/// One aquad process on a free loopback port. Start() returns once
/// /healthz answers 200; the destructor stops the process and waits for it.
class Daemon {
 public:
  static aqua::Result<std::unique_ptr<Daemon>> Start(
      const DaemonConfig& config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// Seconds from spawn to the first 200 from /healthz: the CSV and
  /// p-mapping load plus the bind.
  double setup_s() const { return setup_s_; }

  /// aquad's peak resident set (VmHWM), in MiB.
  aqua::Result<double> PeakRssMb() const;

  /// Sends SIGTERM and waits; fails unless aquad drained cleanly (exit 0).
  aqua::Status Stop();

 private:
  Daemon(pid_t pid, int port) : pid_(pid), port_(port) {}

  pid_t pid_;
  int port_;
  double setup_s_ = 0;
};

}  // namespace loadbench

#endif  // LOADBENCH_DAEMON_H_

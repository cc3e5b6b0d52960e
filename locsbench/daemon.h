// Process and socket plumbing for the serving workloads: a spawned
// locsd, loopback TCP connections to it, and the STATS line.

#ifndef LOCSBENCH_DAEMON_H_
#define LOCSBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace locsbench {

/// A locsd child process serving loopback TCP. The destructor stops it
/// and reaps it, so no run leaves a daemon behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `locsd --port=0` with `flags` appended; waits for its port
  /// file. False with `*error` set when it does not come up.
  bool Start(const std::string& locsd, const std::string& work_dir,
             const std::vector<std::string>& flags, std::string* error);

  /// SIGTERM, a bounded wait for the drain, SIGKILL after it; reaps.
  /// Returns the exit status as waitpid reports it (-1 if not running).
  int Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// utime + stime of the daemon in microseconds (from /proc).
  double CpuMicros() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// A blocking line-oriented loopback TCP connection.
class Connection {
 public:
  Connection() = default;
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(uint16_t port, std::string* error);
  int fd() const { return fd_; }

  /// Writes `line` plus a newline, all of it. False on failure.
  bool Send(std::string_view line);

  /// Blocks for the next reply line (newline stripped). False on EOF or
  /// error.
  bool ReadLine(std::string* line);

  /// Send + ReadLine; empty string on failure.
  std::string Request(std::string_view line);

  /// Non-blocking: reads what the socket holds into the buffer. False
  /// on EOF or error.
  bool Pull();

  /// Pops one complete buffered line; false when none is complete.
  bool PopLine(std::string* line);

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

/// Parses the numeric `key=value` fields of a STATS reply.
std::map<std::string, double> ParseStats(const std::string& line);

/// Runs `argv` to completion with output appended to `log_path`;
/// returns its exit code (-1 when it could not start or was killed).
int RunProcess(const std::vector<std::string>& argv,
               const std::string& log_path);

}  // namespace locsbench

#endif  // LOCSBENCH_DAEMON_H_

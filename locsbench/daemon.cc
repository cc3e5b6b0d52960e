#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

extern char** environ;

namespace locsbench {

namespace {

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// waitpid with a deadline; true once reaped (status in *status).
bool WaitFor(pid_t pid, double seconds, int* status) {
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (true) {
    const pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (NowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

bool Daemon::Start(const std::string& locsd, const std::string& work_dir,
                   const std::vector<std::string>& flags,
                   std::string* error) {
  static int counter = 0;
  const std::string port_file =
      work_dir + "/locsd.port." + std::to_string(++counter);
  std::remove(port_file.c_str());
  std::vector<std::string> argv = {locsd, "--port=0",
                                   "--port-file=" + port_file};
  argv.insert(argv.end(), flags.begin(), flags.end());
  pid_ = Spawn(argv, work_dir + "/locsd.log");
  if (pid_ < 0) {
    *error = "cannot spawn " + locsd;
    return false;
  }
  const uint64_t deadline = NowNs() + 30'000'000'000ull;
  while (NowNs() < deadline) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) {
      port_ = static_cast<uint16_t>(port);
      return true;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "locsd exited during start-up (see locsd.log)";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "locsd wrote no port file within 30 s";
  Stop();
  return false;
}

int Daemon::Stop() {
  if (pid_ < 0) return -1;
  int status = 0;
  kill(pid_, SIGTERM);
  if (!WaitFor(pid_, 20.0, &status)) {
    kill(pid_, SIGKILL);
    WaitFor(pid_, 20.0, &status);
    status = -1;
  }
  pid_ = -1;
  return status;
}

double Daemon::CpuMicros() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  pos_ = 0;
}

bool Connection::Connect(uint16_t port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Connection::Send(std::string_view line) {
  std::string data(line);
  data += '\n';
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + done, data.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::this_thread::yield();
      continue;
    }
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::Pull() {
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
}

bool Connection::PopLine(std::string* line) {
  const size_t nl = buffer_.find('\n', pos_);
  if (nl == std::string::npos) {
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    return false;
  }
  line->assign(buffer_, pos_, nl - pos_);
  pos_ = nl + 1;
  return true;
}

bool Connection::ReadLine(std::string* line) {
  while (!PopLine(line)) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

std::string Connection::Request(std::string_view line) {
  std::string reply;
  if (!Send(line) || !ReadLine(&reply)) return {};
  return reply;
}

std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    char* end = nullptr;
    const double value = std::strtod(token.c_str() + eq + 1, &end);
    if (end != nullptr && *end == '\0') out[token.substr(0, eq)] = value;
  }
  return out;
}

int RunProcess(const std::vector<std::string>& argv,
               const std::string& log_path) {
  const pid_t pid = Spawn(argv, log_path);
  if (pid < 0) return -1;
  int status = 0;
  if (!WaitFor(pid, 120.0, &status)) {
    kill(pid, SIGKILL);
    WaitFor(pid, 20.0, &status);
    return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace locsbench

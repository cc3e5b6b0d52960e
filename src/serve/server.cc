#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "serve/transport.h"

namespace locs::serve {

namespace {

/// locsd replies over pipes and sockets whose peer may vanish at any
/// moment; a failed write must surface as a bool, not a SIGPIPE kill.
void IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

bool WritePortFile(const std::string& path, uint16_t port) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fprintf(file, "%u\n", unsigned{port}) > 0;
  return (std::fclose(file) == 0) && ok;
}

}  // namespace

CommunityServer::CommunityServer(const ServerOptions& options)
    : options_(options),
      registry_(options.max_graphs),
      admission_(options.admission),
      cache_(options.cache_entries) {}

bool CommunityServer::Preload(std::string* error) {
  for (const auto& [name, path] : options_.preload) {
    IoError io_error;
    bool full = false;
    if (registry_.Load(name, path, &io_error, &full) == nullptr) {
      if (error != nullptr) {
        *error = full ? "registry full while preloading '" + name + "'"
                      : "preload '" + name + "' from '" + path + "': " +
                            io_error.message;
      }
      return false;
    }
  }
  return true;
}

SessionOptions CommunityServer::MakeSessionOptions() {
  SessionOptions session = options_.session;
  session.stop = &stop_;
  session.cache = options_.cache_entries != 0 ? &cache_ : nullptr;
  return session;
}

FdTransportOptions CommunityServer::MakeTransportOptions() {
  FdTransportOptions transport;
  transport.io_timeout_ms = options_.io_timeout_ms;
  transport.idle_timeout_ms = options_.idle_timeout_ms;
  transport.stop = &stop_;
  return transport;
}

int CommunityServer::RunStdioSession() {
  IgnoreSigpipe();
  // The stop-observing transport makes SIGTERM prompt even while the
  // session is parked in a blocked read on a silent peer.
  FdTransport transport(STDIN_FILENO, STDOUT_FILENO, /*owns_fds=*/false,
                        MakeTransportOptions());
  Session session(transport, registry_, admission_, metrics_,
                  MakeSessionOptions());
  session.Run();
  return 0;
}

std::string CommunityServer::FinalStatsLine() {
  const AdmissionController::Counts counts = admission_.Snapshot();
  return metrics_.Snapshot().RenderStatsLine(counts.inflight,
                                             counts.queued,
                                             registry_.size());
}

TcpServer::TcpServer(CommunityServer& shared, Executor& executor,
                     const ServerOptions& options)
    : shared_(shared), executor_(executor), options_(options) {}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

bool TcpServer::Start(std::string* error) {
  IgnoreSigpipe();
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    return false;
  };
  if (::pipe(stop_pipe_) != 0) return fail("pipe");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (!options_.port_file.empty() &&
      !WritePortFile(options_.port_file, port_)) {
    return fail("port-file write");
  }
  return true;
}

void TcpServer::Run() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // Stop() requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<sockaddr*>(&peer_addr), &peer_len);
    if (fd < 0) continue;  // transient (EINTR, peer reset in backlog)
    // Replies are one short line each: without TCP_NODELAY, Nagle holds
    // a reply written while the previous one is still unacknowledged
    // until the client's delayed ACK (~40 ms) releases it.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    const uint32_t peer = peer_addr.sin_addr.s_addr;

    bool admitted = false;
    bool peer_capped = false;
    {
      MutexLock lock(mutex_);
      if (options_.max_sessions_per_peer != 0) {
        unsigned from_peer = 0;
        for (const SessionFd& s : session_fds_) {
          if (s.peer == peer) ++from_peer;
        }
        peer_capped = from_peer >= options_.max_sessions_per_peer;
      }
      if (!peer_capped && active_sessions_ < options_.max_sessions) {
        ++active_sessions_;
        session_fds_.push_back(SessionFd{fd, peer});
        admitted = true;
      }
    }
    // Session-level fast-reject, the outer ring of admission control:
    // request-level BUSY (AdmissionController) assumes a session exists
    // to reply on; past the session cap we answer once and hang up.
    if (admitted) {
      admitted = executor_.Submit([this, fd] { HandleConnection(fd); });
      if (!admitted) {
        MutexLock lock(mutex_);
        EraseSessionFd(fd);
        --active_sessions_;
      }
    }
    if (!admitted) {
      shared_.metrics().CountRejected();
      FdTransport transport(fd, fd);
      transport.WriteLine(
          peer_capped
              ? "BUSY peer_sessions=" +
                    std::to_string(options_.max_sessions_per_peer)
              : "BUSY sessions=" + std::to_string(options_.max_sessions));
      ::close(fd);
    }
  }

  // Drain: refuse new queries, unblock parked session reads, and wait
  // for every session to finish the request it is executing.
  shared_.RequestStop();
  {
    MutexLock lock(mutex_);
    for (const SessionFd& s : session_fds_) ::shutdown(s.fd, SHUT_RD);
    while (active_sessions_ != 0) drained_cv_.Wait(lock);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void TcpServer::Stop() { StopFromSignal(); }

void TcpServer::StopFromSignal() {
  // One byte on the self-pipe; write(2) is async-signal-safe and the
  // accept loop treats any readable byte as the stop order.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

unsigned TcpServer::active_sessions() const {
  MutexLock lock(mutex_);
  return active_sessions_;
}

void TcpServer::EraseSessionFd(int fd) {
  session_fds_.erase(
      std::find_if(session_fds_.begin(), session_fds_.end(),
                   [fd](const SessionFd& s) { return s.fd == fd; }));
}

void TcpServer::HandleConnection(int fd) {
  {
    FdTransport transport(fd, fd, /*owns_fds=*/false,
                          shared_.MakeTransportOptions());
    Session session(transport, shared_.registry(), shared_.admission(),
                    shared_.metrics(), shared_.MakeSessionOptions());
    session.Run();
  }
  {
    MutexLock lock(mutex_);
    EraseSessionFd(fd);
    --active_sessions_;
    // Notify while still holding the lock: once the drain loop in Run()
    // can observe active_sessions_ == 0 the server (and this condvar) may
    // be destroyed, so the notify must complete before the unlock makes
    // that observation possible.
    drained_cv_.NotifyAll();
  }
  ::close(fd);
}

}  // namespace locs::serve

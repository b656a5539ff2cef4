#include "serve/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "noc/rng.hpp"

namespace lain::serve {

namespace {

// A connected AF_UNIX stream socket for `path`, or -1.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;  // close() may clobber the connect errno
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

// Appends up to 4 KiB from fd into `buffer`; false on EOF/error.
bool read_chunk(int fd, std::string* buffer) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buffer->append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

// Pops the first complete line (without '\n') from `buffer`.
bool pop_line(std::string* buffer, std::string* line) {
  const std::size_t nl = buffer->find('\n');
  if (nl == std::string::npos) return false;
  line->assign(*buffer, 0, nl);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  buffer->erase(0, nl + 1);
  return true;
}

}  // namespace

bool FrameWriter::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return false;
  std::string frame = line;
  frame += '\n';
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a vanished client must fail the write, not kill
    // the daemon with SIGPIPE.
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      dead_ = true;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool FrameWriter::dead() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

void FrameWriter::mark_dead() {
  const std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
}

SocketServer::SocketServer() = default;

SocketServer::~SocketServer() { stop(); }

void SocketServer::start(const std::string& path, LineHandler on_line,
                         CloseHandler on_close) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  on_line_ = std::move(on_line);
  on_close_ = std::move(on_close);
  path_ = path;

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale file from a crashed daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on " + path + ": " + why);
  }
  // The descriptor goes to the thread by value: stop() may reset
  // listen_fd_ before the thread first runs.
  accept_thread_ = std::thread([this, lfd = listen_fd_] { accept_loop(lfd); });
}

void SocketServer::accept_loop(int lfd) {
  while (true) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->writer = std::make_shared<FrameWriter>(fd);
    Connection* raw = conn.get();
    conn->reader = std::thread([this, raw] { reader_loop(raw); });
    connections_.push_back(std::move(conn));
  }
}

void SocketServer::reader_loop(Connection* conn) {
  std::string buffer;
  std::string line;
  while (true) {
    while (pop_line(&buffer, &line)) {
      if (!line.empty() && on_line_) on_line_(line, conn->writer);
    }
    if (!read_chunk(conn->fd, &buffer)) break;
  }
  conn->writer->mark_dead();
  if (on_close_) on_close_(conn->writer);
}

void SocketServer::stop() {
  std::vector<std::unique_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    conns.swap(connections_);
  }
  // shutdown() pops the accept loop out of accept() (close alone does
  // not on all kernels); the descriptor is closed only once the loop
  // has exited, so it cannot be reused under a pending accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::unique_ptr<Connection>& c : conns) {
    c->writer->mark_dead();
    ::shutdown(c->fd, SHUT_RDWR);
    if (c->reader.joinable()) c->reader.join();
    ::close(c->fd);
  }
  if (!path_.empty()) ::unlink(path_.c_str());
}

Client::Client(const std::string& path) : fd_(connect_unix(path)) {
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to socket " + path + ": " +
                             std::strerror(errno));
  }
}

Client::Client(const std::string& path, int retries, int backoff_ms) {
  if (retries < 0) retries = 0;
  if (backoff_ms < 1) backoff_ms = 1;
  // Jitter stream: seeded from the pid so simultaneous clients
  // (retrying against the same late daemon) desynchronize instead of
  // reconnecting in lockstep.  Deterministic per process — the lint's
  // no-wall-clock rule holds.
  noc::Rng jitter(noc::mix_seed(0x50c4e7ULL,
                                static_cast<std::uint64_t>(::getpid())));
  for (int attempt = 0;; ++attempt) {
    fd_ = connect_unix(path);
    if (fd_ >= 0) return;
    const int err = errno;
    const bool retryable = err == ECONNREFUSED || err == ENOENT;
    if (attempt >= retries || !retryable) {
      throw std::runtime_error(
          "cannot connect to socket " + path + ": " + std::strerror(err) +
          (attempt > 0
               ? " (after " + std::to_string(attempt + 1) + " attempts)"
               : ""));
    }
    // Bounded exponential backoff (cap the shift at 6 -> 64x base)
    // plus up to +50% jitter.
    const std::int64_t base =
        static_cast<std::int64_t>(backoff_ms)
        << std::min(attempt, 6);
    const std::int64_t delay =
        base + static_cast<std::int64_t>(
                   jitter.next_below(static_cast<std::uint64_t>(base) / 2 +
                                     1));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

Client::~Client() { close(); }

bool Client::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string frame = line;
  frame += '\n';
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::read_line(std::string* line) {
  if (fd_ < 0) return false;
  while (true) {
    if (pop_line(&buffer_, line)) return true;
    if (!read_chunk(fd_, &buffer_)) return false;
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace lain::serve

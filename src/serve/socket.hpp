// socket.hpp — UNIX-domain-socket transport for the sweep service.
//
// The protocol is newline-delimited JSON frames in both directions
// (see serve/proto.hpp for the frame schema), so the transport's only
// jobs are (a) whole-line framing on the read side and (b) atomic
// whole-line writes on the write side.  FrameWriter serializes every
// outgoing frame under a mutex — worker threads streaming different
// jobs to the same client never tear each other's lines, the socket
// twin of JsonlSink's contract.
//
// None of this is simulation code: the transport lives strictly on
// the host side of the telemetry boundary and never appears inside a
// LAIN_HOT_PATH extent.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lain::serve {

// Mutex-serialized whole-line writes to one connection.  Safe to call
// from any thread; after the peer disconnects (or any write error)
// the writer turns into a sink-hole and write_line returns false.
// Shared by the connection's reader and every job streaming to it, so
// it outlives the connection via shared_ptr.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  // Writes `line` + '\n' as one frame.  Returns false once dead.
  bool write_line(const std::string& line);
  bool dead() const;

  // Stops further writes (the fd itself is owned by the connection).
  void mark_dead();

 private:
  mutable std::mutex mu_;
  int fd_;
  bool dead_ = false;
};

using FrameWriterPtr = std::shared_ptr<FrameWriter>;

// Listening UNIX-domain socket: accepts connections on a background
// thread and runs one reader thread per connection.  `on_line` fires
// for every complete frame a client sends (on that connection's
// reader thread); `on_close` fires once when a connection ends, after
// its last frame.  stop() closes everything and joins all threads —
// it must not be called from a handler (handlers run on the very
// threads stop() joins).
class SocketServer {
 public:
  using LineHandler =
      std::function<void(const std::string&, const FrameWriterPtr&)>;
  using CloseHandler = std::function<void(const FrameWriterPtr&)>;

  SocketServer();
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds + listens + starts accepting.  Throws std::runtime_error on
  // bind/listen failure (stale socket files are unlinked first).
  void start(const std::string& path, LineHandler on_line,
             CloseHandler on_close);
  void stop();

  const std::string& path() const { return path_; }

 private:
  struct Connection {
    int fd = -1;
    FrameWriterPtr writer;
    std::thread reader;
  };

  void accept_loop(int lfd);
  void reader_loop(Connection* conn);

  std::string path_;
  int listen_fd_ = -1;
  LineHandler on_line_;
  CloseHandler on_close_;
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool stopping_ = false;
};

// Client side: one blocking connection for lain_submit and tests.
class Client {
 public:
  // Connects; throws std::runtime_error when the daemon is not there.
  explicit Client(const std::string& path);
  // Connects with up to `retries` re-attempts on the failures a
  // daemon that is still starting up produces (ENOENT: socket file
  // not yet bound; ECONNREFUSED: bound but not yet listening, or a
  // stale file), sleeping a jittered exponential backoff starting at
  // `backoff_ms` between attempts.  Other errnos, and exhaustion,
  // throw std::runtime_error naming the socket path.
  Client(const std::string& path, int retries, int backoff_ms);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send_line(const std::string& line);
  // Blocking whole-line read; false on EOF / connection loss.
  bool read_line(std::string* line);
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace lain::serve

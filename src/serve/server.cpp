#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace adv::serve {
namespace {

sockaddr_un make_addr(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  if (s.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + s);
  }
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

void count(const char* key) {
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter(key).add(1);
  }
}

Status to_status(ResultStatus s) {
  switch (s) {
    case ResultStatus::Ok: return Status::Ok;
    case ResultStatus::Error: return Status::Error;
    case ResultStatus::Overloaded: return Status::Overloaded;
    case ResultStatus::DeadlineExceeded: return Status::DeadlineExceeded;
  }
  return Status::Error;
}

}  // namespace

ServeDaemon::ServeDaemon(MicroBatcher::PipelineFactory factory,
                         ServeConfig cfg)
    : cfg_(std::move(cfg)), batcher_(std::move(factory), cfg_.batch) {
  if (cfg_.socket_path.empty()) {
    throw std::invalid_argument("ServeDaemon: empty socket path");
  }
}

ServeDaemon::~ServeDaemon() { stop(); }

void ServeDaemon::start() {
  if (listen_fd_ >= 0) return;
  const sockaddr_un addr = make_addr(cfg_.socket_path);
  std::filesystem::remove(cfg_.socket_path);  // stale socket from a crash
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int e = errno;
    ::close(fd);
    throw std::runtime_error("bind " + cfg_.socket_path.string() + ": " +
                             std::strerror(e));
  }
  if (::listen(fd, cfg_.listen_backlog) < 0) {
    const int e = errno;
    ::close(fd);
    throw std::runtime_error(std::string("listen: ") + std::strerror(e));
  }
  listen_fd_ = fd;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ServeDaemon::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes the blocked accept(); the fd itself stays valid (and
  // its number unreused) until the accept thread has joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain BEFORE disconnecting clients: the batcher finishes its in-flight
  // batch and sheds the queue, resolving every blocked submit().get() —
  // handlers then still hold live fds, so clients actually RECEIVE their
  // Overloaded shed responses instead of a reset connection.
  batcher_.stop();
  {
    // Now kick handler threads out of blocking reads; their fds are
    // closed by the handlers themselves on exit.
    std::lock_guard lk(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard lk(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::filesystem::remove(cfg_.socket_path);
}

void ServeDaemon::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop(), or fatal — either way, done
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    count("serve/connections");
    std::lock_guard lk(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void ServeDaemon::handle_connection(int fd) {
  std::vector<std::uint8_t> body;
  for (;;) {
    try {
      if (!read_frame(fd, kRequestMagic, cfg_.max_body_bytes, body)) {
        break;  // peer closed cleanly between requests
      }
    } catch (const ProtocolError& e) {
      // Unframeable stream: answer once (best effort) and hang up.
      count("serve/protocol_errors");
      try {
        write_frame(fd, kResponseMagic,
                    encode_error_response(MessageType::Classify, e.what()));
      } catch (...) {
      }
      break;
    } catch (...) {
      break;  // EOF mid-frame / transport error: client is gone
    }

    Request req;
    try {
      req = decode_request(body);
    } catch (const ProtocolError& e) {
      // The frame boundary was sound, only the contents were not —
      // reject this request and keep the connection.
      count("serve/frames_rejected");
      try {
        write_frame(fd, kResponseMagic,
                    encode_error_response(MessageType::Classify, e.what()));
        continue;
      } catch (...) {
        break;
      }
    }

    std::vector<std::uint8_t> resp;
    if (req.type == MessageType::Ping) {
      resp = encode_ok_response(MessageType::Ping, {});
    } else {
      const magnet::ExecMode mode =
          req.quantized ? magnet::ExecMode::Int8 : cfg_.default_mode;
      ServeResult r =
          batcher_
              .submit(std::move(req.batch), req.scheme, mode,
                      std::chrono::milliseconds(req.deadline_ms))
              .get();
      resp = r.ok ? encode_ok_response(MessageType::Classify, r.outcome)
                  : encode_status_response(MessageType::Classify,
                                           to_status(r.status), r.error);
    }
    try {
      write_frame(fd, kResponseMagic, resp);
    } catch (...) {
      break;  // client went away while we were classifying
    }
  }
  {
    // Deregister BEFORE closing so stop() never shutdown()s a recycled
    // fd number.
    std::lock_guard lk(conn_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

}  // namespace adv::serve

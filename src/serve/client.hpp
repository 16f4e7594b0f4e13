// Client side of the adv::serve protocol.
//
// ServeClient is the blocking request/response library used by
// bench/serve_bench and tests: one connection, classify()/ping() calls
// that frame a request, wait, and decode the response. Transport and
// framing failures throw typed errors (serve/protocol.hpp —
// ConnectError / TimeoutError / RemoteClosedError, all IoError;
// ProtocolError for malformed frames); an application-level rejection
// (degraded mode, shed, deadline) comes back as a ClassifyResponse with
// ok == false and a Status saying which — callers choose whether that is
// fatal.
//
// Timeouts: ClientConfig arms connect/send/recv timeouts (non-blocking
// connect + poll; SO_SNDTIMEO / SO_RCVTIMEO on the connected socket), so
// a wedged daemon surfaces as TimeoutError instead of hanging the
// caller forever. Zero disables each (the pre-timeout behaviour).
//
// Retries: opt-in via RetryPolicy (max_attempts > 1). Only failures
// that provably cost the daemon nothing are retried —
//   * ConnectError (nothing was ever sent),
//   * TimeoutError (the budget is the caller's; a late response to a
//     shed-or-slow request is discarded with the torn-down connection),
//   * a Status::Overloaded response (the daemon explicitly did no work).
// RemoteClosedError is NOT retried (the request may have executed),
// and Error / DeadlineExceeded responses are terminal by contract.
// Between attempts the client tears the connection down, sleeps a
// capped exponential backoff with DETERMINISTIC seeded jitter
// (RetryPolicy::backoff_ms is a pure function — tests assert the exact
// schedule), reconnects, and resends. Each retry bumps the
// serve/client_retries counter.
//
// RawConnection bypasses the protocol entirely — the robustness tests use
// it to feed the daemon truncated frames, garbage magics and oversize
// length prefixes, and to hang up mid-frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>

#include "serve/protocol.hpp"

namespace adv::serve {

/// Capped exponential backoff with deterministic jitter. max_attempts is
/// the TOTAL number of tries; 1 (the default) means no retries.
struct RetryPolicy {
  std::uint32_t max_attempts = 1;
  std::chrono::milliseconds base_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  /// Seeds the jitter; same (seed, attempt) -> same backoff, always.
  std::uint64_t jitter_seed = 0;

  /// Pure: backoff before retry number `attempt` (0-based — the sleep
  /// between the first failure and the second try is backoff_ms(0)).
  /// Equal-jitter shape: uniformly in [cap/2, cap] where cap doubles
  /// from base_backoff up to max_backoff.
  std::uint64_t backoff_ms(std::uint32_t attempt) const;
};

struct ClientConfig {
  /// 0 disables the respective timeout (block indefinitely).
  std::chrono::milliseconds connect_timeout{0};
  std::chrono::milliseconds send_timeout{0};
  std::chrono::milliseconds recv_timeout{0};
  RetryPolicy retry;
  std::size_t max_body_bytes = kDefaultMaxBodyBytes;
};

class ServeClient {
 public:
  /// Connects immediately; throws ConnectError (daemon absent/refusing)
  /// or TimeoutError (connect_timeout elapsed). The initial connect is
  /// NOT retried — only requests are.
  explicit ServeClient(const std::filesystem::path& socket_path,
                       ClientConfig cfg = {});
  ~ServeClient();
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&&) = delete;
  ServeClient(const ServeClient&) = delete;

  /// One classify exchange (plus retries per the policy). `rows` is a
  /// rank-4 NCHW batch (1 row is the common serving case); `deadline_ms`
  /// > 0 rides the wire and bounds the request's queue wait server-side.
  ClassifyResponse classify(const Tensor& rows, magnet::DefenseScheme scheme,
                            std::uint32_t deadline_ms = 0);

  /// Liveness probe; returns true iff the daemon answered Ok.
  bool ping();

  int fd() const { return fd_; }
  /// Retries spent by this client instance (sums across requests).
  std::uint64_t retries() const { return retries_; }

 private:
  /// One attempt: (re)connect if needed, send, receive, decode. Tears
  /// the connection down before rethrowing any transport error.
  ClassifyResponse round_trip(const std::vector<std::uint8_t>& request_body);
  /// round_trip + the retry loop described in the header comment.
  ClassifyResponse request(const std::vector<std::uint8_t>& request_body);
  void disconnect();

  std::filesystem::path path_;
  ClientConfig cfg_;
  int fd_ = -1;
  std::uint64_t retries_ = 0;
};

/// A bare connected socket for protocol-robustness tests: write any bytes,
/// read whatever comes back, hang up whenever.
class RawConnection {
 public:
  explicit RawConnection(const std::filesystem::path& socket_path);
  ~RawConnection();
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Throws IoError if the daemon already dropped the connection.
  void send_bytes(const void* data, std::size_t len);

  /// Reads up to `len` bytes; returns the count, 0 on EOF (daemon hung
  /// up). Never throws on EOF — that IS the signal under test.
  std::size_t recv_some(void* out, std::size_t len);

  /// Blocks until the daemon closes its end (returns true) or `timeout`
  /// expires (false), discarding any response bytes in between.
  bool wait_for_close(std::chrono::milliseconds timeout);

  void close();
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace adv::serve

// adv::serve wire protocol — length-prefixed frames over a stream socket.
//
// Every message is one frame:
//
//   [u32 magic][u32 version][u32 body_len][body_len bytes]
//
// Requests carry magic "ADVS", responses "ADVR"; version is 1. The body
// starts with a u8 message type. All integers and floats are host-endian
// (the daemon serves same-host clients over a unix socket; a cross-host
// deployment would pin endianness at the object-store seam instead).
//
// Classify request body:
//   u8 type=Classify, u8 scheme (a DefenseScheme, 0..3; any other value is
//   a body-level ProtocolError), u16 deadline_ms (0 = no deadline),
//   u32 dims[4] (NCHW), f32 payload[n*c*h*w]
// (deadline_ms occupies what used to be a reserved-zero u16, so pre-
// deadline encoders produce "no deadline" requests — wire-compatible.)
// Ping request body:
//   u8 type=Ping
// Response body:
//   u8 status (Ok/Error/Overloaded/DeadlineExceeded), u8 type (echo of
//   the request type), then
//   non-Ok: u32 msg_len, msg bytes
//   Ok+Classify: u32 n, u8 rejected[n], i32 predicted[n], u32 det_count,
//                per detector: u32 name_len, name, f32 threshold,
//                f32 scores[n]
//   Ok+Ping: nothing further
//
// Overload statuses are part of the wire contract (DESIGN.md §15):
//   Overloaded       — the daemon refused to queue the request (admission
//                      control) or is draining; nothing was computed and
//                      a retry later is safe and useful.
//   DeadlineExceeded — the request was admitted but its deadline_ms
//                      budget ran out before a forward pass was spent on
//                      it; retrying is pointless unless the caller has a
//                      fresh budget.
// Both are distinct from Error, which means the daemon TRIED (degraded
// mode: model-load or forward failure) — errors are not classified as
// transient and are never retried by the client's retry policy.
//
// Robustness contract (exercised by tests/serve_test.cpp):
//   * bad magic / unsupported version / body_len > max_body_bytes throw
//     ProtocolError from read_frame BEFORE any body byte is read — the
//     connection handler answers with a best-effort error frame and drops
//     the connection (framing cannot be resynchronized);
//   * a syntactically valid frame whose body fails decode_request (bad
//     type, bad scheme, dims/payload mismatch, zero or oversize batch)
//     throws ProtocolError from the decoder — the handler sends an error
//     response and KEEPS the connection (framing is intact);
//   * EOF mid-frame (client died) surfaces as IoError and the connection
//     is dropped without touching the batcher.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "magnet/pipeline.hpp"
#include "tensor/tensor.hpp"

namespace adv::serve {

inline constexpr std::uint32_t kRequestMagic = 0x41445653u;   // "ADVS"
inline constexpr std::uint32_t kResponseMagic = 0x41445652u;  // "ADVR"
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard ceiling on one frame's body. A length prefix above this is
/// rejected before any allocation or read — an adversarial 4 GiB prefix
/// cannot make the daemon allocate.
inline constexpr std::size_t kDefaultMaxBodyBytes = 64ull << 20;

/// Rows per classify request (a request IS allowed to exceed the
/// batcher's max_batch_rows — it then runs as its own oversized batch).
inline constexpr std::size_t kMaxRowsPerRequest = 4096;

enum class MessageType : std::uint8_t { Classify = 1, Ping = 2 };

enum class Status : std::uint8_t {
  Ok = 0,
  Error = 1,             // degraded mode: the daemon tried and failed
  Overloaded = 2,        // shed by admission control / drain; retryable
  DeadlineExceeded = 3,  // expired in queue; no forward pass was spent
};

const char* to_string(Status s);

/// Malformed frame or body. Header-level instances kill the connection;
/// body-level instances produce an error response.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Transport failure (EOF mid-frame, write to a dead peer). The typed
/// subclasses below let the client's retry policy distinguish transient
/// transport failures from everything else; code that doesn't care can
/// keep catching IoError.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A socket read/write/connect ran past its configured timeout
/// (SO_RCVTIMEO / SO_SNDTIMEO / ClientConfig::connect_timeout).
class TimeoutError : public IoError {
 public:
  using IoError::IoError;
};

/// connect() was refused (daemon not listening / socket file missing).
/// Always raised before any bytes were sent, so retrying is safe even
/// for non-idempotent requests.
class ConnectError : public IoError {
 public:
  using IoError::IoError;
};

/// The peer closed the connection (EOF mid-frame or between frames where
/// a response was still owed, ECONNRESET, EPIPE).
class RemoteClosedError : public IoError {
 public:
  using IoError::IoError;
};

struct Request {
  MessageType type = MessageType::Ping;
  magnet::DefenseScheme scheme = magnet::DefenseScheme::Full;
  std::uint16_t deadline_ms = 0;  // 0 = no deadline
  Tensor batch;                   // Classify only
};

struct ClassifyResponse {
  bool ok = false;
  Status status = Status::Error;
  MessageType type = MessageType::Classify;
  std::string error;               // when !ok
  magnet::DefenseOutcome outcome;  // when ok && type == Classify
};

// --- body encode/decode (pure functions over byte vectors; the framing
// --- below is the only part that touches a file descriptor) -------------

/// deadline_ms is clamped to the u16 wire field; 0 means no deadline.
std::vector<std::uint8_t> encode_classify_request(
    magnet::DefenseScheme scheme, const Tensor& batch,
    std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> encode_ping_request();
Request decode_request(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_ok_response(
    MessageType type, const magnet::DefenseOutcome& outcome);
/// Any non-Ok status (Error / Overloaded / DeadlineExceeded) + message.
std::vector<std::uint8_t> encode_status_response(MessageType type,
                                                 Status status,
                                                 const std::string& message);
/// Shorthand for encode_status_response(type, Status::Error, message).
std::vector<std::uint8_t> encode_error_response(MessageType type,
                                                const std::string& message);
ClassifyResponse decode_response(std::span<const std::uint8_t> body);

// --- framing over a socket fd -------------------------------------------

/// Reads one frame. Returns false on clean EOF at a frame boundary (peer
/// closed between requests). Throws ProtocolError on bad magic/version or
/// an oversize length prefix, IoError on EOF/error mid-frame.
bool read_frame(int fd, std::uint32_t expected_magic,
                std::size_t max_body_bytes, std::vector<std::uint8_t>& body);

/// Writes one frame (header + body). Throws IoError if the peer is gone.
/// Uses MSG_NOSIGNAL so a dead client yields EPIPE, not SIGPIPE.
void write_frame(int fd, std::uint32_t magic,
                 std::span<const std::uint8_t> body);

}  // namespace adv::serve

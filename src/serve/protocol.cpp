#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace adv::serve {
namespace {

/// Append-only byte buffer; all writes are memcpys of host-endian values.
struct ByteWriter {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void raw(const void* p, std::size_t n) {
    const std::size_t off = buf.size();
    buf.resize(off + n);
    std::memcpy(buf.data() + off, p, n);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
};

/// Bounds-checked reader over a body span; any over-read is a
/// ProtocolError ("truncated body"), never UB.
struct ByteReader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > data.size()) throw ProtocolError("truncated body");
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  float f32() { return get<float>(); }
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  void raw(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data.data() + pos, n);
    pos += n;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
  bool exhausted() const { return pos == data.size(); }
};

magnet::DefenseScheme scheme_from_u8(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(magnet::DefenseScheme::Full)) {
    throw ProtocolError("invalid defense scheme " + std::to_string(v));
  }
  return static_cast<magnet::DefenseScheme>(v);
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Error: return "error";
    case Status::Overloaded: return "overloaded";
    case Status::DeadlineExceeded: return "deadline_exceeded";
  }
  return "?";
}

std::vector<std::uint8_t> encode_classify_request(
    magnet::DefenseScheme scheme, const Tensor& batch,
    std::uint32_t deadline_ms) {
  if (batch.rank() != 4) {
    throw ProtocolError("classify request batch must be rank-4 NCHW, got " +
                        batch.shape_string());
  }
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::Classify));
  w.u8(static_cast<std::uint8_t>(scheme));
  w.u16(static_cast<std::uint16_t>(
      deadline_ms > 0xFFFFu ? 0xFFFFu : deadline_ms));
  for (std::size_t i = 0; i < 4; ++i) {
    w.u32(static_cast<std::uint32_t>(batch.dim(i)));
  }
  w.raw(batch.data(), batch.numel() * sizeof(float));
  return std::move(w.buf);
}

std::vector<std::uint8_t> encode_ping_request() {
  return {static_cast<std::uint8_t>(MessageType::Ping)};
}

Request decode_request(std::span<const std::uint8_t> body) {
  ByteReader r{body};
  Request req;
  const std::uint8_t type = r.u8();
  if (type == static_cast<std::uint8_t>(MessageType::Ping)) {
    req.type = MessageType::Ping;
    if (!r.exhausted()) throw ProtocolError("trailing bytes after ping");
    return req;
  }
  if (type != static_cast<std::uint8_t>(MessageType::Classify)) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  req.type = MessageType::Classify;
  req.scheme = scheme_from_u8(r.u8());
  req.deadline_ms = r.u16();  // formerly reserved-zero: 0 = no deadline
  std::size_t dims[4];
  std::size_t numel = 1;
  for (std::size_t& d : dims) {
    d = r.u32();
    if (d == 0) throw ProtocolError("zero dimension in classify request");
    // kDefaultMaxBodyBytes caps the frame at 64 MiB, so honest payloads
    // are < 2^24 floats; this bound just keeps the product overflow-free.
    if (d > (1u << 24) || numel > (1ull << 32) / d) {
      throw ProtocolError("classify request dims overflow");
    }
    numel *= d;
  }
  if (dims[0] > kMaxRowsPerRequest) {
    throw ProtocolError("classify request rows " + std::to_string(dims[0]) +
                        " exceed limit " + std::to_string(kMaxRowsPerRequest));
  }
  if (body.size() - r.pos != numel * sizeof(float)) {
    throw ProtocolError("payload size disagrees with dims");
  }
  std::vector<float> data(numel);
  r.raw(data.data(), numel * sizeof(float));
  req.batch = Tensor::from_data(Shape({dims[0], dims[1], dims[2], dims[3]}),
                                std::move(data));
  return req;
}

std::vector<std::uint8_t> encode_ok_response(
    MessageType type, const magnet::DefenseOutcome& outcome) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::Ok));
  w.u8(static_cast<std::uint8_t>(type));
  if (type == MessageType::Ping) return std::move(w.buf);

  const std::size_t n = outcome.predicted.size();
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w.u8(outcome.rejected[i] ? 1 : 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.i32(outcome.predicted[i]);
  }
  w.u32(static_cast<std::uint32_t>(outcome.readings.size()));
  for (const auto& reading : outcome.readings) {
    w.str(reading.name);
    w.f32(reading.threshold);
    w.raw(reading.scores.data(), reading.scores.size() * sizeof(float));
  }
  return std::move(w.buf);
}

std::vector<std::uint8_t> encode_status_response(MessageType type,
                                                 Status status,
                                                 const std::string& message) {
  if (status == Status::Ok) {
    throw ProtocolError("encode_status_response: Ok needs an outcome");
  }
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.u8(static_cast<std::uint8_t>(type));
  w.str(message);
  return std::move(w.buf);
}

std::vector<std::uint8_t> encode_error_response(MessageType type,
                                                const std::string& message) {
  return encode_status_response(type, Status::Error, message);
}

ClassifyResponse decode_response(std::span<const std::uint8_t> body) {
  ByteReader r{body};
  ClassifyResponse resp;
  const std::uint8_t status = r.u8();
  const std::uint8_t type = r.u8();
  if (type != static_cast<std::uint8_t>(MessageType::Classify) &&
      type != static_cast<std::uint8_t>(MessageType::Ping)) {
    throw ProtocolError("unknown response type " + std::to_string(type));
  }
  resp.type = static_cast<MessageType>(type);
  if (status == static_cast<std::uint8_t>(Status::Error) ||
      status == static_cast<std::uint8_t>(Status::Overloaded) ||
      status == static_cast<std::uint8_t>(Status::DeadlineExceeded)) {
    resp.ok = false;
    resp.status = static_cast<Status>(status);
    resp.error = r.str();
    return resp;
  }
  if (status != static_cast<std::uint8_t>(Status::Ok)) {
    throw ProtocolError("unknown response status " + std::to_string(status));
  }
  resp.ok = true;
  resp.status = Status::Ok;
  if (resp.type == MessageType::Ping) return resp;

  const std::uint32_t n = r.u32();
  resp.outcome.rejected.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.outcome.rejected[i] = r.u8() != 0;
  resp.outcome.predicted.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.outcome.predicted[i] = r.i32();
  const std::uint32_t dets = r.u32();
  resp.outcome.readings.resize(dets);
  for (std::uint32_t d = 0; d < dets; ++d) {
    auto& reading = resp.outcome.readings[d];
    reading.name = r.str();
    reading.threshold = r.f32();
    reading.scores.resize(n);
    r.raw(reading.scores.data(), n * sizeof(float));
  }
  if (!r.exhausted()) throw ProtocolError("trailing bytes after response");
  return resp;
}

namespace {

void read_exact(int fd, void* out, std::size_t len, bool& any_read) {
  auto* p = static_cast<std::uint8_t*>(out);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = ::recv(fd, p + got, len - got, 0);
    if (r == 0) {
      if (!any_read) {
        throw RemoteClosedError("peer closed");  // caught by read_frame
      }
      throw RemoteClosedError("EOF mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TimeoutError("recv timed out");  // SO_RCVTIMEO expired
      }
      if (errno == ECONNRESET) throw RemoteClosedError("recv: reset");
      throw IoError(std::string("recv: ") + std::strerror(errno));
    }
    any_read = true;
    got += static_cast<std::size_t>(r);
  }
}

}  // namespace

bool read_frame(int fd, std::uint32_t expected_magic,
                std::size_t max_body_bytes, std::vector<std::uint8_t>& body) {
  std::uint32_t header[3];  // magic, version, body_len
  bool any_read = false;
  try {
    read_exact(fd, header, sizeof(header), any_read);
  } catch (const RemoteClosedError&) {
    // Only a CLOSE before any bytes is a clean end-of-stream; a timeout
    // (TimeoutError is-a IoError too) must surface as itself.
    if (!any_read) return false;  // clean EOF at a frame boundary
    throw;
  }
  if (header[0] != expected_magic) {
    throw ProtocolError("bad frame magic");
  }
  if (header[1] != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(header[1]));
  }
  const std::size_t body_len = header[2];
  if (body_len > max_body_bytes) {
    throw ProtocolError("frame body " + std::to_string(body_len) +
                        " bytes exceeds limit " +
                        std::to_string(max_body_bytes));
  }
  body.resize(body_len);
  if (body_len > 0) read_exact(fd, body.data(), body_len, any_read);
  return true;
}

void write_frame(int fd, std::uint32_t magic,
                 std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame(sizeof(std::uint32_t) * 3 + body.size());
  const std::uint32_t header[3] = {
      magic, kProtocolVersion, static_cast<std::uint32_t>(body.size())};
  std::memcpy(frame.data(), header, sizeof(header));
  std::memcpy(frame.data() + sizeof(header), body.data(), body.size());
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TimeoutError("send timed out");  // SO_SNDTIMEO expired
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        throw RemoteClosedError(std::string("send: ") + std::strerror(errno));
      }
      throw IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace adv::serve

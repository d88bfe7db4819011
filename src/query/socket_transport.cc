#include "query/socket_transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace exsample {
namespace query {

namespace {

common::Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that died mid-write must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return common::Status::Internal("socket write failed");
    }
    if (n == 0) return common::Status::Internal("socket write made no progress");
    done += static_cast<size_t>(n);
  }
  return common::Status::OK();
}

common::Status ReadAll(int fd, uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, data + done, size - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return common::Status::Internal("socket read failed");
    }
    if (n == 0) return common::Status::Internal("connection closed");
    done += static_cast<size_t>(n);
  }
  return common::Status::OK();
}

/// Numeric-IPv4 (or "localhost") connect with a poll-bounded handshake.
/// Returns the connected fd in blocking mode, or -1.
int ConnectWithTimeout(const std::string& endpoint, double timeout_seconds) {
  const size_t colon = endpoint.rfind(':');
  common::Check(colon != std::string::npos && colon + 1 < endpoint.size(),
                "shard host must be host:port");
  std::string host = endpoint.substr(0, colon);
  const long port = std::strtol(endpoint.c_str() + colon + 1, nullptr, 10);
  common::Check(port > 0 && port <= 65535, "shard host has an invalid port");
  if (host.empty() || host == "localhost") host = "127.0.0.1";

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  common::Check(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "shard host must be a numeric IPv4 address or localhost");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
    if (timeout_ms < 1) timeout_ms = 1;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // Back to blocking for the reader thread.
  // The coordinator's frames are latency-sensitive and tiny; never Nagle.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

common::Status WriteFrame(int fd, common::Span<const uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) {
    return common::Status::InvalidArgument("wire frame exceeds the size bound");
  }
  uint8_t header[kFrameHeaderBytes];
  const uint32_t size = static_cast<uint32_t>(payload.size());
  header[0] = static_cast<uint8_t>(size);
  header[1] = static_cast<uint8_t>(size >> 8);
  header[2] = static_cast<uint8_t>(size >> 16);
  header[3] = static_cast<uint8_t>(size >> 24);
  const common::Status head = WriteAll(fd, header, kFrameHeaderBytes);
  if (!head.ok()) return head;
  return WriteAll(fd, payload.data(), payload.size());
}

common::Result<std::vector<uint8_t>> ReadFrame(int fd, size_t max_frame_bytes) {
  uint8_t header[kFrameHeaderBytes];
  const common::Status head = ReadAll(fd, header, kFrameHeaderBytes);
  if (!head.ok()) return head;
  const uint32_t size = static_cast<uint32_t>(header[0]) |
                        static_cast<uint32_t>(header[1]) << 8 |
                        static_cast<uint32_t>(header[2]) << 16 |
                        static_cast<uint32_t>(header[3]) << 24;
  if (size > max_frame_bytes) {
    return common::Status::InvalidArgument("wire frame exceeds the size bound");
  }
  std::vector<uint8_t> payload(size);
  if (size > 0) {
    const common::Status body = ReadAll(fd, payload.data(), size);
    if (!body.ok()) return body;
  }
  return payload;
}

// --- SocketTransport --------------------------------------------------------

SocketTransport::SocketTransport(size_t num_shards,
                                 SocketTransportOptions options)
    : options_(std::move(options)) {
  common::Check(options_.hosts.size() == num_shards,
                "socket transport needs one shard host per shard");
  conns_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    conns_.push_back(std::make_unique<Conn>());
  }
  // Connections are opened lazily (first RegisterSession/Send), so the
  // transport can be constructed before the fleet is up; readers park until
  // their shard connects.
  for (size_t s = 0; s < num_shards; ++s) {
    conns_[s]->reader =
        std::thread([this, s] { ReaderLoop(static_cast<uint32_t>(s)); });
  }
}

SocketTransport::~SocketTransport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& conn : conns_) {
      // Wake readers blocked mid-read; fds are closed after the join.
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    cv_.notify_all();
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  for (auto& conn : conns_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

bool SocketTransport::EnsureConnectedLocked(uint32_t shard,
                                            Clock::time_point now) {
  Conn& conn = *conns_[shard];
  if (conn.connected) return true;
  if (now < conn.next_attempt) return false;  // Backoff window: fail fast.
  const int fd =
      ConnectWithTimeout(options_.hosts[shard], options_.connect_timeout_seconds);
  if (fd < 0) {
    conn.backoff_seconds =
        conn.backoff_seconds <= 0.0
            ? options_.reconnect_backoff_seconds
            : std::min(conn.backoff_seconds * 2.0,
                       options_.reconnect_backoff_max_seconds);
    conn.next_attempt =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(conn.backoff_seconds));
    return false;
  }
  conn.fd = fd;
  conn.connected = true;
  ++conn.generation;
  conn.backoff_seconds = 0.0;
  conn.next_attempt = Clock::time_point::min();
  if (conn.ever_connected) {
    ++stats_.reconnects;
  } else {
    conn.ever_connected = true;
    ++stats_.connects;
  }
  // Deployment replay: a fresh connection (a restarted server) holds no
  // session state, so every live session's registration crosses before any
  // detect frame — TCP's in-order delivery makes the order a guarantee.
  for (const auto& session : live_sessions_) {
    if (!WriteFrame(fd, common::Span<const uint8_t>(session.second.data(),
                                                    session.second.size()))
             .ok()) {
      // The reader never saw this connection (we still hold the lock), so
      // close it here instead of the usual reader-owned teardown.
      conn.connected = false;
      ++conn.generation;
      ::close(conn.fd);
      conn.fd = -1;
      conn.backoff_seconds = options_.reconnect_backoff_seconds;
      conn.next_attempt =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(conn.backoff_seconds));
      return false;
    }
    ++stats_.control_messages;
    stats_.bytes_sent += session.second.size();
  }
  cv_.notify_all();  // The shard's reader picks the connection up.
  return true;
}

void SocketTransport::MarkDisconnectedLocked(uint32_t shard) {
  Conn& conn = *conns_[shard];
  if (!conn.connected) return;
  conn.connected = false;
  ++conn.generation;
  conn.pending_acks.clear();
  // Wake a reader blocked mid-read; whoever captured the fd closes it.
  ::shutdown(conn.fd, SHUT_RDWR);
  // A dropped connection is a failure signal for everything riding it:
  // synthesize kUnavailable completions now instead of waiting for each
  // batch's deadline to expire.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.shard == shard) {
      SynthesizeFailureLocked(it->first, it->second);
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  cv_.notify_all();
}

void SocketTransport::SynthesizeFailureLocked(uint64_t wire_seq,
                                              const InFlightEntry& entry) {
  DetectResponseMsg response;
  response.wire_seq = wire_seq;
  response.origin_shard = entry.origin_shard;
  response.attempt = entry.attempt;
  response.status = WireStatus::kUnavailable;
  completed_.push_back(WireCompletion{std::move(response), WireClockSeconds()});
  ++stats_.inferred_failures;
}

common::Status SocketTransport::RegisterSession(const RegisterSessionMsg& msg) {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<uint8_t> bytes = SerializeRegisterSession(msg);
  const common::Span<const uint8_t> frame(bytes.data(), bytes.size());
  live_sessions_.emplace_back(msg.session_id, bytes);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.register_ack_deadline_seconds));
  for (uint32_t s = 0; s < conns_.size(); ++s) {
    Conn& conn = *conns_[s];
    const bool was_connected = conn.connected;
    if (!EnsureConnectedLocked(s, Clock::now())) {
      // Unreachable runner: not an error — the registration replays on
      // reconnect, and an unreachable shard surfaces through the detect
      // path's failure inference, where retry/requeue can handle it.
      continue;
    }
    if (was_connected) {
      // A fresh connection already got the frame via the replay above.
      if (!WriteFrame(conn.fd, frame).ok()) {
        MarkDisconnectedLocked(s);
        continue;
      }
      ++stats_.control_messages;
      stats_.bytes_sent += bytes.size();
    }
    // Wait (bounded) for the ack so a mis-deployment fails the session
    // before any detect work is charged.
    const uint64_t generation = conn.generation;
    while (conn.connected && conn.generation == generation &&
           conn.pending_acks.find(msg.session_id) == conn.pending_acks.end()) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    const auto ack = conn.pending_acks.find(msg.session_id);
    if (ack != conn.pending_acks.end()) {
      const WireStatus status = ack->second;
      conn.pending_acks.erase(ack);
      if (status == WireStatus::kRepoMismatch) {
        return common::Status::FailedPrecondition(
            "shard server repository fingerprint mismatch (mis-deployment)");
      }
    }
  }
  return common::Status::OK();
}

void SocketTransport::UnregisterSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = live_sessions_.begin(); it != live_sessions_.end();) {
    if (it->first == session_id) {
      it = live_sessions_.erase(it);
    } else {
      ++it;
    }
  }
  UnregisterSessionMsg msg;
  msg.session_id = session_id;
  const std::vector<uint8_t> bytes = SerializeUnregisterSession(msg);
  for (uint32_t s = 0; s < conns_.size(); ++s) {
    Conn& conn = *conns_[s];
    // Fire-and-forget, connected shards only: a down server holds no state
    // once it restarts (the replay set no longer has this session).
    if (!conn.connected) continue;
    if (!WriteFrame(conn.fd, common::Span<const uint8_t>(bytes.data(),
                                                         bytes.size()))
             .ok()) {
      MarkDisconnectedLocked(s);
      continue;
    }
    ++stats_.control_messages;
    stats_.bytes_sent += bytes.size();
  }
}

common::Status SocketTransport::Send(uint32_t runner_shard,
                                     const DetectRequestMsg& request) {
  std::lock_guard<std::mutex> lock(mu_);
  common::Check(runner_shard < conns_.size(),
                "socket send addresses an unknown shard");
  ++stats_.requests;
  const Clock::time_point now = Clock::now();
  InFlightEntry entry;
  entry.shard = runner_shard;
  entry.origin_shard = request.origin_shard;
  entry.attempt = request.attempt;
  entry.deadline = now + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.request_deadline_seconds));
  if (!EnsureConnectedLocked(runner_shard, now)) {
    // Unreachable (or inside its backoff window): infer the failure now so
    // the service's retry/requeue machinery moves on immediately.
    SynthesizeFailureLocked(request.wire_seq, entry);
    cv_.notify_all();
    return common::Status::OK();
  }
  const std::vector<uint8_t> bytes = SerializeDetectRequest(request);
  if (!WriteFrame(conns_[runner_shard]->fd,
                  common::Span<const uint8_t>(bytes.data(), bytes.size()))
           .ok()) {
    MarkDisconnectedLocked(runner_shard);  // Fails whatever else rode it.
    SynthesizeFailureLocked(request.wire_seq, entry);
    cv_.notify_all();
    return common::Status::OK();
  }
  stats_.bytes_sent += bytes.size();
  inflight_[request.wire_seq] = entry;
  return common::Status::OK();
}

common::Result<WireCompletion> SocketTransport::Receive() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!completed_.empty()) {
      WireCompletion completion = std::move(completed_.front());
      completed_.pop_front();
      ++stats_.responses;
      return completion;
    }
    if (inflight_.empty()) {
      return common::Status::FailedPrecondition("no wire batch in flight");
    }
    // Deadline-based failure inference: give up on every batch whose
    // deadline passed (a server that is up but wedged produces no other
    // signal), then sleep until the next-earliest deadline or a completion.
    const Clock::time_point now = Clock::now();
    Clock::time_point earliest = Clock::time_point::max();
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->second.deadline <= now) {
        SynthesizeFailureLocked(it->first, it->second);
        it = inflight_.erase(it);
      } else {
        earliest = std::min(earliest, it->second.deadline);
        ++it;
      }
    }
    if (!completed_.empty()) continue;
    cv_.wait_until(lock, earliest);
  }
}

size_t SocketTransport::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size() + completed_.size();
}

TransportStats SocketTransport::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool SocketTransport::DispatchFrameLocked(uint32_t shard,
                                          const std::vector<uint8_t>& frame) {
  Conn& conn = *conns_[shard];
  const common::Span<const uint8_t> bytes(frame.data(), frame.size());
  const common::Result<WireKind> kind = PeekWireKind(bytes);
  if (!kind.ok()) return false;
  switch (kind.value()) {
    case WireKind::kDetectResponse: {
      common::Result<DetectResponseMsg> response = ParseDetectResponse(bytes);
      if (!response.ok()) return false;
      const auto it = inflight_.find(response.value().wire_seq);
      if (it == inflight_.end() || it->second.shard != shard ||
          it->second.attempt != response.value().attempt) {
        // The batch was already given up on (deadline inference) and a
        // retry may have superseded this attempt — the late answer is
        // dropped, never double-delivered.
        ++stats_.late_responses_dropped;
        return true;
      }
      stats_.bytes_received += frame.size();
      completed_.push_back(
          WireCompletion{std::move(response).value(), WireClockSeconds()});
      inflight_.erase(it);
      cv_.notify_all();
      return true;
    }
    case WireKind::kSessionAck: {
      common::Result<SessionAckMsg> ack = ParseSessionAck(bytes);
      if (!ack.ok()) return false;
      // Replayed registrations produce acks nobody waits for; they are
      // consumed here and forgotten when the waiter is gone.
      conn.pending_acks[ack.value().session_id] = ack.value().status;
      cv_.notify_all();
      return true;
    }
    case WireKind::kHeartbeatAck:
      return ParseHeartbeatAck(bytes).ok();
    default:
      // Request kinds arriving at the coordinator are a protocol violation.
      return false;
  }
}

void SocketTransport::ReaderLoop(uint32_t shard) {
  Conn& conn = *conns_[shard];
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (!conn.connected) {
      cv_.wait(lock);
      continue;
    }
    const int fd = conn.fd;
    const uint64_t generation = conn.generation;
    lock.unlock();
    common::Result<std::vector<uint8_t>> frame = ReadFrame(fd, kMaxFrameBytes);
    lock.lock();
    if (conn.generation != generation) {
      // Someone declared this connection dead (and may already have opened
      // a replacement) while we were blocked: the captured fd is ours to
      // close, and only ours — nobody reuses it before this close.
      ::close(fd);
      if (conn.fd == fd) conn.fd = -1;
      continue;
    }
    if (stop_) break;  // Destructor shut us down; it closes fds after join.
    if (!frame.ok() || !DispatchFrameLocked(shard, frame.value())) {
      MarkDisconnectedLocked(shard);
      ::close(fd);
      conn.fd = -1;
    }
  }
}

}  // namespace query
}  // namespace exsample

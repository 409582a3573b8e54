#include "shard/tcp_transport.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "runtime/rng.hpp"

namespace ipregel::shard {

namespace {

constexpr std::uint16_t kCoordSrc = 0xFFFF;
/// Backpressure ceiling per link: a publish against a fuller queue
/// reports "does not fit" and the worker pumps/drains like a full ring.
constexpr std::size_t kMaxQueuedBytes = 8u << 20;
/// Values are chunked so one lost frame costs one chunk, not the board.
constexpr std::size_t kValuesChunkBytes = 48u << 10;
/// Give up on one connect attempt after this long (sized for loopback).
constexpr double kConnectTimeoutSeconds = 2.0;
/// A blocking frame operation (publish with a full kernel buffer, the
/// final values flush) fails the link after this long without progress.
constexpr double kIoTimeoutSeconds = 5.0;
/// Seed of the deterministic backoff jitter (mixed with shard/peer/
/// attempt, so concurrent reconnectors do not stampede in lockstep).
constexpr std::uint64_t kBackoffJitterSeed = 0x1BAD'C0DE'5EEDULL;

[[nodiscard]] std::vector<std::uint8_t> encode_ctrl(const CtrlMsg& msg,
                                                    std::uint16_t src) {
  std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(&msg), sizeof(CtrlMsg));
  return net::encode_frame(net::FrameKind::kCtrl, src, msg.superstep, bytes);
}

[[nodiscard]] std::optional<CtrlMsg> decode_ctrl(const net::Frame& frame) {
  if (frame.payload.size() != sizeof(CtrlMsg)) {
    return std::nullopt;
  }
  CtrlMsg msg{};
  std::memcpy(&msg, frame.payload.data(), sizeof(CtrlMsg));
  return msg;
}

[[nodiscard]] double steady_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpRendezvous

TcpRendezvous::TcpRendezvous(std::size_t shards)
    : ctrl_(net::Listener::loopback()) {
  data_.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    data_.push_back(net::Listener::loopback());
  }
}

void TcpRendezvous::close_in_child_except(std::size_t me) noexcept {
  ctrl_.close();
  for (std::size_t shard = 0; shard < data_.size(); ++shard) {
    if (shard != me) {
      data_[shard].close();
    }
  }
}

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(net::Listener& data_listener,
                           std::uint16_t ctrl_port,
                           std::vector<std::uint16_t> data_ports,
                           std::size_t me, std::size_t shards,
                           std::size_t generation, const NetOptions& net,
                           std::vector<NetFault> armed)
    : listener_(data_listener),
      ctrl_port_(ctrl_port),
      data_ports_(std::move(data_ports)),
      me_(me),
      shards_(shards),
      generation_(generation),
      net_(net),
      armed_(std::move(armed)),
      links_(shards) {
  for (std::size_t peer = 0; peer < shards_; ++peer) {
    // Orientation: exactly one bidirectional connection per pair; the
    // HIGHER shard id initiates toward the lower id's listener.
    links_[peer].initiator = me_ > peer;
    links_[peer].port = data_ports_[peer];
  }
  ctrl_link_.initiator = true;
  ctrl_link_.port = ctrl_port_;
}

TcpTransport::~TcpTransport() = default;

double TcpTransport::now() noexcept { return steady_seconds(); }

double TcpTransport::backoff_delay(const Link& link, std::size_t peer) const {
  double delay = net_.backoff_initial_seconds;
  for (std::size_t i = 1; i < link.failures; ++i) {
    delay *= net_.backoff_multiplier;
    if (delay >= net_.backoff_max_seconds) {
      break;
    }
  }
  delay = std::min(delay, net_.backoff_max_seconds);
  // Deterministic jitter in [0.5, 1.0): concurrent reconnectors spread
  // out, and the same (seed, shard, peer, attempt) always waits the same.
  const std::uint64_t h = runtime::mix64(
      kBackoffJitterSeed ^ (static_cast<std::uint64_t>(me_) << 40) ^
      (static_cast<std::uint64_t>(peer) << 20) ^ link.attempts);
  const double frac =
      static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  return delay * (0.5 + 0.5 * frac);
}

void TcpTransport::on_send_op(std::size_t peer) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  const std::uint64_t op = link.send_ops++;
  const auto plane =
      is_ctrl(peer) ? NetFault::Plane::kCtrl : NetFault::Plane::kData;
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    const NetFault& fault = armed_[i];
    if (fault.plane != plane || fault.kind == NetFault::Kind::kNone ||
        fault.kind == NetFault::Kind::kShortRead || fault.at_op != op) {
      continue;
    }
    if (!is_ctrl(peer) && fault.peer != NetFault::kAnyPeer &&
        fault.peer != peer) {
      continue;
    }
    if (!fired_.insert({i, peer}).second) {
      continue;
    }
    apply_fault(peer, fault);
  }
}

void TcpTransport::on_recv_op_boundary(std::size_t peer) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  const auto plane =
      is_ctrl(peer) ? NetFault::Plane::kCtrl : NetFault::Plane::kData;
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    const NetFault& fault = armed_[i];
    if (fault.plane != plane || fault.kind != NetFault::Kind::kShortRead ||
        fault.at_op != link.recv_ops) {
      continue;
    }
    if (!is_ctrl(peer) && fault.peer != NetFault::kAnyPeer &&
        fault.peer != peer) {
      continue;
    }
    if (!fired_.insert({i, peer}).second) {
      continue;
    }
    apply_fault(peer, fault);
  }
}

void TcpTransport::apply_fault(std::size_t peer, const NetFault& fault) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  const double t = now();
  switch (fault.kind) {
    case NetFault::Kind::kNone:
      break;
    case NetFault::Kind::kShortWrite:
      link.stream.socket().inject(net::SocketFault::Kind::kShortWrite, 1);
      break;
    case NetFault::Kind::kShortRead:
      link.stream.socket().inject(net::SocketFault::Kind::kShortRead, 1);
      break;
    case NetFault::Kind::kResetMidFrame:
      link.stream.socket().inject(net::SocketFault::Kind::kResetMidWrite, 0);
      break;
    case NetFault::Kind::kDropConn:
      link.stream.socket().inject(net::SocketFault::Kind::kCloseBeforeWrite);
      break;
    case NetFault::Kind::kStall:
      link.mute_until = t + fault.seconds;
      if (link.stream.valid()) {
        link.stream.socket().inject(net::SocketFault::Kind::kMute);
      }
      break;
    case NetFault::Kind::kPartition:
      link.partition_until = t + fault.seconds;
      if (link.stream.valid()) {
        link.stream.hard_reset();
      }
      teardown(peer);
      break;
  }
}

void TcpTransport::queue_frame(std::size_t peer,
                               std::vector<std::uint8_t> encoded,
                               bool counted) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  if (counted) {
    // May inject a fault that kills the link; a lost frame is recovered
    // by the reconnect resync (data) or the control backlog (ctrl).
    on_send_op(peer);
  }
  if (link.state == Link::State::kDown ||
      link.state == Link::State::kConnecting || !link.stream.valid()) {
    return;
  }
  link.stream.queue(std::move(encoded));
  if (!link.stream.pump_writes()) {
    teardown(peer);
  }
}

void TcpTransport::start_connect(std::size_t peer, double t) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  link.connecting = net::connect_loopback(link.port);
  if (!link.connecting.valid()) {
    fail_attempt(peer, "connect refused");
    return;
  }
  link.state = Link::State::kConnecting;
  link.attempt_deadline = t + kConnectTimeoutSeconds;
}

void TcpTransport::fail_attempt(std::size_t peer, const char* why) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  link.connecting.close();
  link.stream.close();
  link.state = Link::State::kDown;
  ++link.failures;
  ++link.attempts;
  link.next_attempt = now() + backoff_delay(link, peer);
  if (is_ctrl(peer) && park_seconds_ > 0.0) {
    // Coordinator-recovery mode: the ctrl budget is TIME, not attempts —
    // the worker parks through a coordinator takeover (which can outlast
    // any attempt count) but still exits within a bounded wall-clock
    // window if no rightful coordinator ever returns.
    if (ctrl_down_since_ == 0.0) {
      ctrl_down_since_ = now();
    }
    if (now() - ctrl_down_since_ > park_seconds_) {
      orphaned_ = true;  // park window expired: bounded orphan exit
    }
    return;
  }
  if (link.failures < net_.max_reconnects_per_link) {
    return;
  }
  if (is_ctrl(peer)) {
    orphaned_ = true;  // the worker exits via ctrl_send() == false
    return;
  }
  if (halting_) {
    link.next_attempt = now() + 3600.0;  // park; only values matter now
    return;
  }
  throw PeerUnreachable(
      peer, std::string(why) + " after " + std::to_string(link.failures) +
                " consecutive attempts");
}

void TcpTransport::link_established(std::size_t peer) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  const double t = now();
  link.state = Link::State::kUp;
  link.failures = 0;
  link.attempt_deadline = 0.0;
  link.stall_check_at = 0.0;
  link.stall_check_bytes = 0;
  if (t < link.mute_until) {
    // A reconnect inside a stall window stays stalled.
    link.stream.socket().inject(net::SocketFault::Kind::kMute);
  }
  if (is_ctrl(peer)) {
    ctrl_resynced_ = true;
    ctrl_down_since_ = 0.0;  // the park clock restarts at the next outage
    // Requeue everything that must survive the connection loss; the
    // coordinator's hello/barrier replay machinery makes duplicates safe.
    if (!backlog_hello_.empty()) {
      queue_frame(peer, backlog_hello_, true);
    }
    if (!backlog_barrier_.empty()) {
      queue_frame(peer, backlog_barrier_, true);
    }
    for (const auto& frame : backlog_values_) {
      queue_frame(peer, frame, true);
    }
  } else {
    resynced_.push_back(peer);
  }
}

void TcpTransport::teardown(std::size_t peer) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  link.connecting.close();
  link.stream.close();
  link.state = Link::State::kDown;
  link.stall_check_at = 0.0;
  if (is_ctrl(peer) && park_seconds_ > 0.0 && ctrl_down_since_ == 0.0) {
    // The park window is measured from the moment the established link
    // died, not from the first failed reconnect.
    ctrl_down_since_ = now();
  }
  // An established connection's death retries immediately (first failure
  // backs off if the retry also fails) — failures counts consecutive
  // failed ATTEMPTS, not connection losses.
  link.next_attempt = now();
}

void TcpTransport::route_frames(std::size_t peer) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  for (;;) {
    on_recv_op_boundary(peer);
    std::optional<net::Frame> frame;
    try {
      frame = link.stream.poll_frame();
    } catch (const net::WireError&) {
      // Desynchronized stream: rebuild the connection, resync replays.
      teardown(peer);
      return;
    }
    if (!frame.has_value()) {
      if (link.stream.dead()) {
        teardown(peer);
      }
      return;
    }
    ++link.recv_ops;
    switch (static_cast<net::FrameKind>(frame->header.kind)) {
      case net::FrameKind::kData:
        link.inbox.push_back(std::move(*frame));
        break;
      case net::FrameKind::kCtrl: {
        if (auto msg = decode_ctrl(*frame)) {
          if (msg->kind == CtrlMsg::Kind::kProceed) {
            // The coordinator folded a barrier of ours, which proves the
            // hello (sent earlier on the same ordered stream) was
            // processed — stop replaying it on reconnect.
            backlog_hello_.clear();
          }
          ctrl_inbox_.push_back(*msg);
        }
        break;
      }
      case net::FrameKind::kHello:
      case net::FrameKind::kValues:
        break;  // duplicate handshake / not worker-bound: ignore
    }
  }
}

void TcpTransport::progress_link(std::size_t peer) {
  Link& link = is_ctrl(peer) ? ctrl_link_ : links_[peer];
  const double t = now();
  switch (link.state) {
    case Link::State::kDown: {
      if (!link.initiator || (is_ctrl(peer) && orphaned_)) {
        return;
      }
      if (t < link.next_attempt) {
        return;
      }
      if (t < link.partition_until) {
        // The partition window rejects new connects outright; each
        // rejected attempt consumes reconnect budget, so an unhealed
        // partition deterministically exhausts into PeerUnreachable.
        fail_attempt(peer, "partitioned");
        return;
      }
      start_connect(peer, t);
      return;
    }
    case Link::State::kConnecting: {
      switch (net::connect_probe(link.connecting)) {
        case net::ConnectState::kPending:
          if (t > link.attempt_deadline) {
            fail_attempt(peer, "connect timeout");
          }
          return;
        case net::ConnectState::kFailed:
          fail_attempt(peer, "connect failed");
          return;
        case net::ConnectState::kUp:
          break;
      }
      link.stream = net::FrameStream(
          net::FaultySocket(std::move(link.connecting)), kMaxDataPayload);
      link.state = Link::State::kHandshaking;
      link.attempt_deadline = t + kConnectTimeoutSeconds;
      const auto role =
          is_ctrl(peer) ? net::HelloRole::kCtrl : net::HelloRole::kData;
      // v2 hello: the newest epoch this worker has obeyed plus its pid, so
      // a takeover coordinator (which did not fork us) can fence itself
      // against us and supervise us.
      queue_frame(peer,
                  net::encode_hello(role, static_cast<std::uint16_t>(me_),
                                    generation_, coord_epoch_,
                                    static_cast<std::uint64_t>(::getpid())),
                  true);
      return;
    }
    case Link::State::kHandshaking: {
      if (link.stream.dead() || !link.stream.pump_writes()) {
        fail_attempt(peer, "handshake connection lost");
        return;
      }
      std::optional<net::Frame> frame;
      try {
        frame = link.stream.poll_frame();
      } catch (const net::WireError&) {
        fail_attempt(peer, "handshake wire error");
        return;
      }
      if (!frame.has_value()) {
        if (link.stream.dead()) {
          fail_attempt(peer, "handshake connection lost");
        } else if (t > link.attempt_deadline) {
          fail_attempt(peer, "handshake timeout");
        }
        return;
      }
      ++link.recv_ops;
      if (static_cast<net::FrameKind>(frame->header.kind) !=
          net::FrameKind::kHello) {
        fail_attempt(peer, "handshake expected hello");
        return;
      }
      try {
        const net::WireHello hello = net::decode_hello(frame->payload);
        // Data ack echoes the peer's identity; ctrl ack echoes OURS (the
        // coordinator proving it registered this incarnation).
        const std::uint16_t expect =
            static_cast<std::uint16_t>(is_ctrl(peer) ? me_ : peer);
        if (hello.shard != expect) {
          fail_attempt(peer, "handshake identity mismatch");
          return;
        }
        if (is_ctrl(peer) && park_seconds_ > 0.0) {
          if (hello.epoch < coord_epoch_) {
            // The fenced HELLO over TCP: a coordinator claiming an epoch
            // older than one already obeyed gets a typed kFenced and no
            // link. The worker keeps reconnecting (a rightful successor
            // may still appear) until the park window expires.
            CtrlMsg fenced{};
            fenced.kind = CtrlMsg::Kind::kFenced;
            fenced.shard = static_cast<std::uint32_t>(me_);
            fenced.flag = hello.epoch;
            fenced.epoch = coord_epoch_;
            link.stream.queue(
                encode_ctrl(fenced, static_cast<std::uint16_t>(me_)));
            (void)link.stream.pump_writes();
            fail_attempt(peer, "stale coordinator fenced");
            return;
          }
          coord_epoch_ = hello.epoch;
        }
      } catch (const net::WireError&) {
        fail_attempt(peer, "handshake bad hello");
        return;
      }
      link_established(peer);
      return;
    }
    case Link::State::kUp: {
      if (link.stream.dead() || !link.stream.pump_writes()) {
        teardown(peer);
        return;
      }
      // io_timeout write-progress watchdog: queued bytes that do not
      // shrink for kIoTimeoutSeconds kill the connection (a peer that
      // accepted the connect but reads nothing — e.g. mid-stall).
      if (link.stream.queued_bytes() == 0) {
        link.stall_check_at = 0.0;
      } else if (link.stall_check_at == 0.0 ||
                 link.stream.queued_bytes() < link.stall_check_bytes) {
        link.stall_check_at = t;
        link.stall_check_bytes = link.stream.queued_bytes();
      } else if (t - link.stall_check_at > kIoTimeoutSeconds) {
        teardown(peer);
        return;
      }
      route_frames(peer);
      return;
    }
  }
}

void TcpTransport::accept_new(double t) {
  if (!listener_.valid()) {
    return;
  }
  while (auto sock = listener_.accept()) {
    PendingAccept pending;
    pending.stream = net::FrameStream(net::FaultySocket(std::move(*sock)),
                                      kMaxDataPayload);
    pending.deadline = t + kConnectTimeoutSeconds;
    pending_.push_back(std::move(pending));
  }
}

void TcpTransport::identify_pending(double t) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    bool discard = false;
    bool installed = false;
    std::optional<net::Frame> frame;
    if (!it->stream.pump_writes()) {
      discard = true;
    } else {
      try {
        frame = it->stream.poll_frame();
      } catch (const net::WireError&) {
        discard = true;
      }
    }
    if (frame.has_value()) {
      std::size_t peer = shards_;
      try {
        const net::WireHello hello = net::decode_hello(frame->payload);
        if (static_cast<net::FrameKind>(frame->header.kind) ==
                net::FrameKind::kHello &&
            hello.role == static_cast<std::uint16_t>(net::HelloRole::kData) &&
            hello.shard < shards_ && hello.shard > me_) {
          peer = hello.shard;  // only HIGHER ids initiate toward us
        }
      } catch (const net::WireError&) {
      }
      if (peer == shards_) {
        it->stream.hard_reset();
        discard = true;
      } else if (t < links_[peer].partition_until) {
        it->stream.hard_reset();  // partition: refuse inbound connects
        discard = true;
      } else {
        Link& link = links_[peer];
        link.connecting.close();
        link.stream.close();
        link.stream = std::move(it->stream);
        ++link.recv_ops;  // the hello we just consumed
        link_established(peer);
        // Ack with OUR identity — the initiator validates it saw the
        // shard it dialed.
        queue_frame(peer,
                    net::encode_hello(net::HelloRole::kData,
                                      static_cast<std::uint16_t>(me_),
                                      generation_),
                    true);
        installed = true;
      }
    } else if (!discard && (it->stream.dead() || t > it->deadline)) {
      discard = true;
    }
    if (discard || installed) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpTransport::progress() {
  const double t = now();
  auto lift = [&](Link& link) {
    if (link.stream.valid() && link.stream.socket().muted() &&
        t >= link.mute_until) {
      link.stream.socket().unmute();
    }
  };
  for (Link& link : links_) {
    lift(link);
  }
  lift(ctrl_link_);
  accept_new(t);
  identify_pending(t);
  for (std::size_t peer = 0; peer < shards_; ++peer) {
    if (peer != me_) {
      progress_link(peer);
    }
  }
  if (ctrl_port_ != 0) {
    progress_link(kCtrlPeer);
  }
}

void TcpTransport::poll_fds(int timeout_ms) {
  const double t = now();
  double next_event = t + static_cast<double>(timeout_ms) / 1e3;
  std::vector<pollfd> fds;
  auto add_link = [&](Link& link) {
    switch (link.state) {
      case Link::State::kDown:
        if (link.initiator) {
          next_event = std::min(next_event, link.next_attempt);
        }
        break;
      case Link::State::kConnecting:
        fds.push_back(pollfd{link.connecting.fd(), POLLOUT, 0});
        next_event = std::min(next_event, link.attempt_deadline);
        break;
      case Link::State::kHandshaking:
      case Link::State::kUp: {
        short events = POLLIN;
        if (link.stream.queued_bytes() > 0) {
          events |= POLLOUT;
        }
        fds.push_back(pollfd{link.stream.fd(), events, 0});
        if (link.state == Link::State::kHandshaking) {
          next_event = std::min(next_event, link.attempt_deadline);
        }
        break;
      }
    }
    if (link.stream.valid() && link.stream.socket().muted()) {
      next_event = std::min(next_event, link.mute_until);
    }
  };
  for (Link& link : links_) {
    if (&link != &links_[me_]) {
      add_link(link);
    }
  }
  if (ctrl_port_ != 0) {
    add_link(ctrl_link_);
  }
  if (listener_.valid()) {
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  }
  for (const PendingAccept& pending : pending_) {
    fds.push_back(pollfd{pending.stream.fd(), POLLIN, 0});
    next_event = std::min(next_event, pending.deadline);
  }
  const double wait = std::max(0.0, next_event - t);
  const int wait_ms =
      std::min(timeout_ms, static_cast<int>(wait * 1e3) + 1);
  ::poll(fds.empty() ? nullptr : fds.data(), static_cast<nfds_t>(fds.size()),
         std::max(0, wait_ms));
}

void TcpTransport::pump(int timeout_ms) {
  progress();
  if (timeout_ms > 0) {
    poll_fds(timeout_ms);
    progress();
  }
}

bool TcpTransport::try_publish(std::size_t dst, std::uint64_t superstep,
                               std::span<const std::uint8_t> payload) {
  pump(0);
  Link& link = links_[dst];
  if (link.state != Link::State::kUp ||
      link.stream.queued_bytes() > kMaxQueuedBytes) {
    return false;
  }
  queue_frame(dst,
              net::encode_frame(net::FrameKind::kData,
                                static_cast<std::uint16_t>(me_), superstep,
                                payload),
              true);
  return true;
}

std::optional<net::Frame> TcpTransport::try_collect(std::size_t src) {
  Link& link = links_[src];
  if (link.inbox.empty()) {
    pump(0);
  }
  if (link.inbox.empty()) {
    return std::nullopt;
  }
  net::Frame frame = std::move(link.inbox.front());
  link.inbox.pop_front();
  return frame;
}

bool TcpTransport::ctrl_send(const CtrlMsg& msg) {
  pump(0);
  if (ctrl_port_ == 0) {
    return true;  // standalone data-plane mode (soak tests)
  }
  auto encoded = encode_ctrl(msg, static_cast<std::uint16_t>(me_));
  if (msg.kind == CtrlMsg::Kind::kHeartbeat) {
    // Best-effort: a heartbeat has no backlog — while the link is down
    // (or stalled) beats are simply missed, which is exactly what feeds
    // the coordinator's missed-heartbeat watchdog.
    if (ctrl_link_.state == Link::State::kUp &&
        ctrl_link_.stream.queued_bytes() < kMaxQueuedBytes) {
      queue_frame(kCtrlPeer, std::move(encoded), false);
    }
    return !orphaned_;
  }
  if (msg.kind == CtrlMsg::Kind::kHello) {
    backlog_hello_ = encoded;
  } else if (msg.kind == CtrlMsg::Kind::kBarrier) {
    backlog_barrier_ = encoded;
  }
  if (ctrl_link_.state == Link::State::kUp) {
    queue_frame(kCtrlPeer, std::move(encoded), true);
  }
  return !orphaned_;
}

std::optional<CtrlMsg> TcpTransport::ctrl_recv(int timeout_ms) {
  if (ctrl_inbox_.empty()) {
    pump(timeout_ms);
  }
  if (ctrl_inbox_.empty()) {
    return std::nullopt;
  }
  const CtrlMsg msg = ctrl_inbox_.front();
  ctrl_inbox_.pop_front();
  return msg;
}

void TcpTransport::publish_values(std::span<const std::uint8_t> bytes,
                                  std::size_t value_size,
                                  std::span<const std::size_t> slots) {
  values_bytes_.assign(bytes.begin(), bytes.end());
  values_value_size_ = value_size;
  if (values_slots_.empty()) {
    values_slots_.assign(slots.begin(), slots.end());
  }
}

bool TcpTransport::finish_values() {
  if (ctrl_port_ == 0) {
    return true;
  }
  halting_ = true;
  // Encode the final values as [u64 board_offset][u32 len][bytes] record
  // chunks, contiguous slot runs coalesced, then an empty terminator the
  // coordinator treats as "this shard's values are complete".
  backlog_values_.clear();
  std::vector<std::uint8_t> chunk;
  auto flush_chunk = [&]() {
    if (!chunk.empty()) {
      backlog_values_.push_back(net::encode_frame(
          net::FrameKind::kValues, static_cast<std::uint16_t>(me_), 0, chunk));
      chunk.clear();
    }
  };
  std::size_t li = 0;
  while (li < values_slots_.size()) {
    std::size_t run = 1;
    while (li + run < values_slots_.size() &&
           values_slots_[li + run] == values_slots_[li] + run) {
      ++run;
    }
    // Split long runs so every record fits a chunk.
    std::size_t done = 0;
    while (done < run) {
      const std::size_t max_values =
          std::max<std::size_t>(1, kValuesChunkBytes / values_value_size_);
      const std::size_t take = std::min(run - done, max_values);
      const std::uint64_t offset =
          static_cast<std::uint64_t>((values_slots_[li] + done) *
                                     values_value_size_);
      const std::uint32_t len =
          static_cast<std::uint32_t>(take * values_value_size_);
      const std::size_t base = chunk.size();
      chunk.resize(base + sizeof(offset) + sizeof(len) + len);
      std::memcpy(chunk.data() + base, &offset, sizeof(offset));
      std::memcpy(chunk.data() + base + sizeof(offset), &len, sizeof(len));
      std::memcpy(chunk.data() + base + sizeof(offset) + sizeof(len),
                  values_bytes_.data() + (li + done) * values_value_size_,
                  len);
      done += take;
      if (chunk.size() >= kValuesChunkBytes) {
        flush_chunk();
      }
    }
    li += run;
  }
  flush_chunk();
  backlog_values_.push_back(net::encode_frame(
      net::FrameKind::kValues, static_cast<std::uint16_t>(me_), 0, {}));
  if (ctrl_link_.state == Link::State::kUp) {
    for (const auto& frame : backlog_values_) {
      queue_frame(kCtrlPeer, frame, true);
    }
  }
  // Flush until every byte is handed to the kernel (loopback delivers
  // what the kernel has even after _exit closes the fd), reconnecting —
  // and requeueing via link_established — if the link drops meanwhile.
  const double deadline = now() + 2.0 * kIoTimeoutSeconds;
  while (now() < deadline) {
    pump(5);
    if (orphaned_) {
      return false;
    }
    if (ctrl_link_.state == Link::State::kUp &&
        ctrl_link_.stream.write_idle()) {
      return true;
    }
  }
  return false;
}

std::vector<std::size_t> TcpTransport::take_resync_peers() {
  std::sort(resynced_.begin(), resynced_.end());
  resynced_.erase(std::unique(resynced_.begin(), resynced_.end()),
                  resynced_.end());
  return std::exchange(resynced_, {});
}

std::unique_ptr<TcpTransport> make_tcp_transport(TcpRendezvous& rendezvous,
                                                 std::size_t me,
                                                 std::size_t generation,
                                                 const ShardOptions& options) {
  std::vector<std::uint16_t> ports;
  ports.reserve(rendezvous.shards());
  for (std::size_t shard = 0; shard < rendezvous.shards(); ++shard) {
    ports.push_back(rendezvous.data_port(shard));
  }
  std::vector<NetFault> armed;
  for (const NetFault& fault : options.net_faults) {
    if (fault.shard == me && fault.generation == generation &&
        fault.kind != NetFault::Kind::kNone) {
      armed.push_back(fault);
    }
  }
  auto transport = std::make_unique<TcpTransport>(
      rendezvous.data_listener(me), rendezvous.ctrl_port(), std::move(ports),
      me, rendezvous.shards(), generation, options.net, std::move(armed));
  if (options.recovery.enabled()) {
    transport->set_recovery(options.recovery.park_seconds, 0);
  }
  return transport;
}

// ---------------------------------------------------------------------------
// TcpCtrlPlane

TcpCtrlPlane::TcpCtrlPlane(net::Listener& listener, std::size_t shards,
                           const NetOptions& net,
                           std::vector<std::uint8_t>* board)
    : listener_(listener), net_(net), links_(shards), board_(board) {}

double TcpCtrlPlane::now() noexcept { return steady_seconds(); }

void TcpCtrlPlane::begin_incarnation(std::size_t shard, std::size_t generation,
                                     Channel* /*worker_end*/) {
  WorkerLink& link = links_[shard];
  link.stream.close();
  link.up = false;
  link.expected_generation = generation;
  link.values_done = false;
}

bool TcpCtrlPlane::send(std::size_t shard, const CtrlMsg& msg) {
  WorkerLink& link = links_[shard];
  if (!link.up || link.stream.dead()) {
    return false;
  }
  link.stream.queue(encode_ctrl(msg, kCoordSrc));
  if (!link.stream.pump_writes()) {
    link.up = false;
    link.stream.close();
    return false;
  }
  return true;
}

void TcpCtrlPlane::apply_values(std::size_t shard, const net::Frame& frame) {
  WorkerLink& link = links_[shard];
  if (frame.payload.empty()) {
    link.values_done = true;  // the terminator
    return;
  }
  if (board_ == nullptr) {
    return;
  }
  const std::uint8_t* cursor = frame.payload.data();
  std::size_t remaining = frame.payload.size();
  while (remaining >= sizeof(std::uint64_t) + sizeof(std::uint32_t)) {
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::memcpy(&offset, cursor, sizeof(offset));
    std::memcpy(&len, cursor + sizeof(offset), sizeof(len));
    cursor += sizeof(offset) + sizeof(len);
    remaining -= sizeof(offset) + sizeof(len);
    if (len > remaining || offset + len > board_->size()) {
      return;  // malformed record: drop the rest, terminator never comes
    }
    std::memcpy(board_->data() + offset, cursor, len);
    cursor += len;
    remaining -= len;
  }
}

void TcpCtrlPlane::route(std::size_t shard) {
  WorkerLink& link = links_[shard];
  if (!link.up) {
    return;
  }
  if (link.stream.dead() || !link.stream.pump_writes()) {
    link.up = false;
    link.stream.close();
    return;
  }
  for (;;) {
    std::optional<net::Frame> frame;
    try {
      frame = link.stream.poll_frame();
    } catch (const net::WireError&) {
      link.up = false;
      link.stream.close();
      return;
    }
    if (!frame.has_value()) {
      if (link.stream.dead()) {
        link.up = false;
        link.stream.close();
      }
      return;
    }
    switch (static_cast<net::FrameKind>(frame->header.kind)) {
      case net::FrameKind::kCtrl:
        if (auto msg = decode_ctrl(*frame)) {
          queue_.push_back(Event{shard, *msg});
        }
        break;
      case net::FrameKind::kValues:
        apply_values(shard, *frame);
        break;
      case net::FrameKind::kHello:
      case net::FrameKind::kData:
        break;  // duplicate handshake / misdirected: ignore
    }
  }
}

void TcpCtrlPlane::accept_and_identify(double t) {
  if (listener_.valid()) {
    while (auto sock = listener_.accept()) {
      PendingAccept pending;
      pending.stream = net::FrameStream(net::FaultySocket(std::move(*sock)),
                                        1u << 26);
      pending.deadline = t + kConnectTimeoutSeconds;
      pending_.push_back(std::move(pending));
    }
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    bool discard = false;
    bool installed = false;
    std::optional<net::Frame> frame;
    if (!it->stream.pump_writes()) {
      discard = true;
    } else {
      try {
        frame = it->stream.poll_frame();
      } catch (const net::WireError&) {
        discard = true;
      }
    }
    if (frame.has_value()) {
      std::size_t shard = links_.size();
      std::uint64_t generation = 0;
      std::uint64_t worker_epoch = 0;
      std::uint64_t worker_pid = 0;
      try {
        const net::WireHello hello = net::decode_hello(frame->payload);
        if (static_cast<net::FrameKind>(frame->header.kind) ==
                net::FrameKind::kHello &&
            hello.role == static_cast<std::uint16_t>(net::HelloRole::kCtrl) &&
            hello.shard < links_.size()) {
          shard = hello.shard;
          generation = hello.generation;
          worker_epoch = hello.epoch;
          worker_pid = hello.pid;
        }
      } catch (const net::WireError&) {
      }
      if (shard == links_.size()) {
        it->stream.hard_reset();
        discard = true;
      } else if (generation < links_[shard].expected_generation) {
        // A stale incarnation (e.g. a zombie that raced its own SIGKILL)
        // must not impersonate the respawn the supervisor registered. A
        // HIGHER generation is legitimate after a coordinator takeover —
        // the dead coordinator may have respawned the shard after its
        // last manifest publish, so the expectation is a floor, not an
        // exact match.
        it->stream.hard_reset();
        discard = true;
      } else {
        WorkerLink& link = links_[shard];
        link.expected_generation = generation;
        link.stream.close();
        link.stream = std::move(it->stream);
        link.up = true;
        // Ack echoes the WORKER's shard id ("I know who you are and I
        // expect this incarnation") and carries OUR fencing epoch — the
        // worker refuses the link if it has already obeyed a newer one.
        link.stream.queue(net::encode_hello(
            net::HelloRole::kCtrl, static_cast<std::uint16_t>(shard),
            generation, epoch_));
        if (!link.stream.pump_writes()) {
          link.up = false;
          link.stream.close();
        } else {
          // Surface the attachment as a synthetic kAdopt event: a takeover
          // coordinator learns which live incarnation (generation, pid)
          // re-bound without any worker-side protocol change. Non-takeover
          // coordinators ignore it.
          CtrlMsg adopt{};
          adopt.kind = CtrlMsg::Kind::kAdopt;
          adopt.shard = static_cast<std::uint32_t>(shard);
          adopt.flag = generation;
          adopt.sent = worker_pid;
          adopt.epoch = worker_epoch;
          queue_.push_back(Event{shard, adopt});
        }
        installed = true;
      }
    } else if (!discard && (it->stream.dead() || t > it->deadline)) {
      discard = true;
    }
    if (discard || installed) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpCtrlPlane::pump(int timeout_ms) {
  accept_and_identify(now());
  for (std::size_t shard = 0; shard < links_.size(); ++shard) {
    route(shard);
  }
  if (!queue_.empty() || timeout_ms <= 0) {
    return;
  }
  std::vector<pollfd> fds;
  if (listener_.valid()) {
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  }
  for (const WorkerLink& link : links_) {
    if (link.up && link.stream.valid()) {
      short events = POLLIN;
      if (link.stream.queued_bytes() > 0) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{link.stream.fd(), events, 0});
    }
  }
  for (const PendingAccept& pending : pending_) {
    fds.push_back(pollfd{pending.stream.fd(), POLLIN, 0});
  }
  ::poll(fds.empty() ? nullptr : fds.data(), static_cast<nfds_t>(fds.size()),
         timeout_ms);
  accept_and_identify(now());
  for (std::size_t shard = 0; shard < links_.size(); ++shard) {
    route(shard);
  }
}

std::optional<CtrlPlane::Event> TcpCtrlPlane::next(int timeout_ms) {
  if (queue_.empty()) {
    pump(timeout_ms);
  }
  if (queue_.empty()) {
    return std::nullopt;
  }
  const Event event = queue_.front();
  queue_.pop_front();
  return event;
}

void TcpCtrlPlane::drop(std::size_t shard, bool drain_values) {
  WorkerLink& link = links_[shard];
  if (drain_values && link.up && !link.stream.dead()) {
    // Halt path: the worker may still be flushing its final kValues
    // frames; drain them (bounded) before closing.
    const double deadline = now() + kIoTimeoutSeconds;
    while (!link.values_done && link.up && now() < deadline) {
      pollfd fd{link.stream.fd(), POLLIN, 0};
      ::poll(&fd, 1, 20);
      route(shard);
      if (link.stream.dead()) {
        route(shard);  // consume anything read before the EOF
        break;
      }
    }
  }
  link.up = false;
  link.stream.close();
}

void TcpCtrlPlane::close_inherited_in_child() {
  for (WorkerLink& link : links_) {
    link.stream.close();
    link.up = false;
  }
  pending_.clear();
}

bool TcpCtrlPlane::values_complete() const noexcept {
  for (const WorkerLink& link : links_) {
    if (!link.values_done) {
      return false;
    }
  }
  return true;
}

}  // namespace ipregel::shard

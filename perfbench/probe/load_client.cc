// `qbench load`: a single-threaded, open-loop QIKEY/1 client.
//
// Arrivals are Poisson at --rate (independent users): gaps are drawn
// from an exponential distribution and each request goes to a uniformly
// chosen connection, both from --seed, so a seed fixes the schedule.
// Request i carries pool line seq[(offset + i) % |seq|]. Sends are never
// held back by responses (open loop), and each latency is measured from
// the request's due time, so a server stall is charged to every request
// it delays. How late the client itself got a request out is reported as
// generator lateness. Every response line is compared byte for byte
// with the expected line for its request.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <random>

#include "common.h"

namespace qbench {
namespace {

// How long to wait for responses after the last send (or after the
// phase stopped sending); what is still unanswered then timed out.
constexpr int64_t kGraceNs = 2'000'000'000;

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<uint64_t> inflight;  // request ids, in send order
  bool closed = false;
  bool watch_out = false;  // EPOLLOUT registered
};

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die(std::string("connect failed: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Blocking read of the greeting, then switch to non-blocking.
  std::string hello;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') hello += c;
  if (hello.rfind("QIKEY/1", 0) != 0) Die("unexpected greeting: " + hello);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

int RunLoad(int argc, char** argv) {
  Flags flags(argc, argv, 2);
  const int port = static_cast<int>(flags.Num("port"));
  const std::vector<std::string> pool = ReadLines(flags.Str("pool"));
  std::vector<std::string> expect = ReadLines(flags.Str("expect"));
  std::vector<uint32_t> seq;
  for (const std::string& s : ReadLines(flags.Str("seq"))) {
    uint32_t idx = static_cast<uint32_t>(std::strtoul(s.c_str(), nullptr, 10));
    if (idx >= pool.size()) Die("sequence index out of range");
    seq.push_back(idx);
  }
  if (seq.empty() || expect.size() != pool.size()) Die("bad pool/expect/seq");
  const double rate = flags.Num("rate");
  const uint64_t count = static_cast<uint64_t>(flags.Num("count"));
  const size_t conns_n = static_cast<size_t>(flags.Num("conns"));
  const uint64_t offset = static_cast<uint64_t>(flags.Num("offset"));
  const double limit_us = flags.Num("limit-us");
  const uint64_t windows = static_cast<uint64_t>(flags.Num("windows"));
  // Stop sending once any connection has this many requests in flight:
  // the server is not keeping up, and stopping keeps every connection
  // below the server's per-connection admission cap.
  const uint64_t abort_inflight =
      static_cast<uint64_t>(flags.Num("abort-conn-inflight"));
  if (rate <= 0 || count == 0 || conns_n == 0 || conns_n > 4 || windows == 0 ||
      abort_inflight == 0) {
    Die("need rate > 0, count > 0, 1..4 connections, windows > 0 and "
        "abort-conn-inflight > 0");
  }
  // Timer wake-ups are the schedule's resolution; ask for no slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<Conn> conns(conns_n);
  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (size_t c = 0; c < conns_n; ++c) {
    conns[c].fd = Connect(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }
  int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conns_n;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  }

  std::mt19937_64 rng(static_cast<uint64_t>(flags.Num("seed")));
  std::exponential_distribution<double> gap(rate * 1e-9);
  std::vector<int64_t> offset_ns(count);
  std::vector<uint8_t> conn_of(count);
  double at = 0.0;
  for (uint64_t i = 0; i < count; ++i) {
    offset_ns[i] = static_cast<int64_t>(at);
    conn_of[i] = static_cast<uint8_t>(rng() % conns_n);
    at += gap(rng);
  }
  const int64_t t0 = NowNs() + 2'000'000;  // 2 ms to arm the first timer
  auto due = [&](uint64_t i) { return t0 + offset_ns[i]; };
  std::vector<int64_t> latency(count, -1);
  std::vector<double> lateness;
  lateness.reserve(count);
  uint64_t next = 0, outstanding = 0, ok = 0, wrong = 0, overload = 0,
           errors = 0, inflight_at_last_send = 0;
  bool aborted = false;
  uint64_t max_conn_inflight = 0;
  int64_t last_recv = t0;
  std::string first_wrong;
  int64_t deadline = due(count - 1) + kGraceNs;

  auto flush = [&](Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                         conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn.closed = true;
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  };

  auto on_line = [&](Conn& conn, const std::string& line, int64_t now) {
    if (conn.inflight.empty()) {
      ++errors;
      return;
    }
    uint64_t id = conn.inflight.front();
    conn.inflight.pop_front();
    --outstanding;
    latency[id] = now - due(id);
    last_recv = now;
    const std::string& want = expect[seq[(offset + id) % seq.size()]];
    if (line == want) {
      ++ok;
    } else if (line.rfind("err overload", 0) == 0) {
      ++overload;
    } else {
      ++wrong;
      if (first_wrong.empty()) first_wrong = "got '" + line + "' want '" + want + "'";
    }
  };

  std::vector<epoll_event> events(conns_n + 1);
  char buf[1 << 16];
  while (true) {
    int64_t now = NowNs();
    bool sent_any = false;
    while (!aborted && next < count && due(next) <= now) {
      Conn& conn = conns[conn_of[next]];
      conn.out += pool[seq[(offset + next) % seq.size()]];
      conn.out += '\n';
      conn.inflight.push_back(next);
      lateness.push_back(static_cast<double>(now - due(next)));
      ++outstanding;
      ++next;
      sent_any = true;
      if (next == count) inflight_at_last_send = outstanding;
      max_conn_inflight = std::max<uint64_t>(max_conn_inflight, conn.inflight.size());
      if (conn.inflight.size() >= abort_inflight && next < count) {
        aborted = true;
        inflight_at_last_send = outstanding;
        deadline = now + kGraceNs;
        break;
      }
    }
    if (sent_any) {
      for (Conn& conn : conns) {
        if (!conn.out.empty() && !conn.closed) flush(conn);
      }
    }
    if (((next == count || aborted) && outstanding == 0) || now > deadline) {
      break;
    }
    bool all_closed = true;
    for (const Conn& conn : conns) all_closed &= conn.closed;
    if (all_closed) break;

    for (size_t c = 0; c < conns_n; ++c) {
      bool want_out = !conns[c].out.empty() && !conns[c].closed;
      if (want_out == conns[c].watch_out || conns[c].closed) continue;
      epoll_event ev{};
      ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      ::epoll_ctl(ep, EPOLL_CTL_MOD, conns[c].fd, &ev);
      conns[c].watch_out = want_out;
    }
    int64_t wake = next < count && !aborted ? due(next) : deadline;
    itimerspec spec{};
    spec.it_value.tv_sec = wake / 1'000'000'000;
    spec.it_value.tv_nsec = wake % 1'000'000'000;
    ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);
    int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), -1);
    now = NowNs();
    for (int e = 0; e < n; ++e) {
      size_t c = events[e].data.u64;
      if (c == conns_n) {
        uint64_t expirations = 0;
        ssize_t r = ::read(tfd, &expirations, sizeof(expirations));
        (void)r;
        continue;
      }
      Conn& conn = conns[c];
      if (events[e].events & EPOLLOUT) flush(conn);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      while (true) {
        ssize_t r = ::read(conn.fd, buf, sizeof(buf));
        if (r > 0) {
          conn.in.append(buf, static_cast<size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.closed = true;
          ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
        }
        break;
      }
      size_t start = 0, nl = 0;
      while ((nl = conn.in.find('\n', start)) != std::string::npos) {
        on_line(conn, conn.in.substr(start, nl - start), now);
        start = nl + 1;
      }
      conn.in.erase(0, start);
    }
  }
  for (Conn& conn : conns) ::close(conn.fd);
  ::close(tfd);
  ::close(ep);

  std::vector<double> lat_us;
  lat_us.reserve(count);
  for (int64_t l : latency) {
    if (l >= 0) lat_us.push_back(static_cast<double>(l) * 1e-3);
  }
  const uint64_t timeouts = next - (ok + wrong + overload);
  JsonLine out;
  out.Num("sent", static_cast<double>(next));
  out.Num("count", static_cast<double>(count));
  out.Num("ok", static_cast<double>(ok));
  out.Num("wrong", static_cast<double>(wrong));
  out.Num("overload", static_cast<double>(overload));
  out.Num("unexpected", static_cast<double>(errors));
  out.Num("timeouts", static_cast<double>(timeouts));
  out.Num("samples", static_cast<double>(lat_us.size()));
  out.Num("p50_us", Quantile(lat_us, 0.50));
  out.Num("p99_us", Quantile(lat_us, 0.99));
  out.Num("p999_us", Quantile(lat_us, 0.999));
  out.Num("max_us", Quantile(lat_us, 1.0));
  // Per-window percentiles: requests split by send order into --windows
  // equal parts, so a caller can take medians that one transient stall
  // cannot move.
  std::string p50s, p99s;
  for (uint64_t w = 0; w < windows; ++w) {
    std::vector<double> part;
    for (uint64_t i = w * count / windows; i < (w + 1) * count / windows; ++i) {
      if (latency[i] >= 0) part.push_back(static_cast<double>(latency[i]) * 1e-3);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.3f", w ? "," : "", Quantile(part, 0.50));
    p50s += buf;
    std::snprintf(buf, sizeof(buf), "%s%.3f", w ? "," : "", Quantile(part, 0.99));
    p99s += buf;
  }
  out.Str("window_p50_us", p50s);
  out.Str("window_p99_us", p99s);
  for (double& l : lateness) l *= 1e-3;
  out.Num("late_p50_us", Quantile(lateness, 0.50));
  out.Num("late_p99_us", Quantile(lateness, 0.99));
  out.Num("inflight_at_last_send", static_cast<double>(inflight_at_last_send));
  out.Num("achieved_rps",
          last_recv > t0 ? static_cast<double>(ok) / Seconds(last_recv - t0) : 0.0);
  // Little's law: if every request finished within the limit, no more
  // than rate * limit requests (plus one per connection) can be in
  // flight when the last one is sent. More means the backlog grew.
  out.Num("backlog_grew",
          aborted || static_cast<double>(inflight_at_last_send) >
                         rate * limit_us * 1e-6 + static_cast<double>(conns_n)
              ? 1
              : 0);
  out.Num("aborted", aborted ? 1 : 0);
  out.Num("max_conn_inflight", static_cast<double>(max_conn_inflight));
  out.Str("first_wrong", first_wrong);
  out.Emit();
  return 0;
}

}  // namespace qbench

#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <random>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A request the generator should issue: which key, and what a correct answer
/// looks like.
struct Request {
  std::size_t key_index = 0;
  Expect expect = Expect::kMiss;
  const std::string* expected_body = nullptr;
};

struct Outcome {
  std::string raw;         ///< whole response as read (empty on socket error)
  std::string error;       ///< socket-level failure, empty when none
  double latency_us = 0.0;
  double connect_us = 0.0;
};

struct Conn {
  int fd = -1;
  Request request;
  std::string wire;
  std::size_t sent = 0;
  std::string raw;
  Clock::time_point start;
  Clock::time_point connected_at;
  bool connected = false;
};

/// Run requests against 127.0.0.1:`port` with up to kClients connections in
/// flight until `next` has nothing more to issue and every connection ended.
void drive(std::uint16_t port, const std::vector<Key>& keys,
           const std::function<bool(Request&)>& next,
           const std::function<void(const Request&, const Outcome&)>& done) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  std::vector<Conn> conns;
  bool more = true;
  auto finish = [&](std::size_t i, std::string error) {
    Conn& c = conns[i];
    Outcome out;
    const Clock::time_point now = Clock::now();
    out.latency_us = us_between(c.start, now);
    out.connect_us = c.connected ? us_between(c.start, c.connected_at) : 0.0;
    out.error = std::move(error);
    out.raw = std::move(c.raw);
    close(c.fd);
    const Request request = c.request;
    conns[i] = std::move(conns.back());
    conns.pop_back();
    done(request, out);
  };
  auto open_one = [&](const Request& request) {
    Conn c;
    c.request = request;
    const std::string body = request_body(keys[request.key_index]);
    c.wire = "POST /explain HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
             "Content-Length: " + std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
             body;
    c.start = Clock::now();
    c.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      Outcome out;
      out.error = std::string("socket: ") + std::strerror(errno);
      done(request, out);
      return;
    }
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      c.connected = true;
      c.connected_at = Clock::now();
    } else if (errno != EINPROGRESS) {
      const std::string why = std::string("connect: ") + std::strerror(errno);
      conns.push_back(std::move(c));
      finish(conns.size() - 1, why);
      return;
    }
    conns.push_back(std::move(c));
  };

  std::vector<pollfd> fds;
  char buffer[16384];
  while (true) {
    while (more && conns.size() < kClients) {
      Request request;
      if (!next(request)) {
        more = false;
        break;
      }
      open_one(request);
    }
    if (conns.empty()) break;
    fds.resize(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const Conn& c = conns[i];
      fds[i].fd = c.fd;
      fds[i].events = (!c.connected || c.sent < c.wire.size()) ? POLLOUT : POLLIN;
      fds[i].revents = 0;
    }
    const int ready = poll(fds.data(), fds.size(), 1000);
    if (ready < 0 && errno != EINTR) break;
    const Clock::time_point now = Clock::now();
    // Walk backwards: finish() swaps the last connection into slot i.
    for (std::size_t i = fds.size(); i-- > 0;) {
      Conn& c = conns[i];
      if (fds[i].revents == 0) {
        if (std::chrono::duration<double>(now - c.start).count() > 10.0) {
          finish(i, "no response within 10 s");
        }
        continue;
      }
      if (!c.connected) {
        int err = 0;
        socklen_t len = sizeof err;
        getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(i, std::string("connect: ") + std::strerror(err));
          continue;
        }
        c.connected = true;
        c.connected_at = now;
      }
      if (c.sent < c.wire.size()) {
        const ssize_t n = send(c.fd, c.wire.data() + c.sent, c.wire.size() - c.sent,
                               MSG_NOSIGNAL);
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          finish(i, std::string("send: ") + std::strerror(errno));
        } else if (n > 0) {
          c.sent += static_cast<std::size_t>(n);
        }
        continue;
      }
      while (true) {
        const ssize_t n = recv(c.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          c.raw.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          finish(i, "");
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          finish(i, std::string("recv: ") + std::strerror(errno));
        }
        break;
      }
    }
  }
}

bool is_hex32(const std::string& s) {
  if (s.size() != 32) return false;
  for (char ch : s) {
    if (!std::isxdigit(static_cast<unsigned char>(ch))) return false;
  }
  return true;
}

}  // namespace

std::string request_body(const Key& key) {
  std::string body = "{\"row\":" + std::to_string(key.row);
  if (key.output_class >= 0) body += ",\"output_class\":" + std::to_string(key.output_class);
  body += ",\"top_k\":" + std::to_string(key.top_k) + "}";
  return body;
}

std::vector<Key> key_permutation(const std::vector<std::uint32_t>& rows,
                                 std::size_t num_outputs, std::size_t num_concepts,
                                 std::uint64_t seed) {
  std::vector<Key> keys;
  keys.reserve(rows.size() * (num_outputs + 1) * num_concepts);
  for (std::uint32_t row : rows) {
    for (std::int32_t c = -1; c < static_cast<std::int32_t>(num_outputs); ++c) {
      for (std::uint32_t k = 1; k <= num_concepts; ++k) keys.push_back(Key{row, c, k});
    }
  }
  std::mt19937_64 rng(seed);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng() % i]);
  }
  return keys;
}

const std::string* ParsedResponse::header(const std::string& lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

ParsedResponse parse_response(const std::string& raw) {
  ParsedResponse out;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) return out;
  out.status = std::atoi(raw.c_str() + 9);
  std::size_t pos = raw.find("\r\n") + 2;
  long content_length = -1;
  while (pos < head_end) {
    const std::size_t eol = raw.find("\r\n", pos);
    const std::string line = raw.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& ch : name) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    std::size_t vstart = colon + 1;
    while (vstart < line.size() && line[vstart] == ' ') ++vstart;
    std::string value = line.substr(vstart);
    if (name == "content-length") content_length = std::atol(value.c_str());
    out.headers.emplace_back(std::move(name), std::move(value));
  }
  out.body = raw.substr(head_end + 4);
  out.complete = content_length >= 0 && static_cast<std::size_t>(content_length) == out.body.size();
  return out;
}

std::string check_response(const ParsedResponse& response, Expect expect,
                           const std::string* expected_body) {
  if (!response.complete) return "incomplete or malformed response";
  if (response.status != 200) {
    return "status " + std::to_string(response.status) + ": " + response.body.substr(0, 160);
  }
  const std::string* cache = response.header("x-agua-cache");
  if (cache == nullptr) return "missing X-Agua-Cache header";
  const char* want = expect == Expect::kMiss ? "miss" : "hit";
  if (*cache != want) return "X-Agua-Cache: " + *cache + " (expected " + want + ")";
  const std::string* trace = response.header("x-agua-trace-id");
  if (trace == nullptr || !is_hex32(*trace)) return "missing or malformed X-Agua-Trace-Id";
  if (expected_body != nullptr && response.body != *expected_body) {
    return "body differs from the miss that filled the cache";
  }
  return {};
}

LoadResult run_load(const LoadOptions& options, const std::vector<Key>& keys) {
  LoadResult result;
  auto fail = [&](const std::string& why) {
    ++result.failed;
    if (result.failures.size() < 5) result.failures.push_back(why);
  };
  // Checks one outcome; returns true when it is a correct answer.
  auto judge = [&](const Request& request, const Outcome& out) {
    ++result.attempted;
    if (!out.error.empty()) {
      fail(out.error);
      return false;
    }
    const std::string why =
        check_response(parse_response(out.raw), request.expect, request.expected_body);
    if (!why.empty()) {
      fail(why);
      return false;
    }
    return true;
  };

  const std::size_t first = std::min(options.first_key, keys.size());
  const std::size_t hot = std::min(kHotKeys, keys.size() - first);
  std::vector<std::vector<std::string>> hot_bodies(options.ports.size(),
                                                   std::vector<std::string>(hot));
  std::size_t cursor = first;  // next unused key (kMiss)
  auto next_miss = [&](Request& request) {
    if (cursor >= keys.size()) {
      result.exhausted = true;
      return false;
    }
    request = Request{cursor++, Expect::kMiss, nullptr};
    return true;
  };

  const Clock::time_point warm_start = Clock::now();
  for (std::size_t p = 0; p < options.ports.size(); ++p) {
    const std::uint16_t port = options.ports[p];
    if (options.mode == Expect::kMiss) {
      std::size_t issued = 0;
      drive(port, keys,
            [&](Request& r) { return issued++ < kWarmMisses && next_miss(r); },
            [&](const Request& r, const Outcome& o) { judge(r, o); });
      continue;
    }
    // Fill the hot set (each key misses once), then confirm every key hits
    // with the very bytes its miss returned.
    std::size_t issued = 0;
    drive(port, keys,
          [&](Request& r) {
            if (issued >= hot) return false;
            r = Request{first + issued++, Expect::kMiss, nullptr};
            return true;
          },
          [&](const Request& r, const Outcome& o) {
            if (judge(r, o)) hot_bodies[p][r.key_index - first] = parse_response(o.raw).body;
          });
    issued = 0;
    drive(port, keys,
          [&](Request& r) {
            if (issued >= hot) return false;
            r = Request{first + issued, Expect::kHit, &hot_bodies[p][issued]};
            ++issued;
            return true;
          },
          [&](const Request& r, const Outcome& o) { judge(r, o); });
  }
  result.warm_s = std::chrono::duration<double>(Clock::now() - warm_start).count();

  std::vector<clockid_t> server_clocks;
  for (int pid : options.pids) {
    clockid_t clock{};
    if (clock_getcpuclockid(pid, &clock) != 0) {
      fail("no CPU clock for server pid " + std::to_string(pid));
      return result;
    }
    server_clocks.push_back(clock);
  }
  auto server_cpu = [&](std::size_t p) {
    if (p >= server_clocks.size()) return 0.0;
    timespec ts{};
    clock_gettime(server_clocks[p], &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  };

  std::size_t hot_cursor = 0;
  std::size_t timed_ok = 0;
  for (std::size_t w = 0; w < options.windows; ++w) {
    Window window;
    window.port_index = w % options.ports.size();
    const std::size_t p = window.port_index;
    const double cpu_start = server_cpu(p);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kWindowS));
    drive(options.ports[p], keys,
          [&](Request& r) {
            if (Clock::now() >= end) return false;
            if (options.mode == Expect::kMiss) return next_miss(r);
            const std::size_t i = hot_cursor++ % hot;
            r = Request{first + i, Expect::kHit, &hot_bodies[p][i]};
            return true;
          },
          [&](const Request& r, const Outcome& o) {
            if (!judge(r, o)) {
              ++window.failed;
              return;
            }
            ++window.ok;
            if (keys[r.key_index].output_class >= 0) ++window.counterfactual_ok;
            window.latency_us.push_back(o.latency_us);
            window.connect_us.push_back(o.connect_us);
            ++timed_ok;
            if (options.sample_every > 0 && timed_ok % options.sample_every == 0 &&
                result.samples.size() < options.sample_cap) {
              result.samples.emplace_back(keys[r.key_index], parse_response(o.raw).body);
            }
          });
    window.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    window.server_cpu_s = server_cpu(p) - cpu_start;
    result.windows.push_back(std::move(window));
    if (result.exhausted) break;
  }
  result.keys_used = options.mode == Expect::kMiss ? cursor : first + hot;
  return result;
}

}  // namespace perfbench

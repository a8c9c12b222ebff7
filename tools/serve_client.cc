// serve_client — load generator for the crossmine prediction server.
// `serve_client --help` prints its flags, generated from tools/flags.cc.
//
// Drives a mixed workload (predict / predict_batch / explain / stats) over
// C persistent connections and reports latency percentiles and error
// counts. Closed loop by default (each connection waits for a response
// before its next request); `--qps N` switches to an open loop where
// senders pace requests at the target rate regardless of responses, which
// is how queue-full shedding and deadline behavior are exercised honestly
// (closed loops self-throttle and hide overload).
//
// `--dump` sequentially asks for `predict` of ids 0..K-1 and prints
// `id\tclass` lines — the same stdout format as `crossmine predict` — so a
// shell diff proves server and offline predictions are byte-identical.
//
// Exit status: 0 when every response was either ok or an *expected* load
// response (RESOURCE_EXHAUSTED shed, DEADLINE_EXCEEDED, UNAVAILABLE during
// drain); 1 on protocol errors, unexpected error codes, or when the server
// cannot be reached at startup. Responses the server never sent (connection
// closed mid-drain) count as `dropped`, not errors.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "flags.h"
#include "serve/protocol.h"

using namespace crossmine;
using serve::JsonValue;

namespace {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  long long requests = 1000;
  int connections = 4;
  long long ids = 100;       // tuple ids drawn from [0, ids)
  int batch = 8;             // predict_batch size in the mix
  long long deadline_ms = 0; // per-request deadline field (0 = absent)
  double qps = 0;            // >0 switches to open loop at this total rate
  int retries = 4;           // per-attempt retry budget (0 = no retries)
  bool json = false;
  bool dump = false;
  uint64_t seed = 1;
};

struct Tally {
  std::vector<double> latencies_ms;
  long long ok = 0;
  long long sheds = 0;
  long long deadline_exceeded = 0;
  long long unavailable = 0;
  long long hard_errors = 0;  // anything else with ok:false
  long long dropped = 0;      // sent but never answered (drain/EOF)
  long long retries = 0;      // backoff-retried connects / shed requests
};

/// Blocking line-oriented client connection. Open() is re-entrant: it
/// discards any previous socket and buffered bytes, so a lost connection
/// can be reopened in place.
class Connection {
 public:
  bool Open(const std::string& host, int port) {
    if (fd_ >= 0) ::close(fd_);
    buffer_.clear();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads the next response line; false on EOF/error.
  bool Recv(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// xorshift64* — deterministic per-connection id stream without pulling in
/// the library's Rng (the client intentionally builds against the protocol
/// codec only).
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1DULL;
}

/// The deterministic request mix: mostly single predicts, with batches,
/// explains and the occasional stats probe mixed in.
std::string BuildRequest(const ClientOptions& opt, long long index,
                         uint64_t* rng) {
  std::string req;
  if (index % 61 == 60) {
    req = "{\"verb\":\"stats\"";
  } else if (index % 17 == 16) {
    req = StrFormat("{\"verb\":\"explain\",\"id\":%llu",
                    static_cast<unsigned long long>(
                        NextRand(rng) % static_cast<uint64_t>(opt.ids)));
  } else if (opt.batch > 1 && index % 5 == 4) {
    req = "{\"verb\":\"predict_batch\",\"ids\":[";
    for (int i = 0; i < opt.batch; ++i) {
      if (i > 0) req += ",";
      req += StrFormat("%llu", static_cast<unsigned long long>(
                                   NextRand(rng) %
                                   static_cast<uint64_t>(opt.ids)));
    }
    req += "]";
  } else {
    req = StrFormat("{\"verb\":\"predict\",\"id\":%llu",
                    static_cast<unsigned long long>(
                        NextRand(rng) % static_cast<uint64_t>(opt.ids)));
  }
  if (opt.deadline_ms > 0) {
    req += StrFormat(",\"deadline_ms\":%lld", opt.deadline_ms);
  }
  req += "}";
  return req;
}

/// Capped exponential backoff with seeded jitter: attempt 1 centers on
/// ~5 ms, doubling up to a 200 ms cap; the actual sleep draws uniformly
/// from [base/2, base] so synchronized clients desynchronize. Deterministic
/// given the rng state — reruns with the same --seed back off identically.
void SleepBackoff(int attempt, uint64_t* rng) {
  double base = std::min(200.0, 5.0 * std::pow(2.0, attempt - 1));
  double ms = base / 2 +
              (base / 2) * (static_cast<double>(NextRand(rng) % 1024) / 1023.0);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Opens with retries on ECONNREFUSED (server still binding, or briefly
/// gone). Any other connect failure is immediately fatal.
bool OpenWithRetry(Connection* conn, const ClientOptions& opt, uint64_t* rng,
                   long long* retries) {
  for (int attempt = 0;; ++attempt) {
    if (conn->Open(opt.host, opt.port)) return true;
    if (errno != ECONNREFUSED || attempt >= opt.retries) return false;
    ++*retries;
    SleepBackoff(attempt + 1, rng);
  }
}

/// True for a well-formed RESOURCE_EXHAUSTED error response — the server
/// shedding load, which a retry after backoff is expected to resolve.
bool IsShedResponse(const std::string& line) {
  StatusOr<JsonValue> parsed = serve::ParseJson(line);
  if (!parsed.ok() || parsed->kind != JsonValue::Kind::kObject) return false;
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool || ok->boolean) {
    return false;
  }
  const JsonValue* code = parsed->Find("code");
  return code != nullptr && code->string == "RESOURCE_EXHAUSTED";
}

/// Classifies one response line into the tally (latency recorded by caller).
void Classify(const std::string& line, Tally* tally) {
  StatusOr<JsonValue> parsed = serve::ParseJson(line);
  if (!parsed.ok() || parsed->kind != JsonValue::Kind::kObject) {
    ++tally->hard_errors;
    return;
  }
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    ++tally->hard_errors;
    return;
  }
  if (ok->boolean) {
    ++tally->ok;
    return;
  }
  const JsonValue* code = parsed->Find("code");
  std::string c = code != nullptr ? code->string : "";
  if (c == "RESOURCE_EXHAUSTED") {
    ++tally->sheds;
  } else if (c == "DEADLINE_EXCEEDED") {
    ++tally->deadline_exceeded;
  } else if (c == "UNAVAILABLE") {
    ++tally->unavailable;
  } else {
    ++tally->hard_errors;
  }
}

/// Closed loop: send, wait for the response, repeat. Shed responses and
/// lost connections retry with backoff (a shed at max_connections closes
/// the socket, so the retry path reconnects first).
void RunClosedLoop(const ClientOptions& opt, int conn_index,
                   long long num_requests, Tally* tally) {
  uint64_t rng = opt.seed * 0x9E3779B97F4A7C15ULL +
                 static_cast<uint64_t>(conn_index) + 1;
  uint64_t backoff_rng = rng ^ 0xD1B54A32D192ED03ULL;
  Connection conn;
  if (!OpenWithRetry(&conn, opt, &backoff_rng, &tally->retries)) {
    tally->hard_errors += num_requests;
    return;
  }
  std::string response;
  bool connected = true;
  for (long long i = 0; i < num_requests; ++i) {
    std::string request = BuildRequest(opt, i, &rng);
    int attempt = 0;
    for (;;) {
      if (!connected) {
        if (attempt >= opt.retries ||
            !OpenWithRetry(&conn, opt, &backoff_rng, &tally->retries)) {
          tally->dropped += num_requests - i;
          return;
        }
        connected = true;
      }
      auto t0 = std::chrono::steady_clock::now();
      if (!conn.Send(request) || !conn.Recv(&response)) {
        connected = false;
        if (attempt >= opt.retries) {
          tally->dropped += num_requests - i;
          return;
        }
        ++attempt;
        ++tally->retries;
        SleepBackoff(attempt, &backoff_rng);
        continue;
      }
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      tally->latencies_ms.push_back(ms);
      if (IsShedResponse(response) && attempt < opt.retries) {
        ++attempt;
        ++tally->retries;
        SleepBackoff(attempt, &backoff_rng);
        continue;
      }
      Classify(response, tally);
      break;
    }
  }
}

/// Open loop: a paced sender and a reader on the same connection. Requests
/// go out on schedule whether or not responses have come back, so server
/// queueing shows up as latency (and, past the admission bound, as sheds)
/// instead of silently slowing the generator down.
void RunOpenLoop(const ClientOptions& opt, int conn_index,
                 long long num_requests, Tally* tally) {
  uint64_t backoff_rng = (opt.seed * 0x9E3779B97F4A7C15ULL +
                          static_cast<uint64_t>(conn_index) + 1) ^
                         0xD1B54A32D192ED03ULL;
  Connection conn;
  // Connect-only retry: once the paced stream is running, a retry would
  // distort the schedule, so in-flight failures stay dropped/shed.
  if (!OpenWithRetry(&conn, opt, &backoff_rng, &tally->retries)) {
    tally->hard_errors += num_requests;
    return;
  }
  double per_conn_qps = opt.qps / opt.connections;
  auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(1.0 / per_conn_qps));

  std::mutex mu;
  std::vector<std::chrono::steady_clock::time_point> send_times;
  std::atomic<long long> sent{0};

  std::thread sender([&] {
    uint64_t rng = opt.seed * 0x9E3779B97F4A7C15ULL +
                   static_cast<uint64_t>(conn_index) + 1;
    auto next = std::chrono::steady_clock::now();
    for (long long i = 0; i < num_requests; ++i) {
      std::this_thread::sleep_until(next);
      next += interval;
      std::string request = BuildRequest(opt, i, &rng);
      {
        std::lock_guard<std::mutex> lock(mu);
        send_times.push_back(std::chrono::steady_clock::now());
      }
      if (!conn.Send(request)) break;
      sent.fetch_add(1);
    }
    conn.CloseWrite();
  });

  std::string response;
  long long received = 0;
  while (conn.Recv(&response)) {
    auto now = std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point t0;
    {
      // Responses arrive in request order on one connection, so FIFO
      // matching of send times is exact.
      std::lock_guard<std::mutex> lock(mu);
      if (static_cast<size_t>(received) >= send_times.size()) break;
      t0 = send_times[static_cast<size_t>(received)];
    }
    ++received;
    tally->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(now - t0).count());
    Classify(response, tally);
  }
  sender.join();
  tally->dropped += sent.load() - received;
}

/// --dump: predictions for ids 0..K-1 in `crossmine predict` stdout format.
int RunDump(const ClientOptions& opt) {
  uint64_t backoff_rng = (opt.seed * 0x9E3779B97F4A7C15ULL + 1) ^
                         0xD1B54A32D192ED03ULL;
  long long retries = 0;
  Connection conn;
  if (!OpenWithRetry(&conn, opt, &backoff_rng, &retries)) {
    std::fprintf(stderr, "serve_client: cannot connect to %s:%d\n",
                 opt.host.c_str(), opt.port);
    return 1;
  }
  std::string response;
  for (long long id = 0; id < opt.ids; ++id) {
    int attempt = 0;
    for (;;) {
      bool alive = conn.Send(
                       StrFormat("{\"verb\":\"predict\",\"id\":%lld}", id)) &&
                   conn.Recv(&response);
      if (alive && !IsShedResponse(response)) break;
      if (attempt >= opt.retries) {
        std::fprintf(stderr, "serve_client: %s at id %lld\n",
                     alive ? "shed persisted" : "connection lost", id);
        return 1;
      }
      ++attempt;
      ++retries;
      SleepBackoff(attempt, &backoff_rng);
      if (!alive && !OpenWithRetry(&conn, opt, &backoff_rng, &retries)) {
        std::fprintf(stderr, "serve_client: connection lost at id %lld\n",
                     id);
        return 1;
      }
    }
    StatusOr<JsonValue> parsed = serve::ParseJson(response);
    if (!parsed.ok()) {
      std::fprintf(stderr, "serve_client: bad response: %s\n",
                   response.c_str());
      return 1;
    }
    const JsonValue* pred = parsed->Find("prediction");
    if (pred == nullptr || pred->kind != JsonValue::Kind::kNumber) {
      std::fprintf(stderr, "serve_client: error for id %lld: %s\n", id,
                   response.c_str());
      return 1;
    }
    std::printf("%lld\t%d\n", id, static_cast<int>(pred->number));
  }
  return 0;
}

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted->size())));
  if (rank == 0) rank = 1;
  return (*sorted)[rank - 1];
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::Parse(cli::Program::kServeClient, argc, argv);
  if (args.Has("help")) {
    cli::PrintUsage(cli::Program::kServeClient, stdout);
    return 0;
  }
  if (!args.Has("port")) cli::Fail("serve_client: missing --port");
  ClientOptions opt;
  opt.host = args.Str("host", opt.host);
  opt.port = static_cast<int>(args.Int("port", 0));
  opt.requests = args.Int("requests", opt.requests);
  opt.connections = static_cast<int>(args.Int("connections", opt.connections));
  opt.ids = args.Int("ids", opt.ids);
  opt.batch = static_cast<int>(args.Int("batch", opt.batch));
  opt.deadline_ms = args.Int("deadline-ms", opt.deadline_ms);
  opt.qps = static_cast<double>(args.Int("qps", 0));
  opt.retries = static_cast<int>(args.Int("retries", opt.retries));
  opt.seed = static_cast<uint64_t>(
      args.Int("seed", static_cast<int64_t>(opt.seed)));
  opt.json = args.Has("json");
  opt.dump = args.Has("dump");
  if (opt.dump) return RunDump(opt);

  std::vector<Tally> tallies(static_cast<size_t>(opt.connections));
  std::vector<std::thread> threads;
  auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < opt.connections; ++c) {
    long long share = opt.requests / opt.connections +
                      (c < opt.requests % opt.connections ? 1 : 0);
    threads.emplace_back([&, c, share] {
      if (opt.qps > 0) {
        RunOpenLoop(opt, c, share, &tallies[static_cast<size_t>(c)]);
      } else {
        RunClosedLoop(opt, c, share, &tallies[static_cast<size_t>(c)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  Tally total;
  for (const Tally& t : tallies) {
    total.ok += t.ok;
    total.sheds += t.sheds;
    total.deadline_exceeded += t.deadline_exceeded;
    total.unavailable += t.unavailable;
    total.hard_errors += t.hard_errors;
    total.dropped += t.dropped;
    total.retries += t.retries;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              t.latencies_ms.begin(), t.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  long long answered = static_cast<long long>(total.latencies_ms.size());
  double qps = wall_ms > 0 ? answered / (wall_ms / 1000.0) : 0.0;
  double p50 = Percentile(&total.latencies_ms, 0.50);
  double p90 = Percentile(&total.latencies_ms, 0.90);
  double p99 = Percentile(&total.latencies_ms, 0.99);
  double max = total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back();

  if (opt.json) {
    std::printf(
        "{\"bench\":\"serve_client\",\"requests\":%lld,\"connections\":%d,"
        "\"open_loop\":%s,\"answered\":%lld,\"ok\":%lld,\"sheds\":%lld,"
        "\"deadline_exceeded\":%lld,\"unavailable\":%lld,\"errors\":%lld,"
        "\"dropped\":%lld,\"retries\":%lld,\"wall_ms\":%.3f,\"qps\":%.1f,"
        "\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f}\n",
        opt.requests, opt.connections, opt.qps > 0 ? "true" : "false",
        answered, total.ok, total.sheds, total.deadline_exceeded,
        total.unavailable, total.hard_errors, total.dropped, total.retries,
        wall_ms, qps, p50, p90, p99, max);
  } else {
    std::printf(
        "%lld requests over %d connections in %.1f ms (%.1f answered/s)\n"
        "  ok %lld, sheds %lld, deadline_exceeded %lld, unavailable %lld, "
        "errors %lld, dropped %lld, retries %lld\n"
        "  latency ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
        opt.requests, opt.connections, wall_ms, qps, total.ok, total.sheds,
        total.deadline_exceeded, total.unavailable, total.hard_errors,
        total.dropped, total.retries, p50, p90, p99, max);
  }
  return total.hard_errors == 0 ? 0 : 1;
}

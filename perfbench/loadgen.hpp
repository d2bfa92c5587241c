// Closed-loop HTTP load generator for POST /explain, plus the request-key
// sequences and response checks every serve measurement shares.
//
// One thread drives `clients` concurrent connections with poll(); each
// connection carries one request (the server answers `Connection: close`)
// and is replaced by the next key as soon as its response is complete.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// The fixed shape of every run. run.py reads kThreads, kSetups and
// kLatencyQuantile through `agua_perf constants`, so each number lives here
// only.
constexpr std::size_t kThreads = 2;  ///< worker-pool size: offline and the server's --threads
constexpr std::size_t kSetups = 3;   ///< set-ups per run; setup_s is their median
constexpr std::size_t kClients = 3;  ///< connections; 1 generator thread + 3 <= nproc (4)
constexpr std::size_t kWarmMisses = 1100;  ///< kMiss warm-up: fills the 1024-entry cache
constexpr std::size_t kHotKeys = 256;      ///< kHit: keys filled, then hit (well inside the cache)
constexpr double kWindowS = 0.1;           ///< length of one timed window
/// A run's latency is this quantile of its windows' p50s: host steal comes
/// in bursts that inflate some windows' wall times, and the low quantile is
/// the latency of the windows no burst reached.
constexpr double kLatencyQuantile = 0.1;

/// One /explain request: a served row, the class to explain (-1 = factual)
/// and top_k. Distinct keys are distinct cache entries as long as the rows
/// have distinct embeddings.
struct Key {
  std::uint32_t row = 0;
  std::int32_t output_class = -1;
  std::uint32_t top_k = 5;
};

std::string request_body(const Key& key);

/// Every (row, factual or class, top_k in 1..num_concepts) key over `rows`,
/// shuffled by `seed`: the same seed gives the same sequence.
std::vector<Key> key_permutation(const std::vector<std::uint32_t>& rows,
                                 std::size_t num_outputs, std::size_t num_concepts,
                                 std::uint64_t seed);

struct ParsedResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  ///< lower-cased names
  std::string body;
  bool complete = false;  ///< head parsed and body length matches Content-Length

  const std::string* header(const std::string& lower_name) const;
};

ParsedResponse parse_response(const std::string& raw);

enum class Expect { kMiss, kHit };

/// Empty when `response` is a well-formed 200 /explain answer of the expected
/// cache kind carrying a trace id (and, when `expected_body` is given, with
/// exactly that body); otherwise the reason it is not.
std::string check_response(const ParsedResponse& response, Expect expect,
                           const std::string* expected_body);

struct LoadOptions {
  std::vector<std::uint16_t> ports;  ///< windows alternate over these servers
  /// The servers' process ids, one per port, for their CPU time; empty when
  /// the server runs in this process (server_cpu_s then reads 0).
  std::vector<int> pids;
  Expect mode = Expect::kMiss;
  std::size_t first_key = 0;  ///< skip keys an earlier load on the same servers used
  std::size_t windows = 0;    ///< timed windows after warm-up (0 = warm-up only)
  std::size_t sample_every = 0;  ///< kMiss: keep every Nth timed body (0 = none)
  std::size_t sample_cap = 0;
};

struct Window {
  std::size_t port_index = 0;
  std::size_t ok = 0;
  std::size_t counterfactual_ok = 0;  ///< of `ok`: requests naming an output_class
  std::size_t failed = 0;
  double seconds = 0.0;
  /// CPU time the server process spent in the window. It excludes time the
  /// hypervisor stole, so rates per server CPU-second do not follow steal.
  double server_cpu_s = 0.0;
  std::vector<double> latency_us;  ///< connect start → response complete
  std::vector<double> connect_us;  ///< connect start → socket writable
};

struct LoadResult {
  double warm_s = 0.0;  ///< wall time of the warm-up phase over all servers
  std::vector<Window> windows;
  std::size_t attempted = 0;  ///< warm-up and timed requests
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::vector<std::pair<Key, std::string>> samples;  ///< timed miss bodies
  bool exhausted = false;  ///< kMiss ran out of distinct keys
  std::size_t keys_used = 0;  ///< one past the last key this load touched
};

LoadResult run_load(const LoadOptions& options, const std::vector<Key>& keys);

}  // namespace perfbench

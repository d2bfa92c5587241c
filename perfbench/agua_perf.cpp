// agua_perf: the benchmark's tool over Agua's public API.
//
//   agua_perf offline  --seed N --seconds S --trace 0|1
//       build the CC bundle, train the surrogate, check fidelity and every
//       timed explanation against the eq. 8–10 reference, time factual,
//       counterfactual and batched explanation in interleaved windows
//   agua_perf rows     --out FILE
//       build the ABR bundle that `agua_cli abr` serves and write its test
//       split (embeddings, controller labels) for the load generator/oracle
//   agua_perf load     --ports P[,P...] --pids PID[,PID...] --rows FILE
//                      --mode miss|hit --seed N --seconds S [--skip K]
//                      [--samples FILE]
//       closed-loop POST /explain load against running servers (--seconds 0:
//       the warm-up and its checks only)
//   agua_perf oracle   --model FILE --rows FILE [--samples FILE]
//       fidelity recount, and sampled /explain bodies against the reference
//   agua_perf probe    --model FILE --rows FILE --seed N --each-batch B
//       per-layer timings on a saved model: core calls and the in-process
//       /explain path (no transport)
//   agua_perf selftest
//       prove the checks can fail: perturbed weight, dropped header, wrong body
//   agua_perf constants
//       the pool size, set-up count and latency quantile run.py needs
//       (see loadgen.hpp)
//
// Every command prints one JSON object as its last stdout line.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/abr_bundle.hpp"
#include "apps/cc_bundle.hpp"
#include "common/thread_pool.hpp"
#include "core/explain.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "text/embedder.hpp"

namespace {

using namespace agua;
using perfbench::Expect;
using perfbench::Key;
using perfbench::kClients;
using perfbench::kFactual;
using perfbench::kHotKeys;
using perfbench::kSetups;
using perfbench::kThreads;
using perfbench::kWarmMisses;
using perfbench::Reference;
using Clock = std::chrono::steady_clock;

/// The application seed every workload trains with (agua_cli's default), so
/// `--seed` varies the query sequences and never the model under test.
constexpr std::uint64_t kAppSeed = 42;
constexpr std::size_t kBatch = 64;  // inputs per offline explain_batched call

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// CPU time of this thread or process. Linux leaves time the hypervisor
/// stole out of it, so a figure per CPU-second does not follow host steal.
double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Args {
  std::map<std::string, std::string> values;
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) values[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
};

/// Operation tally: every checked output counts as attempted; a wrong one
/// as failed, with the first few reasons kept for the log.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;
  bool op(const std::string& why) {
    ++attempted;
    if (why.empty()) return true;
    ++failed;
    if (reasons.size() < 5) reasons.push_back(why);
    return false;
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& r : other.reasons) {
      if (reasons.size() < 5) reasons.push_back(r);
    }
  }
};

/// One result line: {"attempted":..,"failed":..,"failures":[..],"values":{..}}.
void emit(const Tally& tally, const std::map<std::string, double>& values) {
  std::string out = "{\"attempted\":" + std::to_string(tally.attempted) +
                    ",\"failed\":" + std::to_string(tally.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < tally.reasons.size(); ++i) {
    out += (i ? "," : "") + quote(tally.reasons[i]);
  }
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out += (first ? "" : ",") + quote(name) + ":" + fmt(value);
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

// --- registry reads -------------------------------------------------------

struct Registry {
  std::map<std::string, obs::MetricSnapshot> metrics;
  static Registry read() {
    Registry r;
    for (obs::MetricSnapshot& m : obs::MetricsRegistry::instance().snapshot()) {
      r.metrics[m.name] = std::move(m);
    }
    return r;
  }
  double counter(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : static_cast<double>(it->second.counter_value);
  }
  double hist_sum(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.histogram.sum;
  }
  double hist_count(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : static_cast<double>(it->second.histogram.count);
  }
  double hist_p50(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.histogram.p50();
  }
};

// --- row files (the served test split) ------------------------------------

struct Rows {
  std::size_t num_outputs = 0;
  std::size_t num_concepts = 0;
  std::vector<std::vector<double>> embeddings;
  std::vector<std::size_t> labels;

  /// Rows whose embedding bytes differ from every earlier row's: requests
  /// for distinct unique rows are distinct cache keys.
  std::vector<std::uint32_t> unique_rows() const {
    std::set<std::vector<double>> seen;
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < embeddings.size(); ++i) {
      if (seen.insert(embeddings[i]).second) out.push_back(static_cast<std::uint32_t>(i));
    }
    return out;
  }
  core::Dataset dataset() const {
    core::Dataset d;
    d.num_outputs = num_outputs;
    for (std::size_t i = 0; i < embeddings.size(); ++i) {
      core::Sample s;
      s.embedding = embeddings[i];
      s.output_class = labels[i];
      d.samples.push_back(std::move(s));
    }
    return d;
  }
};

bool write_rows(const std::string& path, const core::Dataset& test, std::size_t num_concepts) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t head[4] = {test.size(), test.embedding_dim(), test.num_outputs,
                                 num_concepts};
  out.write(reinterpret_cast<const char*>(head), sizeof head);
  for (const core::Sample& s : test.samples) {
    out.write(reinterpret_cast<const char*>(s.embedding.data()),
              static_cast<std::streamsize>(s.embedding.size() * sizeof(double)));
    const std::uint64_t label = s.output_class;
    out.write(reinterpret_cast<const char*>(&label), sizeof label);
  }
  return static_cast<bool>(out);
}

std::optional<Rows> read_rows(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t head[4] = {};
  if (!in.read(reinterpret_cast<char*>(head), sizeof head)) return std::nullopt;
  Rows rows;
  rows.num_outputs = head[2];
  rows.num_concepts = head[3];
  for (std::uint64_t i = 0; i < head[0]; ++i) {
    std::vector<double> e(head[1]);
    std::uint64_t label = 0;
    in.read(reinterpret_cast<char*>(e.data()), static_cast<std::streamsize>(e.size() * sizeof(double)));
    in.read(reinterpret_cast<char*>(&label), sizeof label);
    if (!in) return std::nullopt;
    rows.embeddings.push_back(std::move(e));
    rows.labels.push_back(label);
  }
  return rows;
}

// --- per-layer probes -----------------------------------------------------

/// Median µs per call of `fn` over `windows` windows of `window_s` each.
double us_per_call(const std::function<void(std::size_t)>& fn, std::size_t windows = 5,
                   double window_s = 0.08) {
  std::vector<double> per_call;
  std::size_t i = 0;
  fn(i++);  // warm
  for (std::size_t w = 0; w < windows; ++w) {
    const Clock::time_point t = Clock::now();
    std::size_t calls = 0;
    double elapsed = 0.0;
    do {
      fn(i++);
      ++calls;
      elapsed = since(t);
    } while (elapsed < window_s);
    per_call.push_back(elapsed * 1e6 / static_cast<double>(calls));
  }
  return median(per_call);
}

/// Times calls into core's public functions on `model` over `inputs`.
void core_probe(core::AguaModel& model, const std::vector<std::vector<double>>& inputs,
                std::uint64_t seed, std::size_t each_batch, std::map<std::string, double>& out) {
  std::vector<std::size_t> order(inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
  auto input = [&](std::size_t i) -> const std::vector<double>& {
    return inputs[order[i % order.size()]];
  };
  const std::size_t n = model.num_outputs();
  out["core.concept_probs_us"] = us_per_call([&](std::size_t i) { model.concept_probs(input(i)); });
  out["core.output_probs_us"] = us_per_call([&](std::size_t i) { model.output_probs(input(i)); });
  out["core.explain_factual_us"] =
      us_per_call([&](std::size_t i) { core::explain_factual(model, input(i)); });
  out["core.explain_for_class_us"] =
      us_per_call([&](std::size_t i) { core::explain_for_class(model, input(i), i % n); });
  out["core.model_clone_us"] = us_per_call([&](std::size_t) { model.clone(); });

  auto batch_of = [&](std::size_t i, std::size_t size) {
    std::vector<std::vector<double>> batch;
    for (std::size_t j = 0; j < size; ++j) batch.push_back(input(i * size + j));
    return batch;
  };
  const double tasks_before = Registry::read().counter("agua.pool.tasks");
  std::size_t batched_calls = 0;
  out["core.explain_batched_us"] = us_per_call([&](std::size_t i) {
    const auto batch = batch_of(i, kBatch);
    ++batched_calls;
    core::explain_batched(model, batch);
  });
  out["common.pool.tasks"] =
      (Registry::read().counter("agua.pool.tasks") - tasks_before) / static_cast<double>(batched_calls);
  // Per slot, at the batch size the serving plane coalesces.
  const double each_us = us_per_call([&](std::size_t i) {
    const auto batch = batch_of(i, each_batch);
    std::vector<std::size_t> classes(each_batch);
    for (std::size_t j = 0; j < each_batch; ++j) classes[j] = (i + j) % (n + 1) == n ? kFactual : (i + j) % (n + 1);
    core::explain_each_isolated(model, batch, classes);
  });
  out["core.explain_each_us"] = each_us / static_cast<double>(each_batch);
}

net::HttpRequest explain_request(const Key& key, std::uint64_t trace_lo) {
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/explain";
  request.version = "HTTP/1.1";
  request.body = perfbench::request_body(key);
  request.trace.trace_hi = 0x5eed;
  request.trace.trace_lo = trace_lo;
  return request;
}

/// ExplainService::explain_http with no transport, kClients caller threads,
/// on the same key mix the load generator sends, for one second. Returns
/// p50 µs; counts every response that is not the expected 200 miss/hit as
/// failed.
double inproc_probe(core::AguaModel& model, const std::vector<std::vector<double>>& rows,
                    const std::vector<Key>& keys, Expect mode, Tally& tally) {
  serve::ExplainService service;
  service.start();
  service.install_model(model.clone(), "perfbench");
  service.set_rows(rows);
  std::atomic<std::uint64_t> trace{1};
  auto call = [&](const Key& key, const char* want) {
    const net::HttpResponse r = service.explain_http(explain_request(key, trace++));
    std::string cache;
    for (const auto& [name, value] : r.extra_headers) {
      if (name == "X-Agua-Cache") cache = value;
    }
    if (r.status != 200 || cache != want) {
      return "in-process /explain: status " + std::to_string(r.status) + ", cache '" + cache + "'";
    }
    return std::string();
  };
  std::size_t cursor = 0;
  const std::size_t fill = mode == Expect::kMiss ? kWarmMisses : kHotKeys;
  for (; cursor < fill && cursor < keys.size(); ++cursor) tally.op(call(keys[cursor], "miss"));
  std::atomic<std::size_t> next{mode == Expect::kMiss ? cursor : 0};
  std::vector<std::vector<double>> latency(kClients);
  std::vector<Tally> tallies(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (since(start) < 1.0) {
        std::size_t i = next++;
        if (mode == Expect::kHit) {
          i %= kHotKeys;
        } else if (i >= keys.size()) {
          tallies[c].op("in-process probe ran out of distinct keys");
          return;
        }
        const Clock::time_point t = Clock::now();
        const std::string why = call(keys[i], mode == Expect::kMiss ? "miss" : "hit");
        latency[c].push_back(since(t) * 1e6);
        tallies[c].op(why);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (std::size_t c = 0; c < kClients; ++c) {
    all.insert(all.end(), latency[c].begin(), latency[c].end());
    tally.merge(tallies[c]);
  }
  service.stop();
  return median(all);
}

double json_parse_probe(const std::vector<Key>& keys) {
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i < std::min<std::size_t>(keys.size(), 512); ++i) {
    bodies.push_back(perfbench::request_body(keys[i]));
  }
  return us_per_call([&](std::size_t i) { serve::json_parse(bodies[i % bodies.size()]); });
}

// --- offline workload -----------------------------------------------------

int cmd_offline(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const double seconds = args.num("seconds", 10);
  const bool trace = args.num("trace", 0) != 0;
  common::set_default_thread_count(kThreads);
  Tally tally;
  std::map<std::string, double> values;

  // Set-up: build the CC bundle (controller training + rollouts) several
  // times; the median is the set-up time, the last bundle is used.
  std::vector<double> setup_times;
  std::optional<apps::CcBundle> bundle;
  for (std::size_t i = 0; i < kSetups; ++i) {
    bundle.reset();
    const Clock::time_point t = Clock::now();
    bundle.emplace(apps::make_cc_bundle(kAppSeed));
    setup_times.push_back(since(t));
  }
  const core::Dataset& test = bundle->test;

  if (trace) {
    obs::clear_spans();
    obs::set_trace_enabled(true);
  }
  core::AguaConfig config;
  config.embedder = text::closed_source_embedder_config();
  // Training is deterministic: a measured run trains kSetups times and
  // reports the median CPU time of the process (the caller and the pool's
  // workers); a traced run trains once, for its spans.
  core::AguaArtifacts artifacts;
  std::vector<double> train_times;
  for (std::size_t i = 0; i < (trace ? 1 : kSetups); ++i) {
    artifacts = core::AguaArtifacts{};
    common::Rng rng(kAppSeed ^ 0xA90A);
    const double train_start = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    artifacts = core::train_agua(bundle->train, bundle->describer->concept_set(),
                                 bundle->describe_fn(), config, rng);
    train_times.push_back(cpu_s(CLOCK_PROCESS_CPUTIME_ID) - train_start);
  }
  const double train_s = median(train_times);
  core::AguaModel& model = *artifacts.model;
  // The program's own peak: bundle, training and model, before this tool
  // builds its reference tables, model copies and (traced) serving probes.
  values["peak_rss_mb"] = peak_rss_mb();
  if (trace) {
    obs::set_trace_enabled(false);
    std::map<std::string, double> span_s;
    for (const obs::SpanRecord& s : obs::collect_spans()) span_s[s.name] += s.duration_seconds();
    const double stages = span_s["agua.pipeline.describe"] + span_s["agua.pipeline.embed_label"] +
                          span_s["agua.pipeline.train_concept"] +
                          span_s["agua.pipeline.train_output"];
    const double whole = span_s["agua.pipeline.train"];
    tally.op(std::abs(stages - whole) <= 0.05 * whole
                 ? ""
                 : "pipeline stage spans sum to " + fmt(stages) + " s of " + fmt(whole) + " s");
    values["core.pipeline.describe_s"] = span_s["agua.pipeline.describe"];
    values["core.pipeline.embed_label_s"] = span_s["agua.pipeline.embed_label"];
    values["core.labeler.fit_s"] = span_s["agua.labeler.fit"];
    values["core.pipeline.train_concept_s"] = span_s["agua.pipeline.train_concept"];
    values["core.pipeline.train_output_s"] = span_s["agua.pipeline.train_output"];
    values["apps.bundle_s"] = median(setup_times);
    const Registry reg = Registry::read();
    values["text.embed_us"] = 1e6 * reg.hist_sum("agua.text.embed") /
                              std::max(1.0, reg.hist_count("agua.text.embed"));
  }

  // Fidelity (eq. 11) against an independent recount.
  const double fidelity = core::fidelity(model, test);
  const double recount = perfbench::recount_fidelity(model, test);
  tally.op(fidelity == recount ? "" : "fidelity " + fmt(fidelity) + " != recount " + fmt(recount));
  tally.op(fidelity > test.majority_fraction()
               ? ""
               : "fidelity " + fmt(fidelity) + " not above the majority share " +
                     fmt(test.majority_fraction()));

  // The reference for every (test input, class).
  const perfbench::OutputLayer layer = perfbench::read_output_layer(model);
  const std::size_t n = test.size();
  const std::size_t classes = model.num_outputs();
  std::vector<std::vector<Reference>> ref(n);
  std::vector<std::size_t> pred(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double> z = model.concept_probs(test.samples[i].embedding);
    for (std::size_t c = 0; c < classes; ++c) ref[i].push_back(perfbench::reference_explain(layer, z, c));
    pred[i] = ref[i][0].predicted_class;
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (input, non-predicted class)
  for (std::size_t i : order) {
    for (std::size_t c = 0; c < classes; ++c) {
      if (c != pred[i]) pairs.emplace_back(i, c);
    }
  }
  const std::size_t num_batches = n / kBatch;
  std::vector<std::vector<std::vector<double>>> batches(num_batches);
  std::vector<Reference> batch_ref(num_batches);
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<Reference> parts;
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::size_t i = order[b * kBatch + j];
      batches[b].push_back(test.samples[i].embedding);
      parts.push_back(ref[i][pred[i]]);
    }
    batch_ref[b] = perfbench::reference_mean(parts);
  }

  // Factual and counterfactual windows run kCallers caller threads at once,
  // each on its own copy of the model (an AguaModel serves one thread at a
  // time). The figure is calls per CPU-second of the callers. A single caller samples the speed of one vCPU, which on a shared
  // VM host can drift by up to 1.3x for seconds at a time; two callers
  // average two of them.
  constexpr std::size_t kCallers = 2;
  std::vector<core::AguaModel> copies;
  for (std::size_t c = 1; c < kCallers; ++c) copies.push_back(model.clone());
  std::atomic<std::size_t> fi{0}, ci{0};
  std::size_t bi = 0;
  auto callers_window = [&](double len, const auto& op) {
    std::vector<Tally> tallies(kCallers);
    std::vector<double> cpu(kCallers);
    const Clock::time_point t = Clock::now();
    auto body = [&](std::size_t c) {
      core::AguaModel& m = c == 0 ? model : copies[c - 1];
      const double cpu_start = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      do {
        tallies[c].op(op(m));
      } while (since(t) < len);
      cpu[c] = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < kCallers; ++c) threads.emplace_back(body, c);
    body(0);
    for (std::thread& thread : threads) thread.join();
    std::size_t ops = 0;
    double cpu_s = 0.0;
    for (std::size_t c = 0; c < kCallers; ++c) {
      ops += tallies[c].attempted;
      cpu_s += cpu[c];
      tally.merge(tallies[c]);
    }
    return static_cast<double>(ops) / cpu_s;
  };
  auto factual_window = [&](double len) {
    return callers_window(len, [&](core::AguaModel& m) {
      const std::size_t i = order[fi++ % n];
      return perfbench::compare(ref[i][pred[i]],
                                core::explain_factual(m, test.samples[i].embedding));
    });
  };
  auto counterfactual_window = [&](double len) {
    return callers_window(len, [&](core::AguaModel& m) {
      const auto [i, c] = pairs[ci++ % pairs.size()];
      return perfbench::compare(ref[i][c],
                                core::explain_for_class(m, test.samples[i].embedding, c));
    });
  };
  auto batched_window = [&](double len, std::vector<double>& latency_ms) {
    const Clock::time_point t = Clock::now();
    do {
      const std::size_t b = bi++ % num_batches;
      const Clock::time_point call = Clock::now();
      const core::Explanation e = core::explain_batched(model, batches[b]);
      latency_ms.push_back(since(call) * 1e3);
      tally.op(perfbench::compare(batch_ref[b], e, false));
    } while (since(t) < len);
  };

  if (trace) {
    // obs.trace_overhead_pct: batched explanation (the offline path that
    // opens spans) in interleaved traced/untraced windows.
    std::vector<double> on, off;
    for (int w = 0; w < 8; ++w) {
      for (bool enabled : {false, true}) {
        obs::set_trace_enabled(enabled);
        std::vector<double> lat;
        batched_window(0.15, lat);
        (enabled ? on : off).push_back(median(lat));
      }
      obs::clear_spans();
    }
    obs::set_trace_enabled(false);
    values["obs.trace_overhead_pct"] = 100.0 * (median(on) / median(off) - 1.0);
    core_probe(model, [&] {
      std::vector<std::vector<double>> inputs;
      for (const core::Sample& s : test.samples) inputs.push_back(s.embedding);
      return inputs;
    }(), seed, kClients, values);
  } else {
    // Warm every path once, then interleave the three kinds in short
    // windows so a slow stretch of the host hits all of them alike.
    std::vector<double> warm;
    factual_window(0.1);
    counterfactual_window(0.1);
    batched_window(0.1, warm);
    constexpr double kSlice = 0.1;
    const std::size_t rounds = std::max<std::size_t>(4, static_cast<std::size_t>(seconds / (3 * kSlice)));
    // Rates are medians over the rounds. The batched latency is wall time,
    // which host steal inflates in bursts; kLatencyQuantile of the rounds'
    // p50s is the latency of the rounds no burst reached.
    std::vector<double> factual_rates, cf_rates, p50s;
    for (std::size_t r = 0; r < rounds; ++r) {
      factual_rates.push_back(factual_window(kSlice));
      cf_rates.push_back(counterfactual_window(kSlice));
      std::vector<double> lat;
      batched_window(kSlice, lat);
      p50s.push_back(median(lat));
    }
    auto dump = [](const char* name, const std::vector<double>& v) {
      std::string line = std::string("windows ") + name + ":";
      for (double x : v) line += " " + fmt(x).substr(0, 8);
      std::fprintf(stderr, "%s\n", line.c_str());
    };
    dump("setup_s", setup_times);
    dump("train_s", train_times);
    dump("explain_per_s", factual_rates);
    dump("counterfactual_per_s", cf_rates);
    dump("latency_p50_ms", p50s);
    values["setup_s"] = median(setup_times);
    values["train_s"] = train_s;
    values["test_fidelity"] = fidelity;
    values["explain_per_s"] = median(factual_rates);
    values["counterfactual_per_s"] = median(cf_rates);
    values["latency_p50_ms"] = quantile(p50s, perfbench::kLatencyQuantile);
  }

  // Full eq. 8–10 check of every class on a seeded sample of inputs.
  for (std::size_t s = 0; s < std::min<std::size_t>(n, 200); ++s) {
    const std::size_t i = order[s];
    tally.op(perfbench::compare(ref[i][pred[i]],
                                core::explain_factual(model, test.samples[i].embedding)));
    for (std::size_t c = 0; c < classes; ++c) {
      tally.op(perfbench::compare(ref[i][c],
                                  core::explain_for_class(model, test.samples[i].embedding, c)));
    }
  }

  if (trace) {
    // The serving layers on this workload's model: in-process, then over
    // loopback through the library's own HTTP server, on a miss mix.
    std::vector<std::vector<double>> embeddings;
    for (const core::Sample& s : test.samples) embeddings.push_back(s.embedding);
    Rows as_rows;
    as_rows.embeddings = embeddings;
    const std::vector<std::uint32_t> unique = as_rows.unique_rows();
    const std::vector<Key> keys = perfbench::key_permutation(unique, classes, model.num_concepts(), seed);
    const double inproc_us = inproc_probe(model, embeddings, keys, Expect::kMiss, tally);
    const double inproc_hit_us = inproc_probe(model, embeddings, keys, Expect::kHit, tally);
    values["serve.inproc_us"] = inproc_us;
    values["serve.json_parse_us"] = json_parse_probe(keys);

    serve::ExplainService service;
    obs::TelemetryServer server({.port = 0, .connection_threads = 4, .extra_index = {}});
    service.mount(server.http());
    if (!server.start()) {
      std::fprintf(stderr, "in-process server: %s\n", server.last_error().c_str());
      return 1;
    }
    service.install_model(model.clone(), "perfbench");
    service.set_rows(embeddings);
    auto merge = [&](const perfbench::LoadResult& result) {
      tally.attempted += result.attempted;
      tally.failed += result.failed;
      for (const std::string& r : result.failures) {
        if (tally.reasons.size() < 5) tally.reasons.push_back(r);
      }
    };
    auto window_median = [](const perfbench::LoadResult& result, auto field) {
      std::vector<double> per_window;
      for (const perfbench::Window& w : result.windows) per_window.push_back(median(w.*field));
      return median(per_window);
    };
    // Same keys as the in-process probes: this service has its own cache.
    const Registry before = Registry::read();
    perfbench::LoadOptions load;
    load.ports = {server.port()};
    load.windows = 16;
    const perfbench::LoadResult misses_run = perfbench::run_load(load, keys);
    const Registry after = Registry::read();
    merge(misses_run);
    load.mode = Expect::kHit;
    load.first_key = misses_run.keys_used;
    load.windows = 10;
    const perfbench::LoadResult hits_run = perfbench::run_load(load, keys);
    merge(hits_run);
    server.stop();
    service.stop();
    values["net.connect_us"] = window_median(misses_run, &perfbench::Window::connect_us);
    values["net.transport_us"] =
        window_median(hits_run, &perfbench::Window::latency_us) - inproc_hit_us;
    const double batches_run = after.hist_count("agua.serve.batch.size") - before.hist_count("agua.serve.batch.size");
    values["serve.batch_size_mean"] =
        (after.hist_sum("agua.serve.batch.size") - before.hist_sum("agua.serve.batch.size")) /
        std::max(1.0, batches_run);
    values["serve.queue_wait_ms_p50"] = 1e3 * after.hist_p50("agua.overload.sojourn");
    const double hits = after.counter("agua.serve.cache.hits") - before.counter("agua.serve.cache.hits");
    const double misses = after.counter("agua.serve.cache.misses") - before.counter("agua.serve.cache.misses");
    values["serve.cache.hit_ratio"] = hits / std::max(1.0, hits + misses);
    values["serve.cache.evictions"] =
        after.counter("agua.serve.cache.evictions") - before.counter("agua.serve.cache.evictions");
  }
  emit(tally, values);
  return 0;
}

// --- serve workload helpers -----------------------------------------------

int cmd_rows(const Args& args) {
  common::set_default_thread_count(kThreads);
  const Clock::time_point t = Clock::now();
  apps::AbrBundle bundle = apps::make_abr_bundle(kAppSeed);
  const double bundle_s = since(t);
  Tally tally;
  tally.op(write_rows(args.str("out"), bundle.test, bundle.describer.concept_set().size())
               ? ""
               : "cannot write " + args.str("out"));
  const std::optional<Rows> rows = read_rows(args.str("out"));
  emit(tally, {{"apps.bundle_s", bundle_s},
               {"rows", rows ? static_cast<double>(rows->embeddings.size()) : 0.0},
               {"unique_rows", rows ? static_cast<double>(rows->unique_rows().size()) : 0.0}});
  return rows ? 0 : 1;
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) out.push_back(item);
  return out;
}

int cmd_load(const Args& args) {
  const std::optional<Rows> rows = read_rows(args.str("rows"));
  if (!rows) {
    std::fprintf(stderr, "cannot read rows file %s\n", args.str("rows").c_str());
    return 1;
  }
  perfbench::LoadOptions options;
  for (const std::string& p : split(args.str("ports"))) {
    options.ports.push_back(static_cast<std::uint16_t>(std::stoul(p)));
  }
  for (const std::string& p : split(args.str("pids"))) options.pids.push_back(std::stoi(p));
  options.mode = args.str("mode") == "hit" ? Expect::kHit : Expect::kMiss;
  options.first_key = static_cast<std::size_t>(args.num("skip", 0));
  const double seconds = args.num("seconds", 0);
  options.windows =
      seconds > 0 ? std::max<std::size_t>(
                        4, static_cast<std::size_t>(std::lround(seconds / perfbench::kWindowS)))
                  : 0;
  const std::string samples_path = args.str("samples");
  if (!samples_path.empty()) {
    options.sample_every = 37;
    options.sample_cap = 400;
  }
  const std::vector<Key> keys = perfbench::key_permutation(
      rows->unique_rows(), rows->num_outputs, rows->num_concepts,
      static_cast<std::uint64_t>(args.num("seed", 1)));
  const perfbench::LoadResult result = perfbench::run_load(options, keys);

  if (!samples_path.empty()) {
    std::ofstream out(samples_path);
    for (const auto& [key, body] : result.samples) {
      // One line per sample; the body's own trailing newline is dropped.
      const std::size_t end = body.find_last_not_of('\n');
      out << key.row << ' ' << key.output_class << ' ' << key.top_k << '\t'
          << body.substr(0, end == std::string::npos ? 0 : end + 1) << '\n';
    }
  }
  // One line per timed window, then the summary line.
  for (const perfbench::Window& w : result.windows) {
    std::printf("{\"port\":%zu,\"ok\":%zu,\"cf_ok\":%zu,\"seconds\":%s,\"server_cpu_s\":%s,"
                "\"p50_us\":%s,\"connect_us\":%s}\n",
                w.port_index, w.ok, w.counterfactual_ok, fmt(w.seconds).c_str(),
                fmt(w.server_cpu_s).c_str(), fmt(quantile(w.latency_us, 0.5)).c_str(),
                fmt(quantile(w.connect_us, 0.5)).c_str());
  }
  Tally tally;
  tally.attempted = result.attempted;
  tally.failed = result.failed;
  tally.reasons = result.failures;
  if (result.exhausted) tally.op("ran out of distinct keys");
  // Warm-up requests each server answered, by cache outcome.
  const bool miss = options.mode == Expect::kMiss;
  emit(tally, {{"warm_s", result.warm_s},
               {"warm_misses", static_cast<double>(miss ? kWarmMisses : kHotKeys)},
               {"warm_hits", static_cast<double>(miss ? 0 : kHotKeys)},
               {"keys_used", static_cast<double>(result.keys_used)},
               {"samples", static_cast<double>(result.samples.size())}});
  return 0;
}

/// The served model's fidelity, recounted, and every sampled /explain body
/// of `samples` (lines "row class top_k<TAB>body") against the reference.
int cmd_oracle(const Args& args) {
  std::optional<core::AguaModel> model = core::load_model_file(args.str("model"));
  const std::optional<Rows> rows = read_rows(args.str("rows"));
  if (!model || !rows) {
    std::fprintf(stderr, "cannot load %s or %s\n", args.str("model").c_str(),
                 args.str("rows").c_str());
    return 1;
  }
  Tally tally;
  const core::Dataset test = rows->dataset();
  const double fidelity = core::fidelity(*model, test);
  const double recount = perfbench::recount_fidelity(*model, test);
  tally.op(fidelity == recount ? "" : "fidelity " + fmt(fidelity) + " != recount " + fmt(recount));
  tally.op(fidelity > test.majority_fraction()
               ? ""
               : "fidelity " + fmt(fidelity) + " not above the majority share " +
                     fmt(test.majority_fraction()));

  if (!args.str("samples").empty()) {
    const perfbench::OutputLayer layer = perfbench::read_output_layer(*model);
    const std::string fingerprint = core::model_fingerprint(*model);
    std::ifstream in(args.str("samples"));
    std::size_t samples = 0;
    for (std::string line; std::getline(in, line); ++samples) {
      const std::size_t tab = line.find('\t');
      std::istringstream key(line.substr(0, tab));
      std::size_t row = 0, top_k = 0;
      long output_class = 0;
      key >> row >> output_class >> top_k;
      if (tab == std::string::npos || !key || row >= rows->embeddings.size()) {
        tally.op("malformed sample line");
        continue;
      }
      const Reference ref = perfbench::reference_explain(
          layer, model->concept_probs(rows->embeddings[row]),
          output_class < 0 ? kFactual : static_cast<std::size_t>(output_class));
      tally.op(perfbench::check_body(line.substr(tab + 1), ref, top_k, fingerprint));
    }
    tally.op(samples > 0 ? "" : "no sampled bodies to check");
  }
  emit(tally, {{"fidelity", fidelity}});
  return 0;
}

int cmd_probe(const Args& args) {
  common::set_default_thread_count(kThreads);
  std::optional<core::AguaModel> model = core::load_model_file(args.str("model"));
  const std::optional<Rows> rows = read_rows(args.str("rows"));
  if (!model || !rows) {
    std::fprintf(stderr, "cannot load %s or %s\n", args.str("model").c_str(),
                 args.str("rows").c_str());
    return 1;
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::size_t each_batch = static_cast<std::size_t>(std::max(1.0, std::round(args.num("each-batch", 3))));
  Tally tally;
  std::map<std::string, double> values;
  core_probe(*model, rows->embeddings, seed, each_batch, values);
  const std::vector<Key> keys = perfbench::key_permutation(
      rows->unique_rows(), rows->num_outputs, rows->num_concepts, seed);
  // serve.inproc_us on the workload's miss mix; the hit mix, which has no
  // core work, is the in-process side of net.transport_us.
  values["serve.inproc_us"] = inproc_probe(*model, rows->embeddings, keys, Expect::kMiss, tally);
  values["serve.inproc_hit_us"] = inproc_probe(*model, rows->embeddings, keys, Expect::kHit, tally);
  values["serve.json_parse_us"] = json_parse_probe(keys);
  emit(tally, values);
  return 0;
}

// --- self-test of the checks ----------------------------------------------

int cmd_selftest() {
  Tally tally;
  auto expect = [&](bool ok, const std::string& what) { tally.op(ok ? "" : what); };

  // A small untrained model: the reference must agree with the library on
  // it, and must disagree once one weight of Ω is perturbed.
  common::Rng rng(7);
  std::vector<concepts::Concept> list;
  for (int c = 0; c < 4; ++c) list.push_back({"concept-" + std::to_string(c), "selftest"});
  core::ConceptMapping::Config cm;
  cm.embedding_dim = 6;
  cm.num_concepts = 4;
  cm.num_levels = 3;
  cm.hidden_dim = 8;
  core::OutputMapping::Config om;
  om.concept_dim = 12;
  om.num_outputs = 3;
  core::AguaModel model(concepts::ConceptSet("selftest", list), core::ConceptMapping(cm, rng),
                        core::OutputMapping(om, rng));
  const perfbench::OutputLayer layer = perfbench::read_output_layer(model);
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.uniform() * 2.0 - 1.0;
    inputs.push_back(x);
    const std::vector<double> z = model.concept_probs(x);
    const core::Explanation got = core::explain_for_class(model, x, i % 3);
    expect(perfbench::compare(perfbench::reference_explain(layer, z, i % 3), got).empty(),
           "reference disagrees with the library on an unperturbed model");
    perfbench::OutputLayer perturbed = layer;
    perturbed.weights[i % 3][i % 12] += 1e-3;
    expect(!perfbench::compare(perfbench::reference_explain(perturbed, z, i % 3), got).empty(),
           "a perturbed weight went unnoticed");
    core::Explanation wrong = got;
    wrong.concept_weights[0] += 1e-6;
    expect(!perfbench::compare(perfbench::reference_explain(layer, z, i % 3), wrong).empty(),
           "a wrong concept weight went unnoticed");
  }

  // Body checks on bodies the serving layer rendered: a good body passes; a
  // perturbed Ω, a wrong top_k or another model's fingerprint fails.
  {
    serve::ExplainService service;
    service.start();
    service.install_model(model.clone(), "selftest");
    service.set_rows(inputs);
    const std::string fingerprint = core::model_fingerprint(model);
    for (std::uint32_t i = 0; i < 6; ++i) {
      const Key key{i, static_cast<std::int32_t>(i % 4) - 1, 2};
      const net::HttpResponse r = service.explain_http(explain_request(key, i + 1));
      const std::size_t target = key.output_class < 0 ? kFactual : static_cast<std::size_t>(key.output_class);
      const std::vector<double> z = model.concept_probs(inputs[i]);
      const Reference want = perfbench::reference_explain(layer, z, target);
      expect(r.status == 200 && perfbench::check_body(r.body, want, 2, fingerprint).empty(),
             "a good /explain body was refused");
      perfbench::OutputLayer perturbed = layer;
      perturbed.weights[want.output_class][i] += 1e-3;
      expect(!perfbench::check_body(r.body, perfbench::reference_explain(perturbed, z, target), 2,
                                    fingerprint).empty(),
             "a body from a perturbed weight went unnoticed");
      expect(!perfbench::check_body(r.body, want, 3, fingerprint).empty(),
             "a body with the wrong top_k went unnoticed");
      expect(!perfbench::check_body(r.body, want, 2, fingerprint + "0").empty(),
             "a body from another model went unnoticed");
    }
    service.stop();
  }

  // Response checks: a good answer passes; a dropped cache header, a wrong
  // cache kind, a wrong status or a wrong body fails.
  const std::string body = "{\"output_class\":1}";
  auto raw = [&](const std::string& status, const std::string& cache, const std::string& b) {
    std::string r = "HTTP/1.1 " + status + "\r\nContent-Type: application/json\r\nContent-Length: " +
                    std::to_string(b.size()) + "\r\n";
    if (!cache.empty()) r += "X-Agua-Cache: " + cache + "\r\n";
    r += "X-Agua-Trace-Id: 0123456789abcdef0123456789abcdef\r\nConnection: close\r\n\r\n" + b;
    return perfbench::parse_response(r);
  };
  using perfbench::check_response;
  expect(check_response(raw("200 OK", "miss", body), Expect::kMiss, nullptr).empty(),
         "a good miss was refused");
  expect(check_response(raw("200 OK", "hit", body), Expect::kHit, &body).empty(),
         "a good hit was refused");
  expect(!check_response(raw("200 OK", "", body), Expect::kMiss, nullptr).empty(),
         "a dropped X-Agua-Cache header went unnoticed");
  expect(!check_response(raw("200 OK", "hit", body), Expect::kMiss, nullptr).empty(),
         "a hit in a miss workload went unnoticed");
  expect(!check_response(raw("503 Service Unavailable", "miss", body), Expect::kMiss, nullptr).empty(),
         "a 503 went unnoticed");
  const std::string other = "{\"output_class\":2}";
  expect(!check_response(raw("200 OK", "hit", other), Expect::kHit, &body).empty(),
         "a wrong hit body went unnoticed");
  emit(tally, {});
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: agua_perf <offline|rows|load|oracle|probe|selftest|constants> [--flag value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "offline") return cmd_offline(args);
  if (command == "rows") return cmd_rows(args);
  if (command == "load") return cmd_load(args);
  if (command == "oracle") return cmd_oracle(args);
  if (command == "probe") return cmd_probe(args);
  if (command == "selftest") return cmd_selftest();
  if (command == "constants") {
    emit(Tally{}, {{"threads", static_cast<double>(kThreads)},
                   {"setups", static_cast<double>(kSetups)},
                   {"latency_quantile", perfbench::kLatencyQuantile}});
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}

// Shared plumbing of the medchain benchmark: command-line options, the
// result line, output checks, order statistics and the span tracer.
//
// The tracer lives in the benchmark, not in medchain: every span wraps a
// call the benchmark itself makes into one layer's public API, so the
// program under test is exactly the library the tier-1 tests build.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fault injected on purpose by the self-test; every kind must make at
/// least one output check fail.
enum class Corrupt {
  None,
  StateRoot,       ///< flip one byte of a proposed block's state_root
  SkipBlock,       ///< the validator never sees one block
  MissingReceipt,  ///< submit a tx with a nonce gap: it is never committed
  StateDrift,      ///< credit the validator's ledger behind the pipeline
  Unparseable,     ///< one query text that parses to nothing
  Revoke,          ///< revoke the researcher on one site
  PendingRequest,  ///< leave one analytics request un-completed
  Answer,          ///< perturb one composed answer before comparison
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< self-test size: a few blocks or queries
  Corrupt corrupt = Corrupt::None;
  std::string trace_out;  ///< span file written at exit (traced run)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The run's verdict: `failed` counts failed operations, a failed output
/// check included; `attempted` counts operations tried (txs + blocks, or
/// queries).
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// Output check: a false `ok` is one failed operation.
  bool check(bool ok, const std::string& what) {
    if (ok) return true;
    ++failed_;
    if (errors_shown_ < 20) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
      ++errors_shown_;
    }
    return false;
  }

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int errors_shown_ = 0;
  std::vector<Metric> metrics_;
};

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One timed call into a layer. `request` is the block height or the
/// query index; `parent` is the id of the span that caused it (-1: none).
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

/// In-memory span store; written out once, at exit. Thread-safe: layer
/// calls fanned across a ThreadPool record into it from the workers.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t next_id() { return next_id_++; }
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  /// Drop every span recorded so far.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }

  /// Spans recorded so far, in completion order.
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Sum of the durations (seconds) and number of spans named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double s = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& sp : spans_)
      if (name == sp.name) s += sp.seconds();
    return s;
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    std::size_t n = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& sp : spans_)
      if (name == sp.name) ++n;
    return n;
  }
  /// Durations (seconds) of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& sp : spans_)
      if (name == sp.name) out.push_back(sp.seconds());
    return out;
  }

  /// Write every span as one JSON object per line. False on I/O error.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: times from construction to destruction (or to end()).
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request,
        std::int64_t parent = -1)
      : tracer_(tracer) {
    span_.name = name;
    span_.request = request;
    span_.parent = parent;
    span_.id = tracer.next_id();
    span_.start_s = tracer.now();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { end(); }

  [[nodiscard]] std::int64_t id() const { return span_.id; }

  void end() {
    if (done_) return;
    done_ = true;
    span_.end_s = tracer_.now();
    tracer_.record(span_);
  }

 private:
  Tracer& tracer_;
  Span span_;
  bool done_ = false;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Host facts printed beside the timings: hardware threads and the active
/// SHA-256 kernel (its name and lane width).
struct HostFacts {
  unsigned nproc = 0;
  std::string hash_kernel;
  std::size_t hash_lanes = 0;
};
HostFacts host_facts();

/// Workloads (ingest.cpp, query.cpp). Each fills `report` and returns
/// after at least `opts.seconds` of measured episodes.
void run_ingest(const Options& opts, bool contracts, Report& report,
                Tracer& tracer);
void run_query(const Options& opts, Report& report, Tracer& tracer);

}  // namespace bench

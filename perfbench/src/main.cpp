// medbench: the medchain benchmark program.
//
//   medbench --workload ingest_contract|ingest_ledger|query_mix
//            --seed N --seconds S --trace 0|1
//            [--tiny] [--corrupt KIND] [--trace-out FILE]
//
// Prints a host-facts line, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
// output check passed. See perfbench/README.md.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "crypto/sha256_batch.hpp"

namespace bench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostFacts host_facts() {
  HostFacts facts;
  facts.nproc = std::thread::hardware_concurrency();
  const mc::crypto::HashKernel kernel = mc::crypto::active_hash_kernel();
  facts.hash_kernel = mc::crypto::hash_kernel_name(kernel);
  facts.hash_lanes = mc::crypto::hash_lane_width();
  return facts;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& sp : spans()) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                  "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  sp.name, static_cast<long long>(sp.id),
                  static_cast<long long>(sp.parent),
                  static_cast<unsigned long long>(sp.request), sp.start_s,
                  sp.end_s);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace bench

namespace {

using bench::Corrupt;

bool parse_corrupt(const std::string& s, Corrupt& out) {
  static const std::pair<const char*, Corrupt> kinds[] = {
      {"state_root", Corrupt::StateRoot},
      {"skip_block", Corrupt::SkipBlock},
      {"missing_receipt", Corrupt::MissingReceipt},
      {"state_drift", Corrupt::StateDrift},
      {"unparseable", Corrupt::Unparseable},
      {"revoke", Corrupt::Revoke},
      {"pending_request", Corrupt::PendingRequest},
      {"answer", Corrupt::Answer},
  };
  for (const auto& [name, kind] : kinds) {
    if (s == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "medbench: %s\nusage: medbench --workload "
               "ingest_contract|ingest_ledger|query_mix --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt KIND] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out") {
      opts.trace_out = argv[++i];
    } else if (arg == "--corrupt") {
      if (!parse_corrupt(argv[++i], opts.corrupt))
        return usage("unknown --corrupt kind");
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  const bench::HostFacts host = bench::host_facts();
  std::printf("{\"host\":{\"nproc\":%u,\"hash_kernel\":\"%s\","
              "\"hash_lanes\":%zu},\"workload\":\"%s\",\"seed\":%llu,"
              "\"trace\":%d}\n",
              host.nproc, host.hash_kernel.c_str(), host.hash_lanes,
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  std::fflush(stdout);

  bench::Report report;
  bench::Tracer tracer;
  if (opts.workload == "ingest_contract") {
    bench::run_ingest(opts, /*contracts=*/true, report, tracer);
  } else if (opts.workload == "ingest_ledger") {
    bench::run_ingest(opts, /*contracts=*/false, report, tracer);
  } else if (opts.workload == "query_mix") {
    bench::run_query(opts, report, tracer);
  } else {
    return usage("unknown --workload");
  }

  if (opts.trace) {
    report.metric("host.nproc", host.nproc, "count");
    report.metric("host.hash_lanes", static_cast<double>(host.hash_lanes),
                  "count");
    report.metric("fail_ratio",
                  bench::ratio(static_cast<double>(report.failed()),
                               static_cast<double>(report.attempted())),
                  "ratio");
    if (!opts.trace_out.empty() && !tracer.write(opts.trace_out))
      report.check(false, "cannot write span file " + opts.trace_out);
  }

  std::string line = "{\"correct\": ";
  line += report.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted());
  line += ", \"failed\": " + std::to_string(report.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const bench::Metric& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += first ? "" : ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::puts(line.c_str());
  return report.correct() ? 0 : 1;
}

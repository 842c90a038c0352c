// Researcher-query workload: query_mix.
//
// Closed loop, one researcher client against one long-lived
// TransformedNetwork (hospitals + wearable + genome sites, policy gate
// on, researcher granted everywhere, 4 query threads) calling query_text
// from a fixed mix: 60% count/average aggregates with varied cohort
// predicates (some prune sites), 15% retrieves, 11% federated logistic
// training, 14% MLP training. Every request leaves history in
// the analytics contract, so gate cost that grows with history shows.
// The query count per episode is fixed: latency depends on that history,
// so the run length is part of the workload's definition.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "contracts/abi.hpp"
#include "core/compose.hpp"
#include "core/transform.hpp"
#include "crypto/sha256.hpp"
#include "med/anchor.hpp"

namespace bench {
namespace {

using namespace mc;

struct Size {
  std::size_t patients = 0;
  std::size_t hospitals = 0;
  std::size_t queries = 0;  ///< per episode; part of the definition
};

Size size_for(bool tiny) {
  return tiny ? Size{1'500, 3, 12} : Size{20'000, 8, 200};
}

enum class Kind { Aggregate, Retrieve, Logistic, Mlp };

struct QueryText {
  Kind kind;
  std::string text;
};

std::string num(std::int64_t v) { return std::to_string(v); }

/// The query mix: exactly 60% aggregates (six templates in equal parts),
/// 15% retrieves, 11% logistic and 14% MLP training, in a seeded order
/// with seeded predicate bounds. A fixed composition keeps the work of a
/// run the same across seeds; the seed moves only order and bounds. With
/// more MLP than logistic queries p90 falls inside the MLP cluster, not
/// on the gap between the two training kinds, where it jumps run to run.
std::vector<QueryText> make_queries(std::uint64_t seed, std::size_t n,
                                    Corrupt corrupt) {
  static const char* kFields[] = {"systolic_bp", "glucose", "cholesterol",
                                  "bmi", "heart_rate", "hba1c"};
  Rng rng(seed ^ 0x9e7a11ULL);
  const std::size_t aggregates = n * 60 / 100;
  const std::size_t retrieves = n * 15 / 100;
  const std::size_t logistic = n * 11 / 100;
  std::vector<QueryText> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string label = i % 2 == 0 ? "stroke" : "cancer";
    if (i < aggregates) {
      // Cohort predicates on fields some sites lack prune those sites.
      std::string text;
      switch (i % 6) {
        case 0:
          text = "count smokers with age over " + num(rng.range(30, 85));
          break;
        case 1:
          text = "count all patients";
          break;
        case 2:
          text = std::string("average of ") + kFields[rng.uniform(6)] +
                 " for smokers";
          break;
        case 3:
          text = std::string("average of ") + kFields[rng.uniform(6)] +
                 " for women with age over " + num(rng.range(25, 80));
          break;
        case 4:
          text = "count patients with heart_rate over " +
                 num(rng.range(55, 90));
          break;
        default:
          text = "average of glucose for men with hba1c over " +
                 num(rng.range(5, 6));
          break;
      }
      out.push_back({Kind::Aggregate, text});
    } else if (i < aggregates + retrieves) {
      out.push_back({Kind::Retrieve, "retrieve age and glucose for age over " +
                                         num(rng.range(80, 92))});
    } else if (i < aggregates + retrieves + logistic) {
      out.push_back({Kind::Logistic, "predict " + label +
                                         " using logistic rounds 5 for age over " +
                                         num(rng.range(20, 40))});
    } else {
      out.push_back({Kind::Mlp, "predict " + label +
                                    " using mlp rounds 3 for age over " +
                                    num(rng.range(30, 40))});
    }
  }
  for (std::size_t i = n; i > 1; --i)
    std::swap(out[i - 1], out[rng.uniform(i)]);
  if (corrupt == Corrupt::Unparseable && n > 0)
    out[n / 2] = {Kind::Aggregate, "hello world"};
  return out;
}

/// The query service settings of the network, the trusted-mode reference
/// and the traced re-drive alike.
core::GlobalQueryConfig query_config() {
  core::GlobalQueryConfig config;
  config.threads = 4;
  return config;
}

std::unique_ptr<core::TransformedNetwork> build_network(const Size& size,
                                                        std::uint64_t seed) {
  core::TransformedNetworkConfig config;
  config.cohort.patients = size.patients;
  config.cohort.seed = seed * 7919 + 7;
  config.federation.hospital_count = size.hospitals;
  config.federation.seed = seed * 104'729 + 23;
  config.query = query_config();
  auto net = std::make_unique<core::TransformedNetwork>(config);
  net->grant_researcher_everywhere();
  return net;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// The composed answer: rows, aggregate or FedAvg parameters.
bool same_answer(const core::QueryExecution& a, const core::QueryExecution& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    if (!same_bits(a.rows[i], b.rows[i])) return false;
  return a.schema_rows.size() == b.schema_rows.size() &&
         a.aggregate.count == b.aggregate.count &&
         same_bits(a.aggregate.mean, b.aggregate.mean) &&
         same_bits(a.aggregate.m2, b.aggregate.m2) &&
         same_bits(a.model_params, b.model_params) &&
         a.sites_executed == b.sites_executed &&
         a.sites_pruned == b.sites_pruned && a.rows_matched == b.rows_matched;
}

/// Trusted-mode answers (no policy gate) over the same LocalSystems.
std::vector<std::optional<core::QueryExecution>> reference_answers(
    const core::TransformedNetwork& net, const core::GlobalQueryConfig& config,
    const std::vector<QueryText>& queries) {
  std::vector<const core::LocalSystem*> sites;
  for (const auto& local : net.local_systems()) sites.push_back(&local);
  core::GlobalQueryService trusted(sites, config);
  std::vector<std::optional<core::QueryExecution>> out;
  out.reserve(queries.size());
  for (const QueryText& q : queries) {
    const auto qv = learn::parse_query(q.text);
    if (qv.has_value())
      out.emplace_back(trusted.submit(*qv));
    else
      out.emplace_back(std::nullopt);
  }
  return out;
}

struct Episode {
  std::vector<double> query_ms;
  double wall_s = 0;
  std::vector<std::optional<core::QueryExecution>> answers;
  std::uint64_t digests = 0;
  std::size_t analytics_cells = 0;
  std::size_t events = 0;
};

constexpr contracts::Word kShadowBridge = 0x5bad0b;

/// The traced query path: the analytics gate rebuilt from public
/// contracts (its own store, policy, analytics contract and bridge, with
/// the same registrations and grants as the network), and
/// GlobalQueryService::submit_text re-driven over the network's
/// LocalSystems, each layer call a span.
class ShadowService {
 public:
  ShadowService(const core::TransformedNetwork& net,
                const core::GlobalQueryConfig& config, Tracer& tracer)
      : config_(config),
        researcher_(net.researcher()),
        tracer_(tracer),
        policy_(store_, kDeployer, 1),
        analytics_(store_, kDeployer, 1),
        monitor_(store_),
        bridge_(analytics_, policy_, monitor_, kShadowBridge),
        pool_(config.threads) {
    analytics_.init(kDeployer, kShadowBridge, policy_.id());
    for (const auto& dataset : net.site_datasets()) {
      const contracts::Word owner = fnv1a(dataset.config().name);
      policy_.register_dataset(owner, med::dataset_word(dataset));
      policy_.grant(owner, med::dataset_word(dataset), researcher_,
                    contracts::kPermRead | contracts::kPermCompute);
    }
    for (const auto& local : net.local_systems()) sites_.push_back(&local);
  }

  std::optional<core::QueryExecution> submit_text(const std::string& text,
                                                  std::uint64_t request) {
    Scope query(tracer_, "query", request);
    std::optional<learn::QueryVector> parsed;
    {
      Scope s(tracer_, "query.parse", request, query.id());
      parsed = learn::parse_query(text);
    }
    if (!parsed.has_value()) return std::nullopt;
    const learn::QueryVector& qv = *parsed;
    core::QueryExecution ex;
    ex.qv = qv;
    ex.sites_total = sites_.size();

    std::vector<const core::LocalSystem*> permitted;
    std::vector<contracts::Word> ids;
    {
      Scope stage(tracer_, "gate.request_stage", request, query.id());
      for (const core::LocalSystem* site : sites_) {
        if (!site->can_match(qv.cohort)) {
          ++ex.sites_pruned;
          continue;
        }
        const contracts::Word id = next_request_id_++;
        bool ok = false;
        {
          Scope s(tracer_, "gate.request", request, stage.id());
          ok = bridge_.submit_request(researcher_, id,
                                      static_cast<contracts::Word>(qv.task),
                                      fnv1a(site->name()), qv.digest());
        }
        if (ok) {
          permitted.push_back(site);
          ids.push_back(id);
        } else {
          ++ex.sites_denied;
        }
      }
    }

    const bool train = qv.task == learn::TaskKind::TrainModel;
    const std::size_t rounds =
        train ? (qv.federated_rounds > 0 ? qv.federated_rounds
                                         : config_.federated_rounds)
              : 1;
    const char* local_name =
        train ? "local.train"
              : (qv.task == learn::TaskKind::AggregateStats ? "local.aggregate"
                                                            : "local.retrieve");
    std::vector<core::LocalTaskResult> results(permitted.size());
    std::vector<double> global_params;
    for (std::size_t round = 0; round < rounds; ++round) {
      {
        Scope stage(tracer_, "local.stage", request, query.id());
        std::mutex results_mutex;
        learn::SgdConfig sgd = config_.local_sgd;
        sgd.seed = config_.local_sgd.seed + round * 7919;
        const std::int64_t parent = stage.id();
        pool_.parallel_for(permitted.size(), [&](std::size_t i) {
          Scope s(tracer_, local_name, request, parent);
          core::LocalTaskResult r = permitted[i]->execute(
              qv, global_params.empty() ? nullptr : &global_params, sgd,
              config_.hidden_dim);
          std::lock_guard<std::mutex> lock(results_mutex);
          r.flops += results[i].flops;
          r.result_bytes += results[i].result_bytes;
          results[i] = std::move(r);
        });
      }
      if (train) {
        Scope s(tracer_, "compose", request, query.id());
        std::vector<double> averaged = core::compose_parameters(results);
        if (!averaged.empty()) global_params = std::move(averaged);
      }
    }

    {
      Scope s(tracer_, "compose", request, query.id());
      switch (qv.task) {
        case learn::TaskKind::RetrieveData:
          ex.rows = core::compose_rows(results);
          for (const auto& r : results)
            ex.schema_rows.insert(ex.schema_rows.end(), r.schema_rows.begin(),
                                  r.schema_rows.end());
          break;
        case learn::TaskKind::AggregateStats:
          ex.aggregate = core::compose_aggregate(results);
          break;
        case learn::TaskKind::TrainModel:
          ex.model_params = global_params.empty()
                                ? core::compose_parameters(results)
                                : global_params;
          break;
      }
    }
    for (const auto& r : results) {
      if (r.executed) ++ex.sites_executed;
      ex.total_flops += r.flops;
      ex.result_bytes_moved += r.result_bytes;
      ex.rows_matched += r.rows_matched;
    }

    {
      Scope stage(tracer_, "gate.complete_stage", request, query.id());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const contracts::Word digest =
            results[i].executed ? (qv.digest() ^ fnv1a(results[i].site)) : 0;
        Scope s(tracer_, "gate.complete", request, stage.id());
        analytics_.complete(kShadowBridge, ids[i], digest);
      }
    }
    ex.site_results = std::move(results);
    return ex;
  }

  [[nodiscard]] contracts::AnalyticsContract& analytics() { return analytics_; }
  [[nodiscard]] contracts::Word issued() const { return next_request_id_ - 1; }

 private:
  static constexpr contracts::Word kDeployer = 0xc0de;

  core::GlobalQueryConfig config_;
  contracts::Word researcher_;
  Tracer& tracer_;
  vm::ContractStore store_;
  contracts::PolicyContract policy_;
  contracts::AnalyticsContract analytics_;
  oracle::MonitorNode monitor_;
  oracle::OffchainBridge bridge_;
  std::vector<const core::LocalSystem*> sites_;
  contracts::Word next_request_id_ = 1;
  ThreadPool pool_;
};

/// Every request id 1..issued ends Done, and there is no further one.
void check_requests(contracts::AnalyticsContract& analytics,
                    contracts::Word issued, Report& report) {
  contracts::Word id = 1;
  for (contracts::RequestStatus status; (status = analytics.status(id)) !=
                                        contracts::RequestStatus::None;
       ++id)
    report.check(status == contracts::RequestStatus::Done,
                 "analytics request " + std::to_string(id) +
                     " did not end Completed");
  report.check(id - 1 == issued, "analytics contract holds " +
                                     std::to_string(id - 1) +
                                     " requests, the gate issued " +
                                     std::to_string(issued));
}

/// Answer checks shared by the untraced and traced episodes.
void check_answer(const std::optional<core::QueryExecution>& got,
                  const std::optional<core::QueryExecution>& want,
                  const std::string& text, bool perturb, Report& report) {
  if (!report.check(got.has_value(), "query text did not parse: " + text))
    return;
  report.check(got->sites_denied == 0, "policy gate denied a site: " + text);
  core::QueryExecution answer = *got;
  if (perturb) answer.aggregate.mean = std::nextafter(answer.aggregate.mean, 1e300);
  report.check(want.has_value() && same_answer(answer, *want),
               "answer differs from the trusted-mode reference: " + text);
}

/// Workload generation + federation build + contract deployment.
std::unique_ptr<core::TransformedNetwork> setup(const Options& opts,
                                                const Size& size,
                                                std::vector<QueryText>& queries) {
  queries = make_queries(opts.seed, size.queries, opts.corrupt);
  auto net = build_network(size, opts.seed);
  if (opts.corrupt == Corrupt::Revoke)
    net->revoke_researcher(net->site_datasets().front().config().name);
  return net;
}

contracts::Word issued_requests(
    const std::vector<std::optional<core::QueryExecution>>& answers) {
  contracts::Word n = 0;
  for (const auto& a : answers)
    if (a.has_value()) n += a->sites_total - a->sites_pruned;
  return n;
}

}  // namespace

void run_query(const Options& opts, Report& report, Tracer& tracer) {
  const Size size = size_for(opts.tiny);
  std::vector<double> setup_s;
  std::vector<double> query_ms;
  double wall_s = 0;
  std::size_t answered = 0;
  std::vector<std::optional<core::QueryExecution>> reference;
  std::optional<Episode> first;
  std::vector<QueryText> queries;

  // Episodes repeat while another one of the same length still fits in
  // --seconds (at least one always runs), so a run does not overshoot. A
  // traced run drives one, then adds one traced episode.
  const auto run_start = Clock::now();
  while (true) {
    const auto episode_start = Clock::now();
    // setup_s is a median: the first episode's network is built five
    // times (the first four are dropped), later episodes build their own.
    std::unique_ptr<core::TransformedNetwork> net;
    const int setups = setup_s.empty() && !opts.trace ? 5 : 1;
    for (int i = 0; i < setups; ++i) {
      net.reset();
      const auto setup_start = Clock::now();
      net = setup(opts, size, queries);
      setup_s.push_back(seconds_since(setup_start));
    }
    if (reference.empty())
      reference = reference_answers(*net, query_config(), queries);

    Episode ep;
    const std::uint64_t digests_before = crypto::Sha256::digest_count();
    const auto queries_start = Clock::now();
    for (const QueryText& q : queries) {
      report.attempt();
      const auto start = Clock::now();
      std::optional<core::QueryExecution> answer = net->query_text(q.text);
      ep.query_ms.push_back(seconds_since(start) * 1e3);
      ep.answers.push_back(std::move(answer));
    }
    ep.wall_s = seconds_since(queries_start);
    ep.digests = crypto::Sha256::digest_count() - digests_before;
    if (opts.corrupt == Corrupt::PendingRequest) {
      const contracts::Word id = issued_requests(ep.answers) + 1;
      net->analytics().request(net->researcher(), id, 0,
                               fnv1a(net->local_systems().front().name()), 0);
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool perturb =
          opts.corrupt == Corrupt::Answer && i == queries.size() / 2;
      check_answer(ep.answers[i], reference[i], queries[i].text, perturb,
                   report);
    }
    check_requests(net->analytics(), issued_requests(ep.answers), report);
    if (const vm::DeployedContract* c = net->chain().contract(net->analytics().id()))
      ep.analytics_cells = c->storage.size();
    ep.events = net->chain().events().size();

    query_ms.insert(query_ms.end(), ep.query_ms.begin(), ep.query_ms.end());
    wall_s += ep.wall_s;
    answered += queries.size();
    if (!first.has_value()) first = std::move(ep);

    if (opts.trace ||
        seconds_since(run_start) + seconds_since(episode_start) > opts.seconds)
      break;
  }

  if (opts.trace) {
    // Traced episode: same seed, fresh network, submit_text re-driven
    // through the layers' public calls; it must give the same answers.
    std::vector<QueryText> tq;
    auto net = setup(opts, size, tq);
    ShadowService shadow(*net, query_config(), tracer);
    for (std::size_t i = 0; i < tq.size(); ++i) {
      const auto got = shadow.submit_text(tq[i].text, i);
      check_answer(got, first->answers[i], tq[i].text, false, report);
    }
    check_requests(shadow.analytics(), shadow.issued(), report);
  }

  if (!opts.trace) {
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report.metric("latency_ms_p50", quantile(query_ms, 0.5), "ms");
    report.metric("latency_ms_p90", quantile(query_ms, 0.9), "ms");
    report.metric("throughput_per_s",
                  ratio(static_cast<double>(answered), wall_s), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const Episode& ep = *first;
  const std::size_t n = queries.size();
  std::uint64_t flops = 0, scanned = 0, matched = 0, bytes = 0;
  std::size_t executed = 0, pruned = 0, denied = 0;
  for (const auto& a : ep.answers) {
    if (!a.has_value()) continue;
    executed += a->sites_executed;
    pruned += a->sites_pruned;
    denied += a->sites_denied;
    for (const auto& r : a->site_results) {
      flops += r.flops;
      scanned += r.rows_scanned;
      matched += r.rows_matched;
      bytes += r.result_bytes;
    }
  }

  // Per-query sums of each direct child of the query span.
  const std::vector<Span> spans = tracer.spans();
  std::vector<double> total(n, 0), children(n, 0), gate(n, 0), local(n, 0),
      request_s(n, 0);
  std::vector<std::size_t> requests(n, 0);
  std::vector<std::int64_t> query_id(n, -1);
  for (const Span& sp : spans)
    if (std::strcmp(sp.name, "query") == 0 && sp.request < n) {
      total[sp.request] = sp.seconds();
      query_id[sp.request] = sp.id;
    }
  for (const Span& sp : spans) {
    if (sp.request >= n) continue;
    const std::size_t q = sp.request;
    if (sp.parent == query_id[q]) {
      children[q] += sp.seconds();
      if (std::strncmp(sp.name, "gate.", 5) == 0) gate[q] += sp.seconds();
      if (std::strcmp(sp.name, "local.stage") == 0) local[q] += sp.seconds();
    }
    if (std::strcmp(sp.name, "gate.request") == 0) {
      request_s[q] += sp.seconds();
      ++requests[q];
    }
  }
  const auto mean_request_us = [&](std::size_t from, std::size_t to) {
    double s = 0;
    std::size_t c = 0;
    for (std::size_t q = from; q < to; ++q) {
      s += request_s[q];
      c += requests[q];
    }
    return ratio(s * 1e6, static_cast<double>(c));
  };
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  double train_total = 0, train_local = 0, agg_total = 0, agg_gate = 0;
  double query_sum = 0, child_sum = 0;
  for (std::size_t q = 0; q < n; ++q) {
    query_sum += total[q];
    child_sum += children[q];
    if (queries[q].kind == Kind::Logistic || queries[q].kind == Kind::Mlp) {
      train_total += total[q];
      train_local += local[q];
    }
    if (queries[q].kind == Kind::Aggregate && q >= n - tenth) {
      agg_total += total[q];
      agg_gate += gate[q];
    }
  }
  const auto per_call_ms = [&](const char* name) {
    return ratio(tracer.total(name) * 1e3,
                 static_cast<double>(tracer.count(name)));
  };

  report.metric("query_ms_p50", quantile(ep.query_ms, 0.5), "ms");
  report.metric("query_ms_p90", quantile(ep.query_ms, 0.9), "ms");
  report.metric("query_per_s", ratio(static_cast<double>(n), ep.wall_s), "q/s");
  report.metric("query.parse_us", per_call_ms("query.parse") * 1e3, "us");
  report.metric("gate.request_us_per_site", per_call_ms("gate.request") * 1e3, "us");
  report.metric("gate.complete_us_per_site", per_call_ms("gate.complete") * 1e3, "us");
  report.metric("gate.growth",
                ratio(mean_request_us(n - tenth, n), mean_request_us(0, tenth)),
                "ratio");
  report.metric("local.aggregate_ms", per_call_ms("local.aggregate"), "ms");
  report.metric("local.retrieve_ms", per_call_ms("local.retrieve"), "ms");
  report.metric("local.train_ms", per_call_ms("local.train"), "ms");
  report.metric("local.flops", static_cast<double>(flops), "count");
  report.metric("local.rows_scanned", static_cast<double>(scanned), "count");
  report.metric("local.rows_matched", static_cast<double>(matched), "count");
  report.metric("local.result_bytes", static_cast<double>(bytes), "bytes");
  report.metric("compose.ms",
                ratio(tracer.total("compose") * 1e3, static_cast<double>(n)), "ms");
  report.metric("query.sites_executed", static_cast<double>(executed), "count");
  report.metric("query.sites_pruned", static_cast<double>(pruned), "count");
  report.metric("query.sites_denied", static_cast<double>(denied), "count");
  report.metric("contracts.analytics_cells", static_cast<double>(ep.analytics_cells), "count");
  report.metric("contracts.events", static_cast<double>(ep.events), "count");
  report.metric("crypto.digests", static_cast<double>(ep.digests), "count");
  report.metric("trace.query_coverage", ratio(child_sum, query_sum), "ratio");
  report.metric("trace.train_local_share", ratio(train_local, train_total), "ratio");
  report.metric("trace.aggregate_gate_share_end", ratio(agg_gate, agg_total), "ratio");
  report.metric("trace.overhead",
                ratio(quantile(tracer.durations("query"), 0.5) * 1e3,
                      quantile(ep.query_ms, 0.5)) - 1.0,
                "ratio");
}

}  // namespace bench

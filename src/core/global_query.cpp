#include "core/global_query.hpp"


#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"

namespace mc::core {

GlobalQueryService::GlobalQueryService(std::vector<const LocalSystem*> sites,
                                       GlobalQueryConfig config,
                                       std::optional<ChainGate> gate)
    : sites_(std::move(sites)),
      config_(config),
      gate_(std::move(gate)),
      pool_(config.threads) {}

std::optional<QueryExecution> GlobalQueryService::submit_text(
    const std::string& text) {
  Stopwatch parse_timer;
  const auto qv = learn::parse_query(text);
  const double parse_s = parse_timer.seconds();
  if (!qv.has_value()) return std::nullopt;
  QueryExecution execution = submit(*qv);
  execution.timings.parse_s = parse_s;
  return execution;
}

bool GlobalQueryService::gate_site(const LocalSystem& site,
                                   const learn::QueryVector& qv,
                                   contracts::Word request_id) {
  if (!gate_.has_value()) return true;  // trusted mode
  const contracts::Word dataset = fnv1a(site.name());
  const contracts::Word tool = static_cast<contracts::Word>(qv.task);
  return gate_->bridge->submit_request(gate_->requester, request_id, tool,
                                       dataset, qv.digest());
}

QueryExecution GlobalQueryService::submit(const learn::QueryVector& qv) {
  QueryExecution execution;
  execution.qv = qv;
  execution.sites_total = sites_.size();

  // --- stage: on-chain gate -------------------------------------------
  Stopwatch gate_timer;
  std::vector<const LocalSystem*> permitted;
  std::vector<contracts::Word> request_ids;
  for (const LocalSystem* site : sites_) {
    // Decomposition optimization: a site whose statistics cannot
    // intersect the cohort predicate is skipped before any on-chain
    // work is spent on it.
    if (!site->can_match(qv.cohort)) {
      ++execution.sites_pruned;
      continue;
    }
    const contracts::Word request_id =
        gate_.has_value() ? gate_->next_request_id++ : 0;
    if (gate_site(*site, qv, request_id)) {
      permitted.push_back(site);
      request_ids.push_back(request_id);
    } else {
      ++execution.sites_denied;
    }
  }
  execution.timings.gate_s = gate_timer.seconds();

  // --- stage: decompose + parallel local execution --------------------
  Stopwatch exec_timer;
  const std::size_t rounds =
      qv.task == learn::TaskKind::TrainModel
          ? (qv.federated_rounds > 0 ? qv.federated_rounds
                                     : config_.federated_rounds)
          : 1;

  std::vector<LocalTaskResult> results(permitted.size());
  std::vector<double> global_params;  // grows across federated rounds

  for (std::size_t round = 0; round < rounds; ++round) {
    // Guards result aggregation inside a ThreadPool parallel_for — the
    // pool owns the threads; this is only the reduction lock for its
    // worker callbacks (mc::Mutex keeps it clang-thread-safety-visible).
    Mutex results_mutex;
    learn::SgdConfig sgd = config_.local_sgd;
    sgd.seed = config_.local_sgd.seed + round * 7919;
    pool_.parallel_for(permitted.size(), [&](std::size_t i) {
      LocalTaskResult r = permitted[i]->execute(
          qv, global_params.empty() ? nullptr : &global_params, sgd,
          config_.hidden_dim);
      MutexLock lock(results_mutex);
      // Accumulate FLOPs/bytes across rounds; keep last round's payload.
      r.flops += results[i].flops;
      r.result_bytes += results[i].result_bytes;
      results[i] = std::move(r);
    });
    if (qv.task == learn::TaskKind::TrainModel) {
      const std::vector<double> averaged = compose_parameters(results);
      if (!averaged.empty()) global_params = averaged;
    }
  }
  execution.timings.execute_s = exec_timer.seconds();

  // --- stage: compose ---------------------------------------------------
  Stopwatch compose_timer;
  switch (qv.task) {
    case learn::TaskKind::RetrieveData:
      execution.rows = compose_rows(results);
      for (const auto& r : results)
        execution.schema_rows.insert(execution.schema_rows.end(),
                                     r.schema_rows.begin(),
                                     r.schema_rows.end());
      break;
    case learn::TaskKind::AggregateStats:
      execution.aggregate = compose_aggregate(results);
      if (qv.dp_epsilon > 0) {
        // Privatize the composed release (noise added once, globally —
        // per-site noise would compose the budgets instead).
        med::DpConfig dp;
        dp.epsilon = qv.dp_epsilon;
        dp.seed = qv.digest();  // deterministic per released query
        execution.noisy = med::privatize(
            execution.aggregate,
            med::bounds_for_field(qv.aggregate_field), dp);
      }
      break;
    case learn::TaskKind::TrainModel:
      execution.model_params =
          global_params.empty() ? compose_parameters(results) : global_params;
      break;
  }
  execution.timings.compose_s = compose_timer.seconds();

  for (const auto& r : results) {
    if (r.executed) ++execution.sites_executed;
    execution.total_flops += r.flops;
    execution.result_bytes_moved += r.result_bytes;
    execution.rows_matched += r.rows_matched;
  }

  // Close the on-chain loop: post each permitted request's result digest
  // back through the analytics contract (bridge identity).
  if (gate_.has_value()) {
    Stopwatch complete_timer;
    for (std::size_t i = 0; i < request_ids.size(); ++i) {
      const contracts::Word result_digest =
          results[i].executed ? (qv.digest() ^ fnv1a(results[i].site)) : 0;
      gate_->analytics->complete(gate_->bridge->identity(), request_ids[i],
                                 result_digest);
    }
    execution.timings.gate_s += complete_timer.seconds();
  }

  execution.site_results = std::move(results);
  return execution;
}

}  // namespace mc::core

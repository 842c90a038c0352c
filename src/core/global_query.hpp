// Global query service (paper Figure 5): the top layer users talk to.
//
// Pipeline: parse (NLP-lite or direct query vector) -> on-chain policy
// gate per site (analytics contract request through each site's bridge)
// -> decompose into per-site tasks -> parallel local execution at the
// data -> compose (rows / aggregates / FedAvg parameter average).
// Per-stage timings, per-site FLOPs and boundary-crossing bytes are
// recorded for the F5/F6 experiments.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "contracts/analytics.hpp"
#include "contracts/policy.hpp"
#include "core/compose.hpp"
#include "core/local_system.hpp"
#include "med/privacy.hpp"
#include "oracle/bridge.hpp"

namespace mc::core {

/// Optional on-chain enforcement environment. Without it the service
/// runs "trusted mode" (no policy gate) — used by unit tests and as an
/// ablation in bench_f6.
struct ChainGate {
  contracts::PolicyContract* policy = nullptr;
  contracts::AnalyticsContract* analytics = nullptr;
  oracle::OffchainBridge* bridge = nullptr;  ///< relays + completes
  contracts::Word requester = 0;
  contracts::Word next_request_id = 1;
};

struct StageTimings {
  double parse_s = 0;
  double gate_s = 0;     ///< on-chain request/permission + completion
  double execute_s = 0;  ///< parallel local analytics
  double compose_s = 0;

  [[nodiscard]] double total() const {
    return parse_s + gate_s + execute_s + compose_s;
  }
};

struct QueryExecution {
  learn::QueryVector qv;
  StageTimings timings;

  std::size_t sites_total = 0;
  std::size_t sites_executed = 0;
  std::size_t sites_denied = 0;
  std::size_t sites_pruned = 0;  ///< skipped via site statistics

  std::vector<LocalTaskResult> site_results;
  std::vector<std::vector<double>> rows;
  std::vector<med::RawRow> schema_rows;  ///< when qv.requested_schema set
  med::Aggregate aggregate;
  std::optional<med::NoisyAggregate> noisy;  ///< when qv.dp_epsilon > 0
  std::vector<double> model_params;

  std::uint64_t total_flops = 0;
  std::uint64_t result_bytes_moved = 0;
  std::size_t rows_matched = 0;
};

struct GlobalQueryConfig {
  learn::SgdConfig local_sgd{/*epochs=*/2, /*batch_size=*/32,
                             /*learning_rate=*/0.5, /*lr_decay=*/1.0,
                             /*l2=*/1e-4, /*seed=*/31};
  std::size_t federated_rounds = 10;  ///< used when qv does not override
  std::size_t hidden_dim = 16;
  std::size_t threads = 4;
};

class GlobalQueryService {
 public:
  GlobalQueryService(std::vector<const LocalSystem*> sites,
                     GlobalQueryConfig config = {},
                     std::optional<ChainGate> gate = std::nullopt);

  /// Natural-language entry point; nullopt when the text doesn't parse.
  std::optional<QueryExecution> submit_text(const std::string& text);

  /// Query-vector entry point (the paper's direct submission path).
  QueryExecution submit(const learn::QueryVector& qv);

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

 private:
  /// Run the policy gate for one site; true when permitted.
  bool gate_site(const LocalSystem& site, const learn::QueryVector& qv,
                 contracts::Word request_id);

  std::vector<const LocalSystem*> sites_;
  GlobalQueryConfig config_;
  std::optional<ChainGate> gate_;
  ThreadPool pool_;
};

}  // namespace mc::core

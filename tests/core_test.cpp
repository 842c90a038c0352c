// Core transform tests: local systems, composition, global query
// pipeline, scheduler, architecture baselines, TransformedNetwork.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stopwatch.hpp"
#include "core/baselines.hpp"
#include "core/compose.hpp"
#include "core/global_query.hpp"
#include "core/local_system.hpp"
#include "core/scheduler.hpp"
#include "core/transform.hpp"
#include "learn/metrics.hpp"

namespace mc::core {
namespace {

std::vector<med::CommonRecord> records_of(std::size_t n, std::uint64_t seed) {
  std::vector<med::CommonRecord> out;
  for (const auto& p :
       med::generate_cohort({.patients = n, .seed = seed}))
    out.push_back(med::to_common(p));
  return out;
}

learn::QueryVector aggregate_query() {
  learn::QueryVector qv;
  qv.task = learn::TaskKind::AggregateStats;
  qv.aggregate_field = "systolic_bp";
  return qv;
}

TEST(LocalSystem, RetrieveProjectsCohort) {
  LocalSystem site("s0", records_of(200, 1));
  learn::QueryVector qv;
  qv.task = learn::TaskKind::RetrieveData;
  qv.cohort.where = {{"age", 70, 200}};
  qv.cohort.select = {"age", "glucose"};
  const LocalTaskResult result =
      site.execute(qv, nullptr, learn::SgdConfig{});
  EXPECT_TRUE(result.executed);
  EXPECT_EQ(result.rows_scanned, 200u);
  EXPECT_EQ(result.rows.size(), result.rows_matched);
  for (const auto& row : result.rows) EXPECT_GE(row[0], 70.0);
  EXPECT_EQ(result.result_bytes, result.rows.size() * 2 * sizeof(double));
}

TEST(LocalSystem, TrainReturnsParamsAndWeight) {
  LocalSystem site("s0", records_of(300, 2));
  learn::QueryVector qv;
  qv.task = learn::TaskKind::TrainModel;
  qv.label = learn::LabelKind::Stroke;
  learn::SgdConfig sgd;
  sgd.epochs = 3;
  const LocalTaskResult result = site.execute(qv, nullptr, sgd);
  EXPECT_TRUE(result.executed);
  EXPECT_EQ(result.model_params.size(), med::kFeatureCount + 1);
  EXPECT_DOUBLE_EQ(result.sample_weight, 300.0);
  EXPECT_GT(result.flops, 0u);
}

TEST(LocalSystem, EmptyCohortDoesNotExecuteTraining) {
  LocalSystem site("s0", records_of(50, 3));
  learn::QueryVector qv;
  qv.task = learn::TaskKind::TrainModel;
  qv.cohort.where = {{"age", 500, 600}};  // matches nobody
  const LocalTaskResult result =
      site.execute(qv, nullptr, learn::SgdConfig{});
  EXPECT_FALSE(result.executed);
  EXPECT_DOUBLE_EQ(result.sample_weight, 0.0);
}

TEST(Compose, ParametersAreSampleWeighted) {
  LocalTaskResult a, b;
  a.executed = b.executed = true;
  a.model_params = {1.0, 1.0};
  a.sample_weight = 100;
  b.model_params = {3.0, 3.0};
  b.sample_weight = 300;
  const auto avg = compose_parameters({a, b});
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0], 2.5);  // (100*1 + 300*3) / 400

  // Shape mismatches and empty results are skipped, not fatal.
  LocalTaskResult c;
  c.executed = true;
  c.model_params = {9.0};
  c.sample_weight = 1;
  EXPECT_EQ(compose_parameters({a, b, c}).size(), 2u);
  EXPECT_TRUE(compose_parameters({}).empty());
}

TEST(Compose, RowsAndAggregates) {
  LocalTaskResult a, b;
  a.rows = {{1.0}, {2.0}};
  b.rows = {{3.0}};
  EXPECT_EQ(compose_rows({a, b}).size(), 3u);

  a.aggregate.add(10);
  a.aggregate.add(20);
  b.aggregate.add(30);
  const med::Aggregate merged = compose_aggregate({a, b});
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.mean, 20.0);
}

class GlobalQueryTest : public ::testing::Test {
 protected:
  GlobalQueryTest() {
    for (int s = 0; s < 3; ++s)
      sites_.emplace_back("site-" + std::to_string(s),
                          records_of(150, 10 + s));
    for (const auto& site : sites_) ptrs_.push_back(&site);
  }

  std::vector<LocalSystem> sites_;
  std::vector<const LocalSystem*> ptrs_;
  GlobalQueryConfig config_;
};

TEST_F(GlobalQueryTest, AggregateMatchesDirectComputation) {
  GlobalQueryService service(ptrs_, config_);
  const QueryExecution exec = service.submit(aggregate_query());
  EXPECT_EQ(exec.sites_executed, 3u);
  EXPECT_EQ(exec.sites_denied, 0u);

  med::Aggregate direct;
  for (const auto& site : sites_)
    direct.merge(
        med::aggregate_field(site.records(), {}, "systolic_bp"));
  EXPECT_EQ(exec.aggregate.count, direct.count);
  EXPECT_NEAR(exec.aggregate.mean, direct.mean, 1e-9);
  EXPECT_EQ(exec.aggregate.count, 450u);
}

TEST_F(GlobalQueryTest, FederatedTrainingProducesUsableModel) {
  GlobalQueryService service(ptrs_, config_);
  learn::QueryVector qv;
  qv.task = learn::TaskKind::TrainModel;
  qv.label = learn::LabelKind::Stroke;
  qv.federated_rounds = 20;
  const QueryExecution exec = service.submit(qv);
  ASSERT_EQ(exec.model_params.size(), med::kFeatureCount + 1);

  // The composed model must beat chance on a fresh cohort.
  learn::LogisticModel model(med::kFeatureCount);
  model.set_parameters(exec.model_params);
  const auto test = learn::dataset_from_records(records_of(400, 99),
                                                learn::LabelKind::Stroke);
  EXPECT_GT(learn::auc(model.predict(test.x), test.y), 0.6);
  EXPECT_GT(exec.total_flops, 0u);
  // Only parameters crossed site boundaries.
  EXPECT_LT(exec.result_bytes_moved, 3u * 5u * 1'000u);
}

TEST_F(GlobalQueryTest, FederatedMlpVariant) {
  GlobalQueryService service(ptrs_, config_);
  learn::QueryVector qv;
  qv.task = learn::TaskKind::TrainModel;
  qv.label = learn::LabelKind::Stroke;
  qv.model = learn::ModelKind::Mlp;
  qv.federated_rounds = 10;
  const QueryExecution exec = service.submit(qv);
  // MLP parameter vector: d*h + h + h + 1.
  const std::size_t d = med::kFeatureCount, h = 16;
  ASSERT_EQ(exec.model_params.size(), d * h + h + h + 1);

  learn::Mlp model(d, h);
  model.set_parameters(exec.model_params);
  const auto test = learn::dataset_from_records(records_of(400, 98),
                                                learn::LabelKind::Stroke);
  EXPECT_GT(learn::auc(model.predict(test.x), test.y), 0.55);
}

TEST_F(GlobalQueryTest, TextEntryPointEndToEnd) {
  GlobalQueryService service(ptrs_, config_);
  const auto exec = service.submit_text("count smokers with age over 60");
  ASSERT_TRUE(exec.has_value());
  EXPECT_EQ(exec->qv.task, learn::TaskKind::AggregateStats);
  EXPECT_GT(exec->aggregate.count, 0u);
  EXPECT_LT(exec->aggregate.count, 450u);  // filtered cohort
  EXPECT_FALSE(service.submit_text("gibberish").has_value());
}

TEST_F(GlobalQueryTest, StageTimingsPopulated) {
  GlobalQueryService service(ptrs_, config_);
  const QueryExecution exec = service.submit(aggregate_query());
  EXPECT_GT(exec.timings.execute_s, 0.0);
  EXPECT_GE(exec.timings.total(), exec.timings.execute_s);
}

TEST(GlobalQueryGate, PolicyDenialSkipsSites) {
  // Build two sites, grant compute on only one.
  std::vector<LocalSystem> sites;
  sites.emplace_back("site-a", records_of(80, 20));
  sites.emplace_back("site-b", records_of(80, 21));

  vm::ContractStore store;
  contracts::PolicyContract policy(store, 1, 1);
  contracts::AnalyticsContract analytics(store, 1, 1);
  oracle::MonitorNode monitor(store);
  constexpr contracts::Word kBridge = 0xb;
  ASSERT_TRUE(analytics.init(1, kBridge, policy.id()));
  oracle::OffchainBridge bridge(analytics, policy, monitor, kBridge);

  constexpr contracts::Word kResearcher = 0x77;
  ASSERT_TRUE(policy.register_dataset(fnv1a("site-a"), fnv1a("site-a")));
  ASSERT_TRUE(policy.register_dataset(fnv1a("site-b"), fnv1a("site-b")));
  ASSERT_TRUE(policy.grant(fnv1a("site-a"), fnv1a("site-a"), kResearcher,
                           contracts::kPermCompute));
  // site-b grants nothing.

  ChainGate gate;
  gate.policy = &policy;
  gate.analytics = &analytics;
  gate.bridge = &bridge;
  gate.requester = kResearcher;
  GlobalQueryService service({&sites[0], &sites[1]}, {}, gate);

  const QueryExecution exec = service.submit(aggregate_query());
  EXPECT_EQ(exec.sites_denied, 1u);
  EXPECT_EQ(exec.sites_executed, 1u);
  EXPECT_EQ(exec.aggregate.count, 80u);  // only site-a contributed

  // The permitted request completed on-chain through the bridge.
  EXPECT_EQ(analytics.status(1), contracts::RequestStatus::Done);
}

TEST(GlobalQueryGate, StageTimingsStayWithinWallTime) {
  // Each stage is timed once: parse only the parse, the on-chain
  // completion loop inside the gate stage. Their sum cannot exceed the
  // wall time of the whole call.
  std::vector<LocalSystem> sites;
  sites.emplace_back("site-a", records_of(80, 20));
  sites.emplace_back("site-b", records_of(80, 21));

  vm::ContractStore store;
  contracts::PolicyContract policy(store, 1, 1);
  contracts::AnalyticsContract analytics(store, 1, 1);
  oracle::MonitorNode monitor(store);
  constexpr contracts::Word kBridge = 0xb;
  ASSERT_TRUE(analytics.init(1, kBridge, policy.id()));
  oracle::OffchainBridge bridge(analytics, policy, monitor, kBridge);
  constexpr contracts::Word kResearcher = 0x77;
  for (const char* name : {"site-a", "site-b"}) {
    ASSERT_TRUE(policy.register_dataset(fnv1a(name), fnv1a(name)));
    ASSERT_TRUE(policy.grant(fnv1a(name), fnv1a(name), kResearcher,
                             contracts::kPermCompute));
  }
  ChainGate gate;
  gate.policy = &policy;
  gate.analytics = &analytics;
  gate.bridge = &bridge;
  gate.requester = kResearcher;
  GlobalQueryService service({&sites[0], &sites[1]}, {}, gate);

  for (int i = 0; i < 5; ++i) {
    Stopwatch wall;
    const auto exec = service.submit_text("count smokers with age over 60");
    const double wall_s = wall.seconds();
    ASSERT_TRUE(exec.has_value());
    EXPECT_LE(exec->timings.total(), wall_s);
    EXPECT_GT(exec->timings.gate_s, 0.0);
  }
}

TEST(Scheduler, PrefersDataLocality) {
  // Hub matches the sites' speed, so shipping data buys nothing.
  MoveComputeScheduler scheduler(
      {{1e10, 0}, {1e10, 0}}, /*hub=*/{1e10, 0}, /*wan=*/125e6);
  std::vector<SchedTask> tasks = {
      {"t0", 0, 1e9, 1 << 20, false},
      {"t1", 1, 1e9, 1 << 20, false},
  };
  const Schedule schedule = scheduler.schedule(tasks);
  EXPECT_EQ(schedule.moved_to_hub, 0u);
  EXPECT_DOUBLE_EQ(schedule.locality(), 1.0);
  EXPECT_EQ(schedule.total_bytes_moved, 0u);
  // Two tasks at two sites run in parallel: makespan = one task.
  EXPECT_NEAR(schedule.makespan_s, 0.1, 1e-9);
}

TEST(Scheduler, OverloadedSiteSpillsToHub) {
  // One slow site, many tasks: later tasks ship to the big hub.
  MoveComputeScheduler scheduler({{1e9, 0}}, {1e11, 0}, 1e9);
  std::vector<SchedTask> tasks;
  for (int i = 0; i < 6; ++i)
    tasks.push_back({"t" + std::to_string(i), 0, 5e9, 10 << 20, false});
  const Schedule schedule = scheduler.schedule(tasks);
  EXPECT_GT(schedule.moved_to_hub, 0u);
  EXPECT_LT(schedule.locality(), 1.0);
  EXPECT_GT(schedule.total_bytes_moved, 0u);
}

TEST(Scheduler, HubOnlyTasksAlwaysShip) {
  MoveComputeScheduler scheduler({{1e12, 0}}, {1e10, 0}, 1e9);
  const Schedule schedule =
      scheduler.schedule({{"big", 0, 1e9, 1 << 20, true}});
  EXPECT_EQ(schedule.moved_to_hub, 1u);
}

TEST(Scheduler, DeadSiteReschedulesToReplica) {
  MoveComputeScheduler scheduler({{1e10, 0}, {1e10, 0}, {1e10, 0}},
                                 /*hub=*/{1e10, 0}, /*wan=*/125e6);
  scheduler.set_site_alive(0, false);
  SchedTask task{"t0", /*data_site=*/0, 1e9, 1 << 20, false};
  task.replica_sites = {1};
  const Schedule schedule = scheduler.schedule({task});
  ASSERT_EQ(schedule.placements.size(), 1u);
  const Placement& p = schedule.placements[0];
  EXPECT_TRUE(p.rescheduled);
  EXPECT_FALSE(p.failed);
  EXPECT_TRUE(p.at_data);            // a replica still counts as local
  EXPECT_EQ(p.site, 1u);
  EXPECT_EQ(p.bytes_moved, 0u);
  EXPECT_EQ(schedule.reschedules, 1u);
  EXPECT_EQ(schedule.failed_tasks, 0u);
}

TEST(Scheduler, DeadSiteWithoutReplicasShipsToHub) {
  MoveComputeScheduler scheduler({{1e10, 0}}, {1e10, 0}, 125e6);
  scheduler.set_site_alive(0, false);
  const Schedule schedule =
      scheduler.schedule({{"t0", 0, 1e9, 1 << 20, false}});
  const Placement& p = schedule.placements[0];
  EXPECT_TRUE(p.rescheduled);
  EXPECT_FALSE(p.failed);
  EXPECT_EQ(p.site, kHubSite);
  EXPECT_GT(p.bytes_moved, 0u);
  EXPECT_EQ(schedule.moved_to_hub, 1u);
}

TEST(Scheduler, RetryBudgetExhaustionFailsTask) {
  // Site 0 and both replicas are dead; the two probes burn the whole
  // budget, so the hub is no longer reachable either.
  MoveComputeScheduler scheduler({{1e10, 0}, {1e10, 0}, {1e10, 0}},
                                 {1e10, 0}, 125e6, /*retry_budget=*/2);
  scheduler.set_site_alive(0, false);
  scheduler.set_site_alive(1, false);
  scheduler.set_site_alive(2, false);
  SchedTask task{"t0", 0, 1e9, 1 << 20, false};
  task.replica_sites = {1, 2};
  const Schedule schedule = scheduler.schedule({task});
  EXPECT_TRUE(schedule.placements[0].failed);
  EXPECT_EQ(schedule.failed_tasks, 1u);

  // A wider budget leaves one probe for the hub: the task survives.
  MoveComputeScheduler generous({{1e10, 0}, {1e10, 0}, {1e10, 0}},
                                {1e10, 0}, 125e6, /*retry_budget=*/3);
  generous.set_site_alive(0, false);
  generous.set_site_alive(1, false);
  generous.set_site_alive(2, false);
  const Schedule rescued = generous.schedule({task});
  EXPECT_FALSE(rescued.placements[0].failed);
  EXPECT_EQ(rescued.placements[0].site, kHubSite);
}

TEST(Scheduler, PerTaskRetriesAttributeDegradation) {
  // Four tasks, four fates: clean local placement (0 retries), one
  // replica probe (1), replica probe then hub (2), budget exhausted (2).
  // Slow WAN keeps the hub a last resort, so live-replica tasks stay local.
  MoveComputeScheduler scheduler({{1e10, 0}, {1e10, 0}, {1e10, 0}},
                                 {1e10, 0}, /*wan=*/1e6, /*retry_budget=*/2);
  scheduler.set_site_alive(0, false);
  scheduler.set_site_alive(2, false);

  SchedTask clean{"clean", /*data_site=*/1, 1e9, 1 << 20, false};
  SchedTask replica_hit{"replica", 0, 1e9, 1 << 20, false};
  replica_hit.replica_sites = {1};
  SchedTask via_hub{"hub", 0, 1e9, 1 << 20, false};
  via_hub.replica_sites = {2};  // dead probe, then the hub
  SchedTask doomed{"doomed", 0, 1e9, 1 << 20, false};
  doomed.replica_sites = {2, 2};  // two dead probes burn the budget

  const Schedule schedule =
      scheduler.schedule({clean, replica_hit, via_hub, doomed});
  ASSERT_EQ(schedule.placements.size(), 4u);
  EXPECT_EQ(schedule.placements[0].retries, 0u);
  EXPECT_EQ(schedule.placements[1].retries, 1u);
  EXPECT_EQ(schedule.placements[1].site, 1u);
  EXPECT_EQ(schedule.placements[2].retries, 2u);
  EXPECT_EQ(schedule.placements[2].site, kHubSite);
  EXPECT_EQ(schedule.placements[3].retries, 2u);
  EXPECT_TRUE(schedule.placements[3].failed);
  // Schedule-wide totals stay as before; retries refine, not replace.
  EXPECT_EQ(schedule.reschedules, 3u);
  EXPECT_EQ(schedule.failed_tasks, 1u);
}

TEST(Scheduler, HubOnlyTaskFailsWhenHubIsDown) {
  MoveComputeScheduler scheduler({{1e10, 0}}, {1e12, 0}, 125e6);
  scheduler.set_hub_alive(false);
  const Schedule schedule =
      scheduler.schedule({{"big", 0, 1e9, 1 << 20, /*hub_only=*/true}});
  EXPECT_TRUE(schedule.placements[0].failed);
  EXPECT_EQ(schedule.failed_tasks, 1u);
}

TEST(Scheduler, DeadlineMissesAreReported) {
  MoveComputeScheduler scheduler({{1e9, 0}}, {1e9, 0}, /*wan=*/1e6);
  SchedTask task{"slow", 0, /*flops=*/5e9, 1 << 20, false};
  task.deadline_s = 1.0;  // the 5s compute cannot make this
  const Schedule schedule = scheduler.schedule({task});
  EXPECT_FALSE(schedule.placements[0].failed);
  EXPECT_TRUE(schedule.placements[0].deadline_missed);
  EXPECT_EQ(schedule.deadline_misses, 1u);
}

TEST(Baselines, TransformedDominates) {
  ArchWorkload w;
  const ArchReport duplicated = run_duplicated(w);
  const ArchReport transformed = run_transformed(w);
  const ArchReport centralized = run_centralized(w);

  EXPECT_LT(transformed.makespan_s, duplicated.makespan_s);
  EXPECT_LT(transformed.makespan_s, centralized.makespan_s);
  EXPECT_LT(transformed.bytes_moved, centralized.bytes_moved);
  EXPECT_LT(centralized.bytes_moved, duplicated.bytes_moved);
  EXPECT_LT(transformed.energy_j, duplicated.energy_j);
  EXPECT_DOUBLE_EQ(transformed.useful_fraction, 1.0);
  EXPECT_NEAR(duplicated.useful_fraction,
              1.0 / static_cast<double>(w.chain_nodes), 1e-12);
}

TEST(Baselines, DuplicatedWasteGrowsLinearlyInNodes) {
  ArchWorkload w;
  w.chain_nodes = 8;
  const double e8 = run_duplicated(w).energy_j;
  w.chain_nodes = 16;
  const double e16 = run_duplicated(w).energy_j;
  EXPECT_NEAR(e16 / e8, 2.0, 0.15);

  // Transformed energy is independent of replication width.
  ArchWorkload t;
  t.chain_nodes = 8;
  const double t8 = run_transformed(t).energy_j;
  t.chain_nodes = 16;
  EXPECT_DOUBLE_EQ(run_transformed(t).energy_j, t8);
}

TEST(TransformedNetwork, EndToEndQueryWithPolicy) {
  TransformedNetworkConfig config;
  config.cohort.patients = 400;
  config.federation.hospital_count = 3;
  TransformedNetwork net(config);
  EXPECT_EQ(net.local_systems().size(), 5u);  // 3 hospitals + 2 modality

  // Without grants, every site denies (the unfiltered count query is
  // not prunable, so all five reach the gate).
  const auto denied = net.query_text("count all patients");
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(denied->sites_executed, 0u);
  EXPECT_EQ(denied->sites_denied, 5u);

  net.grant_researcher_everywhere();
  const auto allowed = net.query_text("count all patients");
  ASSERT_TRUE(allowed.has_value());
  EXPECT_EQ(allowed->sites_denied, 0u);
  EXPECT_EQ(allowed->sites_executed, 5u);
  EXPECT_GT(allowed->aggregate.count, 0u);

  // Revoking one site shrinks the cohort.
  ASSERT_TRUE(net.revoke_researcher("hospital-0"));
  const auto partial = net.query_text("count all patients");
  EXPECT_EQ(partial->sites_denied, 1u);
  EXPECT_LT(partial->aggregate.count, allowed->aggregate.count);

  // A smoker-filtered query is pruned at the modality sites, whose
  // records carry no smoking data — they are skipped before the gate.
  const auto pruned = net.query_text("count smokers");
  EXPECT_GT(pruned->sites_pruned, 0u);
  EXPECT_EQ(pruned->sites_denied + pruned->sites_executed +
                pruned->sites_pruned,
            5u);
}

TEST(TransformedNetwork, AnchorsAuditAndTamperDetection) {
  TransformedNetworkConfig config;
  config.cohort.patients = 200;
  config.federation.hospital_count = 2;
  TransformedNetwork net(config);

  EXPECT_TRUE(net.audit_site("hospital-0").clean());
  net.mutable_site_dataset(0).tamper(0, 50.0);
  EXPECT_FALSE(net.audit_site("hospital-0").digest_matches);
  // The owner can re-anchor only legitimate updates; after refresh the
  // (tampered) state is the new committed truth — which is precisely why
  // update_digest is owner-gated on-chain.
  EXPECT_TRUE(net.refresh_site_anchor("hospital-0"));
  EXPECT_TRUE(net.audit_site("hospital-0").clean());
}

TEST(TransformedNetwork, CoreDatasetIntegratesFederation) {
  TransformedNetworkConfig config;
  config.cohort.patients = 500;
  config.federation.hospital_count = 3;
  config.federation.token_missing_rate = 0.0;
  TransformedNetwork net(config);

  med::IntegrationReport report;
  const auto& core = net.core_dataset(&report);
  EXPECT_EQ(core.size(), 500u);
  EXPECT_EQ(report.patients_merged, 500u);
  EXPECT_GT(report.mean_modalities_per_patient, 1.0);
}

TEST(TransformedNetwork, MonitorSeesPolicyEvents) {
  TransformedNetworkConfig config;
  config.cohort.patients = 100;
  config.federation.hospital_count = 2;
  TransformedNetwork net(config);
  std::size_t grants_seen = 0;
  net.monitor().subscribe(contracts::kEvAccessGranted,
                          [&](const vm::Event&) { ++grants_seen; });
  net.grant_researcher_everywhere();
  net.monitor().poll();
  EXPECT_EQ(grants_seen, 4u);  // 2 hospitals + wearable + genome
}

}  // namespace
}  // namespace mc::core

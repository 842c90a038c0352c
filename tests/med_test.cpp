// Medical data substrate tests: generator, schemas, datasets, linkage,
// query engine, anchoring.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "contracts/registry.hpp"
#include "crypto/sha256_batch.hpp"
#include "med/anchor.hpp"
#include "med/dataset.hpp"
#include "med/generator.hpp"
#include "med/linkage.hpp"
#include "med/query.hpp"
#include "med/schema.hpp"

namespace mc::med {
namespace {

CohortConfig small_cohort(std::size_t n = 300) {
  CohortConfig config;
  config.patients = n;
  config.seed = 99;
  return config;
}

TEST(Generator, DeterministicAndSized) {
  const auto a = generate_cohort(small_cohort());
  const auto b = generate_cohort(small_cohort());
  ASSERT_EQ(a.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].demographics.uid, b[i].demographics.uid);
    EXPECT_EQ(a[i].outcomes.stroke, b[i].outcomes.stroke);
    EXPECT_EQ(serialize_record(a[i]), serialize_record(b[i]));
  }
}

TEST(Generator, PlausibleRanges) {
  const auto cohort = generate_cohort(small_cohort(500));
  for (const auto& p : cohort) {
    const CommonRecord r = to_common(p);
    EXPECT_GE(r.age, 20.0);
    EXPECT_LE(r.age, 96.0);
    EXPECT_GE(r.systolic_bp, 90.0);
    EXPECT_LE(r.systolic_bp, 210.0);
    EXPECT_GE(r.hba1c, 4.0);
    EXPECT_GE(r.snp_burden, 0.0);
    EXPECT_LE(r.snp_burden, 16.0);  // 8 SNPs x 2 alleles
    EXPECT_GT(p.outcomes.stroke_risk, 0.0);
    EXPECT_LT(p.outcomes.stroke_risk, 1.0);
  }
}

TEST(Generator, RiskModelMonotonicInRiskFactors) {
  RiskModel model;
  CommonRecord base;
  base.age = 55;
  base.systolic_bp = 120;
  base.glucose = 100;
  base.hba1c = 5.5;
  base.activity_hours = 1.0;
  const double p0 = model.probability(base);

  CommonRecord smoker = base;
  smoker.smoker = 1;
  EXPECT_GT(model.probability(smoker), p0);

  CommonRecord hypertensive = base;
  hypertensive.systolic_bp = 170;
  EXPECT_GT(model.probability(hypertensive), p0);

  CommonRecord active = base;
  active.activity_hours = 3.0;
  EXPECT_LT(model.probability(active), p0);
}

TEST(Generator, OutcomeRateTracksLatentRisk) {
  const auto cohort = generate_cohort(small_cohort(4'000));
  double mean_risk = 0, rate = 0;
  for (const auto& p : cohort) {
    mean_risk += p.outcomes.stroke_risk;
    rate += p.outcomes.stroke ? 1.0 : 0.0;
  }
  mean_risk /= static_cast<double>(cohort.size());
  rate /= static_cast<double>(cohort.size());
  EXPECT_NEAR(rate, mean_risk, 0.02);
}

TEST(Schema, NormalizeDenormalizeRoundTrip) {
  const auto cohort = generate_cohort(small_cohort(10));
  for (const auto kind :
       {SchemaKind::CommonV1, SchemaKind::HospitalLegacyA,
        SchemaKind::HospitalLegacyB, SchemaKind::WearableVendor,
        SchemaKind::GenomeLab}) {
    const CommonRecord original = to_common(cohort[0]);
    const RawRow row = denormalize(original, kind, "token");
    const PartialRecord back = normalize(row, kind);
    // Every field the schema carries must round-trip exactly.
    for (const auto& rule : schema_def(kind).rules) {
      ASSERT_TRUE(back.fields.count(rule.canonical) == 1)
          << schema_def(kind).name << " lost " << rule.canonical;
      const auto features = features_of(original);
      double expected = 0;
      for (std::size_t i = 0; i < kFeatureNames.size(); ++i)
        if (kFeatureNames[i] == rule.canonical) expected = features[i];
      EXPECT_NEAR(back.fields.at(rule.canonical), expected, 1e-9)
          << schema_def(kind).name << "." << rule.canonical;
    }
  }
}

TEST(Schema, UnitConversionsApplied) {
  CommonRecord r;
  r.cholesterol = 193.35;  // mg/dL == 5.0 mmol/L
  r.glucose = 90.1;        // mg/dL == 5.0 mmol/L
  const RawRow a = denormalize(r, SchemaKind::HospitalLegacyA, "");
  bool found = false;
  for (const auto& [name, value] : a.fields) {
    if (name == "chol_mmol") {
      EXPECT_NEAR(value, 5.0, 1e-6);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  const RawRow b = denormalize(r, SchemaKind::HospitalLegacyB, "");
  for (const auto& [name, value] : b.fields) {
    if (name == "glukose_mmol") {
      EXPECT_NEAR(value, 5.0, 1e-6);
    }
  }
}

TEST(Schema, SexCodingOffsetInLegacyA) {
  CommonRecord male;
  male.sex = 1.0;
  const RawRow row = denormalize(male, SchemaKind::HospitalLegacyA, "");
  for (const auto& [name, value] : row.fields) {
    if (name == "sex_code") {
      EXPECT_DOUBLE_EQ(value, 2.0);  // 2 = male
    }
  }
  EXPECT_DOUBLE_EQ(
      normalize(row, SchemaKind::HospitalLegacyA).fields.at("sex"), 1.0);
}

TEST(Schema, OutcomesOnlyWhereSchemaHasThem) {
  CommonRecord r;
  r.label_stroke = 1.0;
  const RawRow hospital = denormalize(r, SchemaKind::HospitalLegacyA, "");
  EXPECT_TRUE(hospital.outcome_stroke.has_value());
  const RawRow wearable = denormalize(r, SchemaKind::WearableVendor, "");
  EXPECT_FALSE(wearable.outcome_stroke.has_value());
}

TEST(Federation, SplitsWithOverlapAndCoverage) {
  const auto cohort = generate_cohort(small_cohort(1'000));
  FederationConfig config;
  config.hospital_count = 4;
  config.second_hospital_rate = 0.25;
  config.wearable_coverage = 0.5;
  config.genome_coverage = 0.3;
  const Federation fed = build_federation(cohort, config);

  ASSERT_EQ(fed.sites.size(), 6u);  // 4 hospitals + wearable + genome
  std::size_t hospital_rows = 0;
  for (std::size_t h = 0; h < 4; ++h) hospital_rows += fed.sites[h].size();
  // Every patient has a home hospital; ~25% a second one.
  EXPECT_GE(hospital_rows, 1'000u);
  EXPECT_NEAR(static_cast<double>(hospital_rows), 1'250.0, 60.0);
  EXPECT_NEAR(static_cast<double>(fed.sites[4].size()), 500.0, 60.0);
  EXPECT_NEAR(static_cast<double>(fed.sites[5].size()), 300.0, 60.0);
}

TEST(Federation, TokensAgreeAcrossSites) {
  const auto cohort = generate_cohort(small_cohort(50));
  const Federation fed = build_federation(cohort, {});
  const PatientUid uid = cohort[0].demographics.uid;
  EXPECT_EQ(fed.sites[0].token_for(uid), fed.sites[1].token_for(uid));
  EXPECT_NE(fed.sites[0].token_for(uid),
            fed.sites[0].token_for(cohort[1].demographics.uid));
}

TEST(SiteDataset, DigestChangesOnAppendAndTamper) {
  const auto cohort = generate_cohort(small_cohort(20));
  SiteDataset site({"s", SchemaKind::CommonV1, 0.0, 1},
                   {cohort.begin(), cohort.begin() + 10},
                   crypto::sha256("nat-key"));
  const Hash256 d0 = site.content_digest();
  EXPECT_EQ(d0, site.content_digest());  // stable

  SiteDataset copy = site;
  copy.append(cohort[15]);
  EXPECT_NE(copy.content_digest(), d0);

  SiteDataset tampered = site;
  tampered.tamper(3, 25.0);
  EXPECT_NE(tampered.content_digest(), d0);
}

TEST(Linkage, MergesModalitiesAcrossSites) {
  const auto cohort = generate_cohort(small_cohort(400));
  FederationConfig config;
  config.token_missing_rate = 0.0;
  const Federation fed = build_federation(cohort, config);

  RecordLinker linker;
  for (const auto& site : fed.sites)
    linker.add_site(site.export_rows(), site.config().schema);
  IntegrationReport report;
  const auto merged = linker.integrate(&report);

  EXPECT_EQ(report.rows_unlinkable, 0u);
  EXPECT_EQ(report.patients_merged, 400u);  // every patient linked
  EXPECT_EQ(merged.size(), 400u);
  EXPECT_EQ(report.labeled_patients, 400u);  // every home hospital labels
  EXPECT_GT(report.mean_modalities_per_patient, 1.5);
  // Wearable/genome fields exist only for covered subsets, rest imputed.
  EXPECT_GT(report.imputed_fields, 0u);
}

TEST(Linkage, MissingTokensDropRows) {
  const auto cohort = generate_cohort(small_cohort(200));
  FederationConfig config;
  config.token_missing_rate = 0.5;
  const Federation fed = build_federation(cohort, config);
  RecordLinker linker;
  for (const auto& site : fed.sites)
    linker.add_site(site.export_rows(), site.config().schema);
  IntegrationReport report;
  (void)linker.integrate(&report);
  EXPECT_NEAR(static_cast<double>(report.rows_unlinkable) /
                  static_cast<double>(report.rows_in),
              0.5, 0.08);
  EXPECT_LT(report.patients_merged, 200u);
}

TEST(Linkage, ImputationFillsEveryFeature) {
  const auto cohort = generate_cohort(small_cohort(100));
  const Federation fed = build_federation(cohort, {});
  RecordLinker linker;
  for (const auto& site : fed.sites)
    linker.add_site(site.export_rows(), site.config().schema);
  for (const auto& record : linker.integrate()) {
    for (const double v : features_of(record))
      EXPECT_FALSE(std::isnan(v));
  }
}

TEST(Query, FieldAccessAndFilters) {
  CommonRecord r;
  r.age = 65;
  r.sex = 1;
  r.smoker = 1;
  r.label_stroke = 1;
  EXPECT_DOUBLE_EQ(*field_value(r, "age"), 65.0);
  EXPECT_DOUBLE_EQ(*field_value(r, "label_stroke"), 1.0);
  EXPECT_FALSE(field_value(r, "nonexistent").has_value());

  Query query;
  query.where = {{"age", 60, 120}, {"smoker", 0.5, 1.5}};
  EXPECT_TRUE(matches(r, query));
  query.where.push_back({"sex", -0.5, 0.5});  // female only
  EXPECT_FALSE(matches(r, query));
}

TEST(Query, RunQueryProjectsSelectedFields) {
  const auto cohort = generate_cohort(small_cohort(200));
  std::vector<CommonRecord> records;
  for (const auto& p : cohort) records.push_back(to_common(p));

  Query query;
  query.where = {{"age", 70, 200}};
  query.select = {"age", "systolic_bp"};
  QueryStats stats;
  const auto rows = run_query(records, query, &stats);
  EXPECT_EQ(stats.rows_scanned, 200u);
  EXPECT_EQ(stats.rows_matched, rows.size());
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_GE(row[0], 70.0);
  }
}

TEST(Query, AggregateMergeMatchesPooled) {
  const auto cohort = generate_cohort(small_cohort(500));
  std::vector<CommonRecord> all;
  for (const auto& p : cohort) all.push_back(to_common(p));

  Query query;  // unfiltered
  const Aggregate pooled =
      aggregate_field(all, query, "systolic_bp");

  // Split into 3 "sites", aggregate separately, merge.
  Aggregate merged;
  for (int part = 0; part < 3; ++part) {
    std::vector<CommonRecord> chunk;
    for (std::size_t i = part; i < all.size(); i += 3) chunk.push_back(all[i]);
    merged.merge(aggregate_field(chunk, query, "systolic_bp"));
  }
  EXPECT_EQ(merged.count, pooled.count);
  EXPECT_NEAR(merged.mean, pooled.mean, 1e-9);
  EXPECT_NEAR(merged.variance(), pooled.variance(), 1e-6);
}

class AggregateMergeOrder : public ::testing::TestWithParam<int> {};

TEST_P(AggregateMergeOrder, OrderInsensitive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(10, 3));

  Aggregate forward, backward;
  for (const double v : values) forward.add(v);
  Aggregate tail_agg;
  for (std::size_t i = values.size(); i-- > 100;) tail_agg.add(values[i]);
  Aggregate head_agg;
  for (std::size_t i = 0; i < 100; ++i) head_agg.add(values[i]);
  backward = tail_agg;
  backward.merge(head_agg);

  EXPECT_EQ(forward.count, backward.count);
  EXPECT_NEAR(forward.mean, backward.mean, 1e-9);
  EXPECT_NEAR(forward.m2, backward.m2, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateMergeOrder, ::testing::Range(1, 6));

class AnchorTest : public ::testing::Test {
 protected:
  AnchorTest()
      : cohort_(generate_cohort(small_cohort(30))),
        site_({"hospital-x", SchemaKind::CommonV1, 0.0, 1},
              {cohort_.begin(), cohort_.begin() + 20},
              crypto::sha256("key")),
        registry_(store_, 1, 1) {}

  std::vector<PatientRecord> cohort_;
  SiteDataset site_;
  vm::ContractStore store_;
  contracts::RegistryContract registry_;
  contracts::Word owner_ = fnv1a("hospital-x");
};

TEST_F(AnchorTest, CleanAuditAfterAnchoring) {
  EXPECT_FALSE(audit_dataset(registry_, site_).registered);
  ASSERT_TRUE(anchor_dataset(registry_, owner_, site_));
  const AuditResult audit = audit_dataset(registry_, site_);
  EXPECT_TRUE(audit.clean());
}

TEST_F(AnchorTest, TamperDetectedByAudit) {
  ASSERT_TRUE(anchor_dataset(registry_, owner_, site_));
  site_.tamper(5, -40.0);  // silently falsify a lab value
  const AuditResult audit = audit_dataset(registry_, site_);
  EXPECT_TRUE(audit.registered);
  EXPECT_FALSE(audit.digest_matches);
}

TEST_F(AnchorTest, LegitimateAppendNeedsRefresh) {
  ASSERT_TRUE(anchor_dataset(registry_, owner_, site_));
  site_.append(cohort_[25]);
  EXPECT_FALSE(audit_dataset(registry_, site_).digest_matches);
  ASSERT_TRUE(refresh_anchor(registry_, owner_, site_));
  EXPECT_TRUE(audit_dataset(registry_, site_).clean());
  EXPECT_EQ(registry_.meta_of(dataset_word(site_))->record_count, 21u);
}

TEST_F(AnchorTest, RecordInclusionProofs) {
  ASSERT_TRUE(anchor_dataset(registry_, owner_, site_));
  for (const std::size_t index : {0u, 7u, 19u})
    EXPECT_TRUE(verify_record_inclusion(registry_, site_, index));
  EXPECT_FALSE(verify_record_inclusion(registry_, site_, 999));

  site_.tamper(7, 3.0);
  // The tampered dataset's live root no longer matches the chain.
  EXPECT_FALSE(verify_record_inclusion(registry_, site_, 7));
}

TEST_F(AnchorTest, BatchAuditVerifiesEveryRecord) {
  // Unregistered dataset: nothing verifies.
  EXPECT_EQ(verify_all_records(registry_, site_), 0u);
  ASSERT_TRUE(anchor_dataset(registry_, owner_, site_));
  EXPECT_EQ(verify_all_records(registry_, site_), site_.size());

  // Stale root (tamper without refresh): the whole audit fails closed.
  site_.tamper(3, 2.5);
  EXPECT_EQ(verify_all_records(registry_, site_), 0u);

  // The audit is backend-independent: portable and SIMD agree.
  ASSERT_TRUE(refresh_anchor(registry_, owner_, site_));
  crypto::set_hash_backend(crypto::HashBackend::kPortable);
  const std::size_t portable = verify_all_records(registry_, site_);
  crypto::set_hash_backend(crypto::HashBackend::kSimd);
  const std::size_t simd = verify_all_records(registry_, site_);
  crypto::set_hash_backend(crypto::HashBackend::kAuto);
  EXPECT_EQ(portable, site_.size());
  EXPECT_EQ(simd, portable);
}

}  // namespace
}  // namespace mc::med

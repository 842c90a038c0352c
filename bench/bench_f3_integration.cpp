// Experiment F3 (paper Figure 3): heterogeneous data integration —
// assembling the virtual core medical dataset from hospital / wearable /
// genome silos, with on-chain registration and anchoring.
#include <cstdio>

#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "contracts/registry.hpp"
#include "med/anchor.hpp"
#include "med/dataset.hpp"
#include "med/generator.hpp"
#include "med/linkage.hpp"
#include "med/quality.hpp"

namespace {

using namespace mc;
using namespace mc::med;

void integration_vs_sites() {
  banner("F3a: integration cost & quality vs hospital count (2000 patients)");
  Table table({"hospitals", "sites_total", "rows_in", "patients_merged",
               "modalities/patient", "imputed", "integrate_ms",
               "anchor_gas_total"});
  const auto cohort = generate_cohort({.patients = 2'000, .seed = 3});

  for (const std::size_t hospitals : {2u, 4u, 8u, 16u}) {
    FederationConfig config;
    config.hospital_count = hospitals;
    config.token_missing_rate = 0.02;
    const Federation fed = build_federation(cohort, config);

    vm::ContractStore store;
    contracts::RegistryContract registry(store, 1, 1);
    std::uint64_t anchor_gas = 0;
    for (const auto& site : fed.sites) {
      anchor_dataset(registry, fnv1a(site.config().name), site);
      anchor_gas += registry.last_gas();
    }

    Stopwatch timer;
    RecordLinker linker;
    std::size_t rows_in = 0;
    for (const auto& site : fed.sites) {
      const auto rows = site.export_rows();
      rows_in += rows.size();
      linker.add_site(rows, site.config().schema);
    }
    IntegrationReport report;
    const std::vector<CommonRecord> dataset = linker.integrate(&report);
    const double elapsed_ms = timer.millis();

    table.row()
        .cell(hospitals)
        .cell(fed.sites.size())
        .cell(rows_in)
        .cell(dataset.size())
        .cell(report.mean_modalities_per_patient, 2)
        .cell(report.imputed_fields)
        .cell(elapsed_ms, 1)
        .cell(anchor_gas);
  }
  table.print();
}

void integration_vs_cohort() {
  banner("F3b: virtual-dataset assembly throughput vs cohort size");
  Table table({"patients", "rows_in", "integrate_ms", "rows_per_s",
               "labeled_frac"});
  for (const std::size_t patients : {500u, 1'000u, 2'000u, 4'000u, 8'000u}) {
    const auto cohort = generate_cohort({.patients = patients, .seed = 5});
    const Federation fed = build_federation(cohort, {});
    RecordLinker linker;
    std::size_t rows_in = 0;
    for (const auto& site : fed.sites) {
      const auto rows = site.export_rows();
      rows_in += rows.size();
      linker.add_site(rows, site.config().schema);
    }
    Stopwatch timer;
    IntegrationReport report;
    const std::vector<CommonRecord> dataset = linker.integrate(&report);
    const double ms = timer.millis();
    table.row()
        .cell(patients)
        .cell(rows_in)
        .cell(ms, 1)
        .cell(static_cast<double>(rows_in) / (ms / 1e3), 0)
        .cell(static_cast<double>(report.labeled_patients) /
                  static_cast<double>(dataset.size()),
              3);
  }
  table.print();
}

void linkage_quality() {
  banner("F3c: linkage quality vs missing-token rate");
  const auto cohort = generate_cohort({.patients = 1'500, .seed = 8});
  Table table({"token_missing", "rows_unlinkable_frac", "patients_merged",
               "merged_frac_of_cohort"});
  for (const double missing : {0.0, 0.05, 0.1, 0.25, 0.5}) {
    FederationConfig config;
    config.token_missing_rate = missing;
    const Federation fed = build_federation(cohort, config);
    RecordLinker linker;
    for (const auto& site : fed.sites)
      linker.add_site(site.export_rows(), site.config().schema);
    IntegrationReport report;
    const std::vector<CommonRecord> dataset = linker.integrate(&report);
    table.row()
        .cell(missing, 2)
        .cell(static_cast<double>(report.rows_unlinkable) /
                  static_cast<double>(report.rows_in),
              3)
        .cell(dataset.size())
        .cell(static_cast<double>(dataset.size()) / 1'500.0, 3);
  }
  table.print();
}

void quality_service() {
  banner("F3d: data-quality service on the integrated dataset");
  std::vector<CommonRecord> records;
  for (const auto& p : generate_cohort({.patients = 2'000, .seed = 31}))
    records.push_back(to_common(p));

  Table table({"corruption", "score", "out_of_range", "unit_suspects",
               "outliers", "clean_records"});
  auto assess = [&table](const char* label,
                         const std::vector<CommonRecord>& batch) {
    const QualityReport report = assess_quality(batch);
    std::size_t oor = 0, unit = 0, outliers = 0;
    for (const auto& fq : report.fields) {
      oor += fq.out_of_range;
      unit += fq.suspected_unit_errors;
      outliers += fq.outliers;
    }
    table.row()
        .cell(label)
        .cell(report.score(), 3)
        .cell(oor)
        .cell(unit)
        .cell(outliers)
        .cell(report.clean_records);
  };

  assess("none", records);
  auto glucose_bug = records;
  inject_unit_errors(glucose_bug, "glucose", 1.0 / 18.02, 0.15, 8);
  assess("15% glucose in mmol/L", glucose_bug);
  auto chol_bug = records;
  inject_unit_errors(chol_bug, "cholesterol", 1.0 / 38.67, 0.30, 9);
  assess("30% cholesterol in mmol/L", chol_bug);
  table.print();
}

void final_note() {
  std::puts(
      "\nShape check (paper): the virtual dataset reaches full cohort\n"
      "coverage when tokens are intact; every lost token removes rows but\n"
      "the merge remains exact for what links; anchoring gas stays a small\n"
      "constant per site (lightweight on-chain commitments).");
}

}  // namespace

int main() {
  std::puts("== bench_f3_integration: Figure 3 reproduction ==");
  integration_vs_sites();
  integration_vs_cohort();
  linkage_quality();
  quality_service();
  final_note();
  return 0;
}

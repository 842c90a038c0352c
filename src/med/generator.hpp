// Synthetic cohort generator with a ground-truth risk model.
//
// Outcomes are drawn from a logistic model over age, blood pressure,
// smoking, glycemia, genetics and activity, so downstream learners have
// recoverable structure and the federated experiments measure something
// real. Coefficients are configurable for ablations (e.g. site-specific
// shift to simulate population heterogeneity across hospitals).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "med/records.hpp"

namespace mc::med {

/// Logistic outcome model: p = sigmoid(intercept + sum_i w_i * x_i).
struct RiskModel {
  double intercept = -3.0;
  double age_per_year_over_50 = 0.045;
  double male = 0.25;
  double smoker = 0.85;
  double sbp_per_mmhg_over_120 = 0.035;
  double glucose_per_mgdl_over_100 = 0.012;
  double hba1c_per_pct_over_55 = 0.55;
  double snp_per_allele = 0.28;
  double activity_per_hour = -0.30;
  double alcohol_per_unit = 0.015;

  [[nodiscard]] double probability(const CommonRecord& record) const;
};

struct CohortConfig {
  std::size_t patients = 2'000;
  std::uint64_t seed = 7;
  std::uint16_t snp_panel_size = 8;
  double encounters_mean = 4.0;  ///< Poisson-ish encounter count
  RiskModel stroke{};
  RiskModel cancer{/*intercept=*/-3.6,
                   /*age_per_year_over_50=*/0.055,
                   /*male=*/0.10,
                   /*smoker=*/1.05,
                   /*sbp_per_mmhg_over_120=*/0.002,
                   /*glucose_per_mgdl_over_100=*/0.004,
                   /*hba1c_per_pct_over_55=*/0.10,
                   /*snp_per_allele=*/0.40,
                   /*activity_per_hour=*/-0.18,
                   /*alcohol_per_unit=*/0.030};

  /// Optional population shift applied to this cohort's covariates
  /// (models cross-hospital distribution shift for transfer learning).
  double age_shift_years = 0;
  double sbp_shift = 0;
  double smoker_rate = 0.22;
};

/// Generate a cohort of full patient records.
std::vector<PatientRecord> generate_cohort(const CohortConfig& config);

/// Project a full record onto the common data format (all modalities).
CommonRecord to_common(const PatientRecord& record,
                       std::uint32_t observation_year = 2018);

/// Ground-truth label regeneration (used in tests to verify the model).
double sigmoid(double x);

}  // namespace mc::med

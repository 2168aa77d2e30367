// Paper-number gates: seeded, scaled-down runs of the paper's figures whose
// headline numbers must stay inside bands recorded in EXPERIMENTS.md
// ("Paper gates"). The runs are deterministic, so a number that leaves its
// band was moved by a code change: either a regression, or a deliberate
// shift that moves the band in the same change and says why in
// EXPERIMENTS.md. Run them alone with `ctest -L paper_gates`.
#include <gtest/gtest.h>

#include "bench/fig9_run.h"

namespace seaweed {
namespace {

// Band centres: this run's output with 2 s fold-pass spacing, before it fell
// to 0.5 s (which moved the query component +0.4%, to 6.677 B/s).
constexpr double kFig9Pastry = 28.82;
constexpr double kFig9Maintenance = 52.15;
constexpr double kFig9Query = 6.649;

// Asserts `got` lies in [want * (1 - tol), want * (1 + tol)].
::testing::AssertionResult InBand(const char* what, double got, double want,
                                  double tol) {
  if (got >= want * (1 - tol) && got <= want * (1 + tol)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << what << " " << got << " B/s is outside " << want << " B/s +/- "
         << 100 * tol << "%";
}

// Figure 9 at panel (d)'s smallest size: 250 endsystems for 12 h of
// Farsite churn, the paper's query injected at 3 h and live to the end.
// Bandwidth per online endsystem by component, hours 1-10. The query band
// is narrower: it is the component the result plane's changes move, and
// its known deviation from the paper (5-9x below maintenance, not ~3
// orders) is ROADMAP item 1's to close, by moving this band on purpose.
TEST(PaperGatesTest, Fig9OverheadPerOnlineEndsystem) {
  const bench::Fig9Run run = bench::RunFig9(250, 12 * kHour, /*seed=*/3);
  EXPECT_TRUE(InBand("pastry", run.pastry_per_online, kFig9Pastry, 0.05));
  EXPECT_TRUE(InBand("maintenance", run.maintenance_per_online,
                     kFig9Maintenance, 0.05));
  EXPECT_TRUE(InBand("query", run.query_per_online, kFig9Query, 0.02));
  // The paper's shape: maintenance dominates, query is the smallest.
  EXPECT_GT(run.maintenance_per_online, run.pastry_per_online);
  EXPECT_GT(run.pastry_per_online, run.query_per_online);
  // The per-category timeseries and the meter's total count the same bytes.
  EXPECT_EQ(run.registry_category_tx_bytes, run.meter_total_tx_bytes);
}

}  // namespace
}  // namespace seaweed

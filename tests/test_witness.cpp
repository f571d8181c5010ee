// corpus::witness_certifies must reject an EG witness path that is not a
// maximal cut sequence, even when every cut on it is consistent and
// satisfies p: the path has to start at the initial cut, end at the final
// cut and add exactly one event per step.
#include <gtest/gtest.h>

#include <vector>

#include "corpus/golden.h"
#include "detect/conjunctive_gw.h"
#include "detect/dispatch.h"
#include "poset/generate.h"
#include "predicate/predicate.h"

namespace hbct {
namespace {

class WitnessCertifies : public ::testing::Test {
 protected:
  WitnessCertifies() {
    GenOptions opt;
    opt.num_procs = 3;
    opt.events_per_proc = 5;
    opt.p_send = 0.3;
    opt.seed = 11;
    c_ = generate_random(opt);
    cell_.name = "eg-true";
    cell_.op = Op::kEG;
    cell_.pred = make_true();
    cell_.expect = Verdict::kHolds;
  }

  bool certifies(std::vector<Cut> path) const {
    DetectResult r;
    r.verdict = Verdict::kHolds;
    r.witness_path = std::move(path);
    return corpus::witness_certifies(c_, cell_, r);
  }

  std::vector<Cut> full_path() const {
    return linearization_path(c_, c_.final_cut());
  }

  Computation c_;
  corpus::BatteryCell cell_;
};

TEST_F(WitnessCertifies, AcceptsAMaximalCutSequence) {
  ASSERT_GT(full_path().size(), 3u);
  EXPECT_TRUE(certifies(full_path()));
  const DetectResult r = detect(c_, Op::kEG, cell_.pred);
  ASSERT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_TRUE(corpus::witness_certifies(c_, cell_, r));
}

TEST_F(WitnessCertifies, RejectsATruncatedPath) {
  std::vector<Cut> path = full_path();
  path.pop_back();
  EXPECT_FALSE(certifies(path));
}

TEST_F(WitnessCertifies, RejectsAPathThatSkipsAnEvent) {
  std::vector<Cut> path = full_path();
  path.erase(path.begin() + static_cast<std::ptrdiff_t>(path.size() / 2));
  EXPECT_FALSE(certifies(path));
}

TEST_F(WitnessCertifies, RejectsAPathStartingAboveTheInitialCut) {
  std::vector<Cut> path = full_path();
  path.erase(path.begin());
  EXPECT_FALSE(certifies(path));
}

}  // namespace
}  // namespace hbct

// Invariant framework defaults: the sorted-merge conflict rule and the
// projection plumbing shared by every protocol invariant.
#include <gtest/gtest.h>

#include "mc/invariant.hpp"

namespace lmc {
namespace {

class Dummy final : public Invariant {
 public:
  std::string name() const override { return "dummy"; }
  bool holds(const SystemConfig&, const SystemStateView&) const override { return true; }
};

TEST(Invariant, DefaultConflictSameKeyDifferentValue) {
  Dummy inv;
  EXPECT_TRUE(inv.projections_conflict({{1, 10}}, {{1, 20}}));
  EXPECT_FALSE(inv.projections_conflict({{1, 10}}, {{1, 10}}));
}

TEST(Invariant, DefaultConflictDisjointKeys) {
  Dummy inv;
  EXPECT_FALSE(inv.projections_conflict({{1, 10}}, {{2, 10}}));
  EXPECT_FALSE(inv.projections_conflict({}, {{2, 10}}));
  EXPECT_FALSE(inv.projections_conflict({}, {}));
}

TEST(Invariant, DefaultConflictMergeWalksBothSides) {
  Dummy inv;
  // Multiple keys, conflict buried in the middle.
  Projection a{{1, 1}, {3, 30}, {5, 5}};
  Projection b{{2, 2}, {3, 31}, {6, 6}};
  EXPECT_TRUE(inv.projections_conflict(a, b));
  Projection c{{2, 2}, {3, 30}, {6, 6}};
  EXPECT_FALSE(inv.projections_conflict(a, c));
}

TEST(Invariant, DefaultSelfViolatesIsFalse) {
  Dummy inv;
  EXPECT_FALSE(inv.projection_self_violates({{1, 1}}));
  EXPECT_FALSE(inv.projection_self_violates({}));
}

}  // namespace
}  // namespace lmc

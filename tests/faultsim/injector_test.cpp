#include "faultsim/injector.hpp"

#include <gtest/gtest.h>

#include <set>

#include "stats/descriptive.hpp"

namespace astra::faultsim {
namespace {

TimeWindow PaperWindow() {
  return {SimTime::FromCivil(2019, 1, 20), SimTime::FromCivil(2019, 9, 14)};
}

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : injector_(FaultModelConfig{}, PaperWindow()) {}
  FaultInjector injector_;
};

TEST_F(InjectorTest, DeterministicPerNode) {
  const FaultInjector other(FaultModelConfig{}, PaperWindow());
  for (NodeId node : {0, 3, 99}) {
    const auto a = injector_.GenerateNodeFaults(node);
    const auto b = other.GenerateNodeFaults(node);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].mode, b[i].mode);
      EXPECT_EQ(a[i].anchor, b[i].anchor);
      EXPECT_EQ(a[i].error_count, b[i].error_count);
    }
  }
}

TEST_F(InjectorTest, SusceptibilityHasMeanNearOne) {
  stats::RunningStats acc;
  for (NodeId node = 0; node < 2000; ++node) {
    acc.Add(injector_.NodeSusceptibility(node));
  }
  // Lognormal with sigma=2 has huge sample variance; the mean converges
  // slowly, so the band is wide but must bracket 1.
  EXPECT_GT(acc.Mean(), 0.4);
  EXPECT_LT(acc.Mean(), 3.0);
}

TEST_F(InjectorTest, VendorCodeConsistentAndSmall) {
  for (NodeId node : {0, 7}) {
    for (int s = 0; s < kDimmSlotCount; ++s) {
      const auto slot = static_cast<DimmSlot>(s);
      const int code = injector_.VendorCode(node, slot);
      EXPECT_GE(code, 0);
      EXPECT_LT(code, 4);
      EXPECT_EQ(code, injector_.VendorCode(node, slot));
    }
  }
}

TEST_F(InjectorTest, FaultFieldsValid) {
  int checked = 0;
  for (NodeId node = 0; node < 300 && checked < 200; ++node) {
    for (const Fault& fault : injector_.GenerateNodeFaults(node)) {
      ++checked;
      EXPECT_TRUE(IsValid(fault.anchor)) << "node " << node;
      EXPECT_EQ(fault.anchor.node, node);
      EXPECT_GE(fault.error_count, 1u);
      EXPECT_GT(fault.lifetime_days, 0.0);
      EXPECT_GE(fault.start, PaperWindow().begin);
      EXPECT_LT(fault.start, PaperWindow().end);
      if (fault.mode == GroundTruthMode::kSingleWord) {
        EXPECT_GE(fault.stuck_bit_count, 2);
        EXPECT_LE(fault.stuck_bit_count, 4);
      } else {
        EXPECT_EQ(fault.stuck_bit_count, 1);
        EXPECT_FALSE(fault.multibit_capable);
      }
    }
  }
  EXPECT_GT(checked, 50);
}

TEST_F(InjectorTest, UniqueFaultIds) {
  std::set<std::uint64_t> ids;
  std::size_t total = 0;
  for (NodeId node = 0; node < 500; ++node) {
    for (const Fault& fault : injector_.GenerateNodeFaults(node)) {
      ids.insert(fault.id);
      ++total;
    }
  }
  EXPECT_EQ(ids.size(), total);
}

TEST_F(InjectorTest, ExpectedTotalInPaperBand) {
  // Calibration target: ~7k faults fleet-wide (DESIGN.md).
  const double expected = injector_.ExpectedTotalFaults();
  EXPECT_GT(expected, 5000.0);
  EXPECT_LT(expected, 10000.0);
}

TEST_F(InjectorTest, RealizedCountNearExpectation) {
  double realized = 0;
  for (NodeId node = 0; node < kNumNodes; ++node) {
    realized += static_cast<double>(injector_.GenerateNodeFaults(node).size());
  }
  const double expected = injector_.ExpectedTotalFaults();
  // Heavy-tailed susceptibility inflates the variance well beyond Poisson;
  // accept a generous band around the analytic expectation.
  EXPECT_GT(realized, expected * 0.5);
  EXPECT_LT(realized, expected * 2.0);
}

TEST_F(InjectorTest, ErrorEventsRespectModeGeometry) {
  for (NodeId node = 0; node < 400; ++node) {
    for (const Fault& fault : injector_.GenerateNodeFaults(node)) {
      const auto events = injector_.GenerateErrorEvents(fault);
      for (const ErrorEvent& event : events) {
        ASSERT_TRUE(IsValid(event.coord));
        EXPECT_GE(event.time, PaperWindow().begin);
        EXPECT_LT(event.time, PaperWindow().end);
        EXPECT_EQ(event.coord.node, fault.anchor.node);
        EXPECT_EQ(event.coord.slot, fault.anchor.slot);
        EXPECT_EQ(event.coord.rank, fault.anchor.rank);
        EXPECT_EQ(event.coord.bank, fault.anchor.bank);
        switch (fault.mode) {
          case GroundTruthMode::kSingleBit:
            EXPECT_EQ(event.coord.row, fault.anchor.row);
            EXPECT_EQ(event.coord.column, fault.anchor.column);
            EXPECT_EQ(event.coord.bit, fault.anchor.bit);
            break;
          case GroundTruthMode::kSingleWord:
            EXPECT_EQ(event.coord.row, fault.anchor.row);
            EXPECT_EQ(event.coord.column, fault.anchor.column);
            break;
          case GroundTruthMode::kSingleColumn:
            EXPECT_EQ(event.coord.column, fault.anchor.column);
            EXPECT_EQ(event.coord.bit, fault.anchor.bit);
            break;
          case GroundTruthMode::kSingleRow:
            EXPECT_EQ(event.coord.row, fault.anchor.row);
            EXPECT_EQ(event.coord.bit, fault.anchor.bit);
            break;
          case GroundTruthMode::kSingleBank:
            break;  // row/column/bit all free
        }
        if (event.IsDue()) {
          EXPECT_EQ(fault.mode, GroundTruthMode::kSingleWord);
          EXPECT_TRUE(fault.multibit_capable);
        }
      }
    }
  }
}

TEST_F(InjectorTest, CeEventCountMatchesFault) {
  // The CE count equals fault.error_count; DUE events come on top.
  for (NodeId node = 0; node < 200; ++node) {
    for (const Fault& fault : injector_.GenerateNodeFaults(node)) {
      const auto events = injector_.GenerateErrorEvents(fault);
      std::uint64_t ces = 0, dues = 0;
      for (const auto& e : events) (e.IsDue() ? dues : ces) += 1;
      EXPECT_EQ(ces, fault.error_count);
      if (!fault.multibit_capable) {
        EXPECT_EQ(dues, 0u);
      }
    }
  }
}

TEST_F(InjectorTest, DeclineShiftsStartTimesEarlier) {
  FaultModelConfig declining;
  declining.decline_fraction = 0.6;
  const FaultInjector injector(declining, PaperWindow());
  stats::RunningStats starts;
  for (NodeId node = 0; node < 800; ++node) {
    for (const Fault& fault : injector.GenerateNodeFaults(node)) {
      starts.Add(static_cast<double>(SecondsBetween(PaperWindow().begin, fault.start)));
    }
  }
  const double mid =
      static_cast<double>(PaperWindow().DurationSeconds()) / 2.0;
  EXPECT_LT(starts.Mean(), mid);  // mass shifted toward the campaign start
}

TEST_F(InjectorTest, SlotMultipliersShapeFaultCounts) {
  // Slot J (multiplier 2.0) must out-produce slot A (multiplier 0.5) in
  // aggregate.
  std::uint64_t slot_j = 0, slot_a = 0;
  for (NodeId node = 0; node < kNumNodes; ++node) {
    for (const Fault& fault : injector_.GenerateNodeFaults(node)) {
      if (fault.anchor.slot == DimmSlot::J) ++slot_j;
      if (fault.anchor.slot == DimmSlot::A) ++slot_a;
    }
  }
  EXPECT_GT(slot_j, slot_a * 2);
}

}  // namespace
}  // namespace astra::faultsim

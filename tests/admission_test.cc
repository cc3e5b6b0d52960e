// Concurrency coverage of AdmissionController: the inflight cap and
// queue bound must hold under thread churn with randomized hold times,
// tickets must never leak (including on exception paths), the tiered
// shedding ladder must drop lower-value work classes at the documented
// queue occupancies, and the total ledger (admitted + rejected + shed)
// must conserve across every outcome. Runs under the TSan lane via the
// `concurrency` label.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "util/rng.h"

namespace locs::serve {
namespace {

using WorkClass = AdmissionController::WorkClass;
using Decision = AdmissionController::Decision;

/// Busy-spin for a pseudo-random number of yields — a hold time with
/// scheduler noise but no sleeping, keeping the test fast under TSan.
void HoldBriefly(Rng& rng) {
  const unsigned yields = static_cast<unsigned>(rng.Next() % 8);
  for (unsigned i = 0; i < yields; ++i) std::this_thread::yield();
}

TEST(AdmissionConcurrencyTest, InflightNeverExceedsCapUnderChurn) {
  AdmissionController::Options options;
  options.max_inflight = 4;
  options.max_queued = 8;
  AdmissionController admission(options);

  constexpr unsigned kThreads = 16;
  constexpr unsigned kItersPerThread = 300;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> turned_away{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        AdmissionTicket ticket(admission);
        if (!ticket.admitted()) {
          turned_away.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const int now = concurrent.fetch_add(1, std::memory_order_relaxed) + 1;
        int seen = max_seen.load(std::memory_order_relaxed);
        while (now > seen &&
               !max_seen.compare_exchange_weak(seen, now,
                                               std::memory_order_relaxed)) {
        }
        HoldBriefly(rng);
        concurrent.fetch_sub(1, std::memory_order_relaxed);
        admitted.fetch_add(1, std::memory_order_relaxed);
        // Queue bound must hold at any sampled instant.
        EXPECT_LE(admission.Snapshot().queued, options.max_queued);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(max_seen.load(), static_cast<int>(options.max_inflight));
  const AdmissionController::Counts counts = admission.Snapshot();
  EXPECT_EQ(counts.inflight, 0u);  // no ticket leaked
  EXPECT_EQ(counts.queued, 0u);
  EXPECT_EQ(counts.admitted_total, admitted.load());
  EXPECT_EQ(counts.rejected_total + counts.shed_total, turned_away.load());
  EXPECT_EQ(counts.admitted_total + counts.rejected_total +
                counts.shed_total,
            uint64_t{kThreads} * kItersPerThread);
}

TEST(AdmissionConcurrencyTest, NoLeakOnExceptionPath) {
  AdmissionController admission;
  for (int i = 0; i < 50; ++i) {
    try {
      AdmissionTicket ticket(admission);
      ASSERT_TRUE(ticket.admitted());
      throw std::runtime_error("query blew up");
    } catch (const std::runtime_error&) {
    }
  }
  const AdmissionController::Counts counts = admission.Snapshot();
  EXPECT_EQ(counts.inflight, 0u);
  EXPECT_EQ(counts.admitted_total, 50u);
}

/// Deterministic ladder scenario: one admitted holder saturates
/// max_inflight=1, then critical waiters are parked one at a time until
/// the queue reaches a chosen occupancy; the class under test must then
/// shed/reject immediately (never block) at its documented bound.
class LadderScenario {
 public:
  explicit LadderScenario(unsigned max_queued) {
    AdmissionController::Options options;
    options.max_inflight = 1;
    options.max_queued = max_queued;
    admission_ = std::make_unique<AdmissionController>(options);
    holder_ = std::thread([this] {
      AdmissionTicket ticket(*admission_);
      EXPECT_TRUE(ticket.admitted());
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    WaitUntil([&] { return admission_->Snapshot().inflight == 1; });
  }

  ~LadderScenario() {
    release_.store(true, std::memory_order_release);
    holder_.join();
    for (std::thread& waiter : waiters_) waiter.join();
    const AdmissionController::Counts counts = admission_->Snapshot();
    EXPECT_EQ(counts.inflight, 0u);
    EXPECT_EQ(counts.queued, 0u);
  }

  /// Parks critical waiters until `target` of them are queued.
  void FillQueue(unsigned target) {
    while (admission_->Snapshot().queued < target) {
      // Read the depth before spawning: read after, a waiter that queues
      // first would be counted in `want` and the wait could never end.
      const unsigned want = admission_->Snapshot().queued + 1;
      waiters_.emplace_back([this] {
        AdmissionTicket ticket(*admission_);
        EXPECT_TRUE(ticket.admitted());
      });
      WaitUntil([&] { return admission_->Snapshot().queued >= want; });
    }
  }

  AdmissionController& admission() { return *admission_; }

 private:
  template <typename Pred>
  static void WaitUntil(Pred pred) {
    for (int spin = 0; !pred(); ++spin) {
      ASSERT_LT(spin, 100000) << "scenario setup stalled";
      std::this_thread::yield();
    }
  }

  std::unique_ptr<AdmissionController> admission_;
  std::thread holder_;
  std::vector<std::thread> waiters_;
  std::atomic<bool> release_{false};
};

TEST(AdmissionLadderTest, BulkShedsAtHalfQueue) {
  LadderScenario scenario(/*max_queued=*/4);
  scenario.FillQueue(2);  // bulk bound: max(1, 4/2) = 2
  uint64_t hint = 0;
  EXPECT_EQ(scenario.admission().Enter(WorkClass::kBulk, &hint),
            Decision::kShed);
  EXPECT_GT(hint, 0u);
  // Retryable (bound 3) and critical still have queue headroom; they are
  // not shed at this occupancy (verified via the counters, not by
  // calling Enter, which would block in the queue).
  EXPECT_EQ(scenario.admission().Snapshot().shed_total, 1u);
}

TEST(AdmissionLadderTest, RetryableShedsAtThreeQuarters) {
  LadderScenario scenario(/*max_queued=*/4);
  scenario.FillQueue(3);  // retryable bound: max(1, 3*4/4) = 3
  uint64_t hint = 0;
  EXPECT_EQ(scenario.admission().Enter(WorkClass::kRetryable, &hint),
            Decision::kShed);
  EXPECT_EQ(scenario.admission().Enter(WorkClass::kBulk, nullptr),
            Decision::kShed);
  EXPECT_EQ(scenario.admission().Snapshot().shed_total, 2u);
}

TEST(AdmissionLadderTest, CriticalRejectedOnlyAtFullQueue) {
  LadderScenario scenario(/*max_queued=*/4);
  scenario.FillQueue(4);
  uint64_t hint = 0;
  EXPECT_EQ(scenario.admission().Enter(WorkClass::kCritical, &hint),
            Decision::kRejected);
  EXPECT_GT(hint, 0u);
}

TEST(AdmissionLadderTest, RetryAfterHintGrowsWithQueueDepth) {
  LadderScenario scenario(/*max_queued=*/8);
  const uint64_t idle_hint = scenario.admission().RetryAfterMs();
  scenario.FillQueue(4);
  EXPECT_GT(scenario.admission().RetryAfterMs(), idle_hint);
}

TEST(AdmissionLadderTest, ZeroQueueControllerNeverSheds) {
  // max_queued == 0 is the pure admit-or-reject configuration; the
  // ladder must stay out of the way (historical behavior).
  AdmissionController::Options options;
  options.max_inflight = 1;
  options.max_queued = 0;
  AdmissionController admission(options);
  EXPECT_EQ(admission.Enter(WorkClass::kBulk, nullptr),
            Decision::kAdmitted);
  EXPECT_EQ(admission.Enter(WorkClass::kBulk, nullptr),
            Decision::kRejected);
  admission.Leave();
  EXPECT_EQ(admission.Snapshot().shed_total, 0u);
}

}  // namespace
}  // namespace locs::serve

// Retry exhaustion: one single-segment op that never gets through gives up
// after `max_retries` re-drives, once per way the client loop can give up
// (silence, a corrupt payload, an admission rejection, an open breaker).
// Each case pins the PfsError text, the client counters and the `#fault`
// retry/failed sequence.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "pablo/collector.hpp"
#include "pfs/pfs.hpp"

namespace sio::pfs {
namespace {

constexpr int kMaxRetries = 3;
constexpr sim::Tick kFar = sim::seconds(3600);
constexpr std::uint64_t kBytes = 1000;  // one segment on I/O node 0

PfsConfig retry_config() {
  PfsConfig cfg;
  cfg.retry.enabled = true;
  cfg.retry.max_retries = kMaxRetries;
  return cfg;
}

struct Rig {
  hw::Machine machine;
  pablo::Collector collector;
  Pfs fs;
  FileState& file;

  explicit Rig(PfsConfig cfg)
      : machine(hw::Machine::caltech_paragon(4)),
        collector(machine.engine()),
        fs(machine, collector, cfg),
        file(fs.stage_file("t/retry", 64 * 1024)) {}

  /// Runs one transfer to I/O node 0 and returns the error it gave up with.
  std::string run_failing(bool is_write) {
    std::string error = "<no error>";
    machine.engine().spawn([](Rig& r, bool w, std::string& out) -> sim::Task<void> {
      try {
        co_await r.fs.transfer(0, r.file, 0, kBytes, w, /*buffered=*/true);
      } catch (const PfsError& e) {
        out = e.what();
      }
    }(*this, is_write, error));
    machine.engine().run();
    return error;
  }

  /// The op-retry / op-failed records as (kind, info) pairs, in order.
  std::vector<std::pair<pablo::FaultKind, std::uint64_t>> retry_sequence() const {
    std::vector<std::pair<pablo::FaultKind, std::uint64_t>> out;
    for (const auto& ev : collector.fault_events()) {
      if (ev.kind == pablo::FaultKind::kOpRetry || ev.kind == pablo::FaultKind::kOpFailed) {
        EXPECT_EQ(ev.target, 0);
        out.emplace_back(ev.kind, ev.info);
      }
    }
    return out;
  }
};

std::vector<std::pair<pablo::FaultKind, std::uint64_t>> expected_sequence() {
  std::vector<std::pair<pablo::FaultKind, std::uint64_t>> want;
  for (int a = 1; a <= kMaxRetries; ++a) {
    want.emplace_back(pablo::FaultKind::kOpRetry, static_cast<std::uint64_t>(a));
  }
  want.emplace_back(pablo::FaultKind::kOpFailed, 0);
  return want;
}

TEST(PfsRetryExhaustion, SilentLinkTimesOutThenFails) {
  Rig r(retry_config());
  r.machine.network().seed_faults(7);
  r.machine.network().add_io_link_fault(
      {.io_node = 0, .t0 = 0, .t1 = kFar, .down = false, .extra_delay = 0, .drop_p = 1.0});
  EXPECT_EQ(r.run_failing(/*is_write=*/true),
            "segment transfer failed after retries (io node 0)");
  EXPECT_EQ(r.fs.failed_ops(), 1u);
  EXPECT_EQ(r.fs.op_retries(), static_cast<std::uint64_t>(kMaxRetries));
  EXPECT_EQ(r.fs.op_timeouts(), static_cast<std::uint64_t>(kMaxRetries + 1));
  EXPECT_EQ(r.retry_sequence(), expected_sequence());
}

TEST(PfsRetryExhaustion, CorruptLinkIsCaughtThenFails) {
  PfsConfig cfg = retry_config();
  cfg.server.integrity.mode = IntegrityMode::kVerify;
  Rig r(cfg);
  r.fs.add_link_corrupt_window(0, 0, kFar, 1);
  EXPECT_EQ(r.run_failing(/*is_write=*/false),
            "segment transfer corrupt after retries (io node 0)");
  EXPECT_EQ(r.fs.failed_ops(), 1u);
  EXPECT_EQ(r.fs.op_retries(), static_cast<std::uint64_t>(kMaxRetries));
  EXPECT_EQ(r.fs.op_timeouts(), 0u);
  EXPECT_EQ(r.fs.link_corrupt_detected(), static_cast<std::uint64_t>(kMaxRetries + 1));
  EXPECT_EQ(r.retry_sequence(), expected_sequence());
}

TEST(PfsRetryExhaustion, RejectedAtAdmissionThenFails) {
  // One service slot and no waiting room on I/O node 0; the test holds the
  // slot for the whole run, so every attempt is turned away.
  PfsConfig cfg = retry_config();
  cfg.qos.enabled = true;
  cfg.qos.service_slots = 1;
  cfg.qos.queue_limit = 0;
  cfg.qos.shed_enabled = false;
  Rig r(cfg);
  qos::ServerQos& q = *r.fs.server_qos(0);
  r.machine.engine().spawn([](qos::ServerQos& sq) -> sim::Task<void> {
    const auto adm = co_await sq.admit(/*node=*/3, qos::OpClass::kData, 1, 0);
    EXPECT_EQ(adm.verdict, qos::Verdict::kAdmitted);
  }(q));
  EXPECT_EQ(r.run_failing(/*is_write=*/true),
            "segment transfer rejected after retries (io node 0)");
  EXPECT_EQ(r.fs.failed_ops(), 1u);
  EXPECT_EQ(r.fs.op_retries(), static_cast<std::uint64_t>(kMaxRetries));
  EXPECT_EQ(r.fs.backpressure_rejects(), static_cast<std::uint64_t>(kMaxRetries + 1));
  EXPECT_EQ(q.rejected(), static_cast<std::uint64_t>(kMaxRetries + 1));
  EXPECT_EQ(r.retry_sequence(), expected_sequence());
}

TEST(PfsRetryExhaustion, BreakerHoldGivesUpOnTheLastAttempt) {
  // I/O node 0's breaker starts open and its link drops everything: the
  // write is held, its half-open probe times out, and the hold that lands on
  // the last attempt fails the op without another retry.
  PfsConfig cfg = retry_config();
  cfg.qos.enabled = true;
  Rig r(cfg);
  r.machine.network().seed_faults(7);
  r.machine.network().add_io_link_fault(
      {.io_node = 0, .t0 = 0, .t1 = kFar, .down = false, .extra_delay = 0, .drop_p = 1.0});
  for (int i = 0; i < cfg.qos.breaker_min_samples; ++i) r.fs.breaker(0)->on_failure(9);
  EXPECT_EQ(r.run_failing(/*is_write=*/true),
            "segment transfer failed after retries (io node 0)");
  EXPECT_EQ(r.fs.failed_ops(), 1u);
  EXPECT_EQ(r.fs.op_retries(), 1u);
  EXPECT_EQ(r.fs.op_timeouts(), 1u);
  EXPECT_EQ(r.fs.breaker_holds(), 3u);
  using K = pablo::FaultKind;
  EXPECT_EQ(r.retry_sequence(),
            (std::vector<std::pair<K, std::uint64_t>>{{K::kOpRetry, 2}, {K::kOpFailed, 0}}));
  ASSERT_FALSE(r.collector.qos_events().empty());
  const auto& last_qos = r.collector.qos_events().back();
  EXPECT_EQ(last_qos.kind, pablo::QosKind::kBreakerHold);
  EXPECT_EQ(last_qos.at, r.collector.fault_events().back().at);
}

}  // namespace
}  // namespace sio::pfs

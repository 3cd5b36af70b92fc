#include "serve_phase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <thread>

#include "common/check.h"
#include "common/trace.h"
#include "core/ibs_incremental.h"
#include "core/remedy_backend.h"
#include "serve/wal.h"

namespace perfbench {

using remedy::ServeDaemon;

namespace {

// How often the watcher polls Snapshot(): the resolution of every
// ingest -> visible sample (the daemon has no publish notification).
constexpr auto kWatchInterval = std::chrono::microseconds(500);

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// Polls the newest snapshot and records every epoch it has not seen yet
// (epochs published between two polls are fetched from the snapshot ring,
// stamped with the poll that found them).
class Watcher {
 public:
  Watcher(const ServeDaemon& daemon, const remedy::EpochSnapshot& start)
      : daemon_(daemon),
        last_epoch_(start.epoch),
        covered_(start.wal_sequence) {
    thread_ = std::jthread([this](std::stop_token stop) { Loop(stop); });
  }

  // Blocks until an epoch covering `sequence` was recorded, then stops.
  std::vector<EpochSeen> StopAfter(uint64_t sequence) {
    while (covered_.load(std::memory_order_acquire) < sequence) {
      std::this_thread::sleep_for(kWatchInterval);
    }
    thread_.request_stop();
    thread_.join();
    return std::move(seen_);
  }

 private:
  void Loop(std::stop_token stop) {
    while (!stop.stop_requested()) {
      Poll();
      std::this_thread::sleep_for(kWatchInterval);
    }
  }

  void Poll() {
    std::shared_ptr<const remedy::EpochSnapshot> newest = daemon_.Snapshot();
    if (newest->epoch <= last_epoch_) return;
    const int64_t now = NowNs();
    for (uint64_t e = last_epoch_ + 1; e <= newest->epoch; ++e) {
      std::shared_ptr<const remedy::EpochSnapshot> snap =
          e == newest->epoch ? newest : daemon_.SnapshotAt(e);
      if (snap == nullptr) continue;  // rotated out; a later epoch covers it
      seen_.push_back({snap->epoch, snap->wal_sequence, snap->counts_digest,
                       now});
    }
    last_epoch_ = newest->epoch;
    covered_.store(newest->wal_sequence, std::memory_order_release);
  }

  const ServeDaemon& daemon_;
  uint64_t last_epoch_;
  std::vector<EpochSeen> seen_;
  std::atomic<uint64_t> covered_;
  std::jthread thread_;  // last: joins before the members it uses die
};

// Calls QueryIbs() on a fixed schedule until `end_ns`, timing each call.
std::vector<double> RunReader(const ServeDaemon& daemon, double rate,
                              int64_t start_ns, int64_t end_ns) {
  std::vector<double> call_us;
  const double period_ns = 1e9 / rate;
  for (int64_t i = 0;; ++i) {
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (due >= end_ns) break;
    SleepUntilNs(due);
    const int64_t t0 = NowNs();
    std::vector<remedy::BiasedRegion> ibs = daemon.QueryIbs();
    call_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return call_us;
}

// The daemon's published groups over one segment's open loop: batches per
// epoch.
std::vector<int> GroupSizes(const ServeSegment& segment) {
  std::vector<int> sizes;
  uint64_t previous = segment.first_sequence - 1;
  for (const EpochSeen& seen : segment.open_epochs) {
    if (seen.wal_sequence > previous) {
      sizes.push_back(static_cast<int>(seen.wal_sequence - previous));
      previous = seen.wal_sequence;
    }
  }
  return sizes;
}

}  // namespace

void RunServeSegment(ServeDaemon& daemon, BatchSource& source,
                     const WorkloadShape& shape, double open_seconds,
                     int64_t drain_batches, ServeLoad* load) {
  ServeSegment segment;
  segment.warmup = source.Next();
  SubmitThroughBackpressure(daemon, segment.warmup);
  source.Settle(true);
  remedy::Status flushed = daemon.Flush();
  REMEDY_CHECK(flushed.ok()) << "warm-up: " << flushed.ToString();
  daemon.QueryIbs();
  const std::shared_ptr<const remedy::EpochSnapshot> start =
      daemon.Snapshot();
  segment.first_sequence = start->wal_sequence + 1;

  const int64_t sends = std::max<int64_t>(
      1, static_cast<int64_t>(shape.ingest_rate * open_seconds));
  const double period_ns = 1e9 / shape.ingest_rate;

  const RegistryCut before_open = TakeRegistryCut();
  Watcher watcher(daemon, *start);
  const int64_t t0 = NowNs() + 2'000'000;  // let the helpers start
  const int64_t open_end = t0 + static_cast<int64_t>(open_seconds * 1e9);
  std::vector<double> query_us;
  std::jthread reader([&] {
    query_us = RunReader(daemon, shape.query_rate, t0, open_end);
  });

  std::vector<int64_t> due_of_accepted;
  for (int64_t i = 0; i < sends; ++i) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    Batch batch = source.Next();  // built before the send is due
    SleepUntilNs(due);
    const int64_t sent = NowNs();
    load->late_ms.push_back(NsToMs(sent - due));
    remedy::Status s = daemon.Submit(batch);
    load->submit_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
    ++load->open_sent;
    source.Settle(s.ok());
    if (s.ok()) {
      segment.open_batches.push_back(std::move(batch));
      due_of_accepted.push_back(due);
    } else {
      // An open-loop rejection is a failed operation; never retried.
      ++load->open_rejected;
    }
  }
  flushed = daemon.Flush();
  REMEDY_CHECK(flushed.ok()) << "open loop: " << flushed.ToString();
  reader.join();
  load->query_us.insert(load->query_us.end(), query_us.begin(),
                        query_us.end());
  segment.open_epochs = watcher.StopAfter(segment.first_sequence +
                                          segment.open_batches.size() - 1);
  load->open_s += static_cast<double>(NowNs() - t0) / 1e9;
  const RegistryCut after_open = TakeRegistryCut();
  load->open.Add(before_open, after_open);

  // ingest -> visible: from each accepted batch's due time to the first
  // observed epoch whose WAL sequence covers it.
  size_t e = 0;
  for (size_t k = 0; k < due_of_accepted.size(); ++k) {
    const uint64_t sequence = segment.first_sequence + k;
    while (e < segment.open_epochs.size() &&
           segment.open_epochs[e].wal_sequence < sequence) {
      ++e;
    }
    REMEDY_CHECK(e < segment.open_epochs.size())
        << "batch " << sequence << " never became visible";
    load->visible_ms.push_back(
        NsToMs(segment.open_epochs[e].seen_ns - due_of_accepted[k]));
  }

  // Closed loop: submit as fast as backpressure allows, then Flush.
  const int64_t drain_start = NowNs();
  for (int64_t i = 0; i < drain_batches; ++i) {
    Batch batch = source.Next();
    load->drain_backpressure += SubmitThroughBackpressure(daemon, batch);
    source.Settle(true);
    segment.drain_batches.push_back(std::move(batch));
  }
  flushed = daemon.Flush();
  REMEDY_CHECK(flushed.ok()) << "drain: " << flushed.ToString();
  load->drain_s += static_cast<double>(NowNs() - drain_start) / 1e9;
  load->drain_batches += static_cast<int64_t>(segment.drain_batches.size());
  load->drain.Add(after_open, TakeRegistryCut());
  load->segments.push_back(std::move(segment));
}

Served CaptureServed(ServeDaemon& daemon) {
  Served served;
  std::shared_ptr<const remedy::EpochSnapshot> snap = daemon.Snapshot();
  served.wal_sequence = snap->wal_sequence;
  served.counts_digest = snap->counts_digest;
  const std::vector<remedy::BiasedRegion> ibs = daemon.QueryIbs();
  served.ibs_digest = remedy::IbsSetDigest(ibs);
  served.ibs_regions = ibs.size();
  return served;
}

ServeCheck CheckServe(const Served& served, const ServeSeed& seed,
                      const std::vector<const Batch*>& acknowledged) {
  ServeCheck check;
  check.served = served;
  check.acknowledged = acknowledged.size();
  // Sequence 1 is the seed census; every acknowledged batch follows it.
  check.sequence_ok = served.wal_sequence == 1 + acknowledged.size();

  remedy::Hierarchy independent(seed.schema, seed.leaves, seed.totals);
  remedy::Status built = independent.EagerBuild(1);
  REMEDY_CHECK(built.ok()) << built.ToString();
  for (const Batch* batch : acknowledged) {
    independent.ApplyDeltas(*batch, /*insert_missing=*/true);
  }
  check.counts_digest = independent.CountsDigest();
  check.counts_ok = check.counts_digest == served.counts_digest;

  auto census = remedy::MaterializeLeafCounts(
      seed.schema, independent.NodeCounts(independent.LeafMask()));
  REMEDY_CHECK(census.ok()) << census.status().ToString();
  auto scratch = remedy::IdentifyIbs(census.value(), BenchIbsParams());
  REMEDY_CHECK(scratch.ok()) << scratch.status().ToString();
  check.ibs_digest = remedy::IbsSetDigest(scratch.value());
  check.ibs_ok = served.ibs_digest == check.ibs_digest;
  return check;
}

StageReplay ReplayServeStages(const ServeSeed& seed,
                              const std::vector<const Batch*>& prior,
                              const ServeLoad& load, int max_groups,
                              const std::string& scratch_dir) {
  const remedy::IbsParams params = BenchIbsParams();
  remedy::Hierarchy hierarchy(seed.schema, seed.leaves, seed.totals);
  remedy::Status built = hierarchy.EagerBuild(1);
  REMEDY_CHECK(built.ok()) << built.ToString();
  for (const Batch* batch : prior) {
    hierarchy.ApplyDeltas(*batch, /*insert_missing=*/true);
  }
  remedy::IncrementalIbsState state;
  state.Identify(hierarchy, params);  // the daemon's cache is warm too

  const std::string wal_path = scratch_dir + "/replay.wal";
  std::filesystem::remove(wal_path);
  auto opened = remedy::DeltaWal::Open(wal_path, /*schema_digest=*/0x5eed,
                                       /*next_sequence=*/1);
  REMEDY_CHECK(opened.ok()) << opened.status().ToString();
  std::unique_ptr<remedy::DeltaWal> wal = std::move(opened).value();

  StageReplay replay;
  replay.counts_match = true;
  for (const ServeSegment& segment : load.segments) {
    if (replay.groups >= max_groups) break;
    hierarchy.ApplyDeltas(segment.warmup, /*insert_missing=*/true);
    state.Identify(hierarchy, params);
    size_t next = 0;
    size_t epoch_index = 0;
    for (int size : GroupSizes(segment)) {
      if (replay.groups >= max_groups) break;
      const auto group = std::span(segment.open_batches).subspan(next, size);
      {
        remedy::TraceSpan span("bench/serve.wal.append");
        for (const Batch& batch : group) {
          auto appended = wal->Append(batch);
          REMEDY_CHECK(appended.ok()) << appended.status().ToString();
        }
      }
      {
        remedy::TraceSpan span("bench/serve.wal.sync");
        remedy::Status synced = wal->Sync();
        REMEDY_CHECK(synced.ok()) << synced.ToString();
      }
      {
        remedy::TraceSpan span("bench/core.hierarchy.apply_deltas");
        for (const Batch& batch : group) {
          hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
        }
      }
      std::vector<remedy::BiasedRegion> ibs;
      {
        remedy::TraceSpan span("bench/core.ibs_incremental.identify");
        ibs = state.Identify(hierarchy, params);
      }
      uint64_t digest = 0;
      {
        remedy::TraceSpan span("bench/core.hierarchy.counts_digest");
        digest = hierarchy.CountsDigest();
      }
      {
        remedy::TraceSpan span("bench/serve.snapshot.ibs_copy");
        auto snapshot = std::make_shared<remedy::EpochSnapshot>();
        snapshot->ibs = ibs;
      }
      next += static_cast<size_t>(size);
      replay.batches += size;
      ++replay.groups;
      // The daemon published exactly this cut after the same group.
      const uint64_t covered = segment.first_sequence + next - 1;
      while (segment.open_epochs[epoch_index].wal_sequence < covered) {
        ++epoch_index;
      }
      const EpochSeen& published = segment.open_epochs[epoch_index];
      replay.counts_match = replay.counts_match &&
                            published.wal_sequence == covered &&
                            published.counts_digest == digest;
    }
    // Catch up with the drain (and any open-loop tail past the cap) outside
    // the spans, identifying once so the next group starts from a clean
    // dirty set, as the daemon's did.
    for (size_t i = next; i < segment.open_batches.size(); ++i) {
      hierarchy.ApplyDeltas(segment.open_batches[i], /*insert_missing=*/true);
    }
    for (const Batch& batch : segment.drain_batches) {
      hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
    }
    state.Identify(hierarchy, params);
  }
  wal.reset();
  std::filesystem::remove(wal_path);
  return replay;
}

}  // namespace perfbench

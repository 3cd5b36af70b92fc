// libremedy_bench: one run of one benchmark workload (see README.md).
//
//   libremedy_bench --workload x8|adult --seed N --seconds S --trace 0|1
//                   [--scale F] [--git-sha SHA] [--source-digest HEX]
//
// A run sets up kSetupRepeats times (reporting the median set-up time),
// each set-up followed by its share of the rounds that spend --seconds on
// the four phases in fixed shares: serve open loop, serve drain, store
// audits, pipeline iterations. With --trace 1 it splits --seconds between
// that untraced pass and one under a TraceSink on the last set-up,
// replays the serve and audit stages span by span, and reports the
// per-layer metrics instead of the end-to-end ones. Every run checks its
// outputs; the last stdout line is
// {"correct", "attempted", "failed", "metrics"}, and the exit code is 0
// only when every check passed. Details — exact hex digests, the ungated
// percentiles, the machine stamp, per-span self times — go to
// .bench_out/<workload>-s<seed>-t<trace>/result.json (and trace.json)
// under the working directory, which also holds the daemon's state dirs.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "batch_phase.h"
#include "common/check.h"
#include "common/trace.h"
#include "harness.h"
#include "inputs.h"
#include "serve_phase.h"

namespace perfbench {
namespace {

// The untraced rounds are split evenly between the set-ups, so their
// samples spread over the whole run, set-ups included: a shared host's
// speed drifts over seconds to minutes, and the longer the window a run's
// medians pool, the less one slow stretch moves them.
constexpr int kSetupRepeats = 3;
// A pass cycles through the phases this many times, so each metric pools
// samples spread over the whole pass rather than one contiguous window.
constexpr int kRounds = 12;
// The traced replay re-runs at most this many of the daemon's groups.
constexpr int kMaxReplayGroups = 400;
// A generator whose sends ran later at p99 than this, or than half its
// send interval if that is longer, did not apply the schedule it claims;
// the run is invalid and reports no result.
constexpr double kMaxLateP99Ms = 10.0;
// Shares of the pass. The open loop runs for its share of each round; the
// drain is sized to its share at the shape's nominal pace (fixed work).
// Audits and pipeline iterations repeat one at a time while their phase's
// running time is below its share of the rounds so far, so their many
// short samples spread over the whole pass, a burst of host contention
// slows only the few that overlap it, and the pass lasts about --seconds.
constexpr double kOpenShare = 0.28;
constexpr double kDrainShare = 0.12;
constexpr double kAuditShare = 0.2;
constexpr double kPipelineShare = 0.4;

constexpr const char* kFlushPolicy =
    "daemon default: one fsync per group commit, "
    "checkpoint_every_batches = 0";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->scale > 0)) {
        std::fprintf(stderr, "bad --scale %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr,
                 "usage: libremedy_bench --workload x8|adult --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--git-sha SHA] "
                 "[--source-digest HEX]\n");
    return false;
  }
  return true;
}

int AffinityCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// One pass over the four phases: kRounds rounds lasting `seconds` in all.
struct Pass {
  explicit Pass(double seconds) : seconds(seconds) {}
  double seconds;
  int rounds = 0;            // rounds run so far
  double audit_s = 0.0;      // running time of the audits so far
  double pipeline_s = 0.0;   // ... and of the pipeline iterations
  ServeLoad load;
  AuditRuns audits;
  PipelineRuns pipelines;
  RegistryTally batch;  // registry changes over the batch phases
};

// Runs the pass's next rounds, up to `end_round`, on `setup`.
void RunRounds(Setup& setup, const WorkloadShape& shape, int end_round,
               Pass* pass) {
  const double round = pass->seconds / kRounds;
  const int64_t drain_batches = std::max<int64_t>(
      1, std::llround(round * kDrainShare * shape.drain_pace));
  for (; pass->rounds < end_round; ++pass->rounds) {
    RunServeSegment(*setup.daemon, *setup.source, shape, round * kOpenShare,
                    drain_batches, &pass->load);
    const RegistryCut before = TakeRegistryCut();
    const double elapsed_rounds = (pass->rounds + 1) * round;
    while (pass->audit_s < elapsed_rounds * kAuditShare) {
      RunAudits(setup.audit_store, 1, &pass->audits);
      pass->audit_s += pass->audits.seconds.back();
    }
    while (pass->pipeline_s < elapsed_rounds * kPipelineShare) {
      RunPipelines(setup.train, setup.test, 1, &pass->pipelines);
      pass->pipeline_s += pass->pipelines.pipeline_s.back();
    }
    pass->batch.Add(before, TakeRegistryCut());
  }
}

// The batches of `load.segments[first, end)`, in commit order.
void Acknowledged(const ServeLoad& load, size_t first, size_t end,
                  std::vector<const Batch*>* out) {
  for (size_t i = first; i < end; ++i) {
    const ServeSegment& segment = load.segments[i];
    out->push_back(&segment.warmup);
    for (const Batch& b : segment.open_batches) out->push_back(&b);
    for (const Batch& b : segment.drain_batches) out->push_back(&b);
  }
}

// One set-up's serve outputs, to be checked after the untraced pass: the
// daemon's seed and warm-up, the segments of the pass it served, and what
// it served last before it stopped.
struct ServedSetup {
  ServeSeed seed;
  std::vector<Batch> warmup;
  size_t first_segment = 0;
  size_t end_segment = 0;
  Served served;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// Serve ingest and query operations attempted in a pass.
int64_t ServeAttempted(const ServeLoad& load) {
  return load.open_sent + load.drain_batches +
         static_cast<int64_t>(load.query_us.size());
}

std::vector<Metric> EndToEnd(const Pass& pass, double setup_s,
                             double peak_rss_mb) {
  const ServeLoad& load = pass.load;
  const double attempted = static_cast<double>(ServeAttempted(load));
  return {
      {"setup_s", setup_s, "s"},
      {"visible_p50_ms", Quantile(load.visible_ms, 0.50), "ms"},
      {"drain_batches_per_s", load.DrainBatchesPerS(), "1/s"},
      {"query_p50_us", Quantile(load.query_us, 0.50), "us"},
      {"success_ratio",
       Ratio(attempted - static_cast<double>(load.open_rejected), attempted),
       "ratio"},
      {"audit_s", Median(pass.audits.seconds), "s"},
      {"remedy_s", Median(pass.pipelines.remedy_s), "s"},
      {"train_eval_s", Median(pass.pipelines.train_eval_s), "s"},
      {"pipeline_s", Median(pass.pipelines.pipeline_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

// Ungated companions of the gated end-to-end metrics, for result.json. The
// p90 tails are here, not gated: on a shared host they track scheduling
// jitter (the generator's own late p99) more than the library.
Json Ungated(const Pass& pass) {
  const ServeLoad& load = pass.load;
  auto max_of = [](const std::vector<double>& v) { return Quantile(v, 1.0); };
  return Json()
      .Int("visible_samples", static_cast<int64_t>(load.visible_ms.size()))
      .Num("visible_p90_ms", Quantile(load.visible_ms, 0.90))
      .Num("visible_p99_ms", Quantile(load.visible_ms, 0.99))
      .Num("visible_max_ms", max_of(load.visible_ms))
      .Int("query_samples", static_cast<int64_t>(load.query_us.size()))
      .Num("query_p90_us", Quantile(load.query_us, 0.90))
      .Num("query_p99_us", Quantile(load.query_us, 0.99))
      .Num("query_max_us", max_of(load.query_us))
      .Int("open_sent", load.open_sent)
      .Int("open_rejected", load.open_rejected)
      .Num("open_s", load.open_s)
      .Int("drain_batches", load.drain_batches)
      .Int("drain_backpressure", load.drain_backpressure)
      .Num("drain_s", load.drain_s)
      .Num("late_p99_ms", Quantile(load.late_ms, 0.99))
      .Num("late_max_ms", max_of(load.late_ms))
      .Int("audits", static_cast<int64_t>(pass.audits.seconds.size()))
      .Int("pipelines", static_cast<int64_t>(pass.pipelines.pipeline_s.size()))
      .Num("pipeline_audit_s", Median(pass.pipelines.audit_s))
      .Raw("audit_s_samples", JsonList(pass.audits.seconds))
      .Raw("remedy_s_samples", JsonList(pass.pipelines.remedy_s))
      .Raw("train_eval_s_samples", JsonList(pass.pipelines.train_eval_s))
      .Raw("pipeline_s_samples", JsonList(pass.pipelines.pipeline_s));
}

std::vector<Metric> PerLayer(const Pass& untraced, const Pass& traced,
                             const std::map<std::string, SpanTotals>& spans,
                             const WorkloadShape& shape,
                             const std::vector<double>& datagen_s,
                             size_t ibs_regions) {
  const ServeLoad& load = traced.load;
  const RegistryTally& open = load.open;
  const RegistryTally& drain = load.drain;
  RegistryTally serve = open;
  serve.Add(drain);
  const RegistryTally& batch = traced.batch;
  auto span_mean = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanMs();
  };
  auto span_total_ms = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : NsToMs(it->second.total_ns);
  };
  const double iterations =
      static_cast<double>(traced.pipelines.pipeline_s.size());
  const double apply_mean_ms = open.HistogramMeanMs("serve/apply_ns");
  const double stage_ms_per_group =
      span_mean("bench/serve.wal.append") + span_mean("bench/serve.wal.sync") +
      span_mean("bench/core.hierarchy.apply_deltas") +
      span_mean("bench/core.ibs_incremental.identify") +
      span_mean("bench/core.hierarchy.counts_digest") +
      span_mean("bench/serve.snapshot.ibs_copy");
  const double leaf_scan_ms =
      span_mean("bench/core.counting_backend.leaf_scan");
  const double rescored =
      static_cast<double>(open.Counter("ibs_incr/rescored_regions"));
  const double hits = static_cast<double>(open.Counter("ibs_incr/cache_hits"));
  const double reuse =
      static_cast<double>(batch.Counter("ibs/neighbor_reuse"));
  const double naive =
      static_cast<double>(batch.Counter("ibs/neighbor_naive"));
  return {
      {"serve.daemon.apply_mean_ms", apply_mean_ms, "ms"},
      {"serve.daemon.batches_per_epoch",
       Ratio(open.Counter("serve/batches_applied"),
             open.Counter("serve/epochs_published")),
       "count"},
      {"serve.daemon.drain_batches_per_epoch",
       Ratio(drain.Counter("serve/batches_applied"),
             drain.Counter("serve/epochs_published")),
       "count"},
      {"serve.daemon.submit_p50_us", Quantile(load.submit_us, 0.5), "us"},
      {"serve.daemon.rejected",
       static_cast<double>(open.Counter("serve/batches_rejected")), "count"},
      {"serve.wal.append_ms", span_mean("bench/serve.wal.append"), "ms"},
      {"serve.wal.sync_ms", span_mean("bench/serve.wal.sync"), "ms"},
      {"serve.wal.syncs", static_cast<double>(serve.Counter("wal/syncs")),
       "count"},
      {"serve.wal.bytes_per_row",
       Ratio(serve.Counter("wal/bytes_appended"),
             serve.Counter("serve/rows_ingested")),
       "B"},
      {"serve.snapshot.ibs_copy_ms", span_mean("bench/serve.snapshot.ibs_copy"),
       "ms"},
      {"serve.snapshot.ibs_regions", static_cast<double>(ibs_regions),
       "count"},
      {"serve.replay.apply_coverage", Ratio(stage_ms_per_group, apply_mean_ms),
       "ratio"},
      {"core.hierarchy.apply_deltas_ms",
       span_mean("bench/core.hierarchy.apply_deltas"), "ms"},
      {"core.hierarchy.counts_digest_ms",
       span_mean("bench/core.hierarchy.counts_digest"), "ms"},
      {"core.hierarchy.rollup_ms", span_mean("bench/core.hierarchy.rollup"),
       "ms"},
      {"core.counting_backend.leaf_scan_ms", leaf_scan_ms, "ms"},
      {"core.counting_backend.rows_per_s",
       Ratio(static_cast<double>(shape.audit_rows), leaf_scan_ms / 1e3),
       "1/s"},
      {"core.ibs_identify.sweep_ms", span_mean("bench/core.ibs_identify.sweep"),
       "ms"},
      {"core.ibs_identify.neighbor_reuse_ratio", Ratio(reuse, reuse + naive),
       "ratio"},
      {"core.ibs_incremental.identify_mean_ms",
       open.HistogramMeanMs("ibs_incr/identify_ns"), "ms"},
      {"core.ibs_incremental.rescored_per_epoch",
       Ratio(rescored,
             static_cast<double>(open.HistogramCount("ibs_incr/identify_ns"))),
       "count"},
      {"core.ibs_incremental.cache_hit_ratio", Ratio(hits, hits + rescored),
       "ratio"},
      {"core.ibs_incremental.full_fallbacks",
       static_cast<double>(serve.Counter("ibs_incr/full_fallbacks")), "count"},
      {"core.remedy.remedy_ms", span_mean("bench/core.remedy.remedy"), "ms"},
      {"core.remedy.regions_planned",
       Ratio(batch.Counter("remedy/regions_planned"), iterations), "count"},
      {"ml.fit_ms", Ratio(span_total_ms("bench/ml.fit"), iterations), "ms"},
      {"ml.predict_ms", Ratio(span_total_ms("bench/ml.predict"), iterations),
       "ms"},
      {"ml.epochs", Ratio(batch.Counter("ml/epochs"), iterations), "count"},
      {"fairness.index_ms",
       Ratio(span_total_ms("bench/fairness.index"), iterations), "ms"},
      {"common.thread_pool.queue_wait_mean_us",
       batch.HistogramMeanMs("threadpool/queue_wait_ns") * 1e3, "us"},
      {"datagen.generate_s", Median(datagen_s), "s"},
      {"loadgen.late_p99_ms", Quantile(load.late_ms, 0.99), "ms"},
      {"trace.overhead.visible_p50_ms",
       Quantile(load.visible_ms, 0.5) - Quantile(untraced.load.visible_ms, 0.5),
       "ms"},
      {"trace.overhead.audit_ms",
       (Median(traced.audits.seconds) - Median(untraced.audits.seconds)) * 1e3,
       "ms"},
      {"trace.overhead.pipeline_ms",
       (Median(traced.pipelines.pipeline_s) -
        Median(untraced.pipelines.pipeline_s)) *
           1e3,
       "ms"},
  };
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json json;
  for (const Metric& m : metrics) {
    json.Obj(m.name, Json().Num("value", m.value).Str("unit", m.unit));
  }
  return json;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Records one output check; a failed check makes the run incorrect.
class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    json_.Obj(name, Json().Bool("ok", ok).Str("detail", detail));
    std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
                detail.c_str());
    all_ok_ = all_ok_ && ok;
  }
  bool all_ok() const { return all_ok_; }
  const Json& json() const { return json_; }

 private:
  Json json_;
  bool all_ok_ = true;
};

// Every output check of a run (see README.md): `serve` holds one check per
// set-up, the last for `setup`; `traced` may be null.
Checks CheckOutputs(const Setup& setup, const std::vector<ServeCheck>& serve,
                    const Pass& untraced, const Pass* traced,
                    const AuditStages& audit_stages,
                    const StageReplay& serve_replay) {
  Checks checks;
  for (size_t i = 0; i < serve.size(); ++i) {
    const ServeCheck& check = serve[i];
    const std::string tag = ".setup" + std::to_string(i);
    checks.Expect("serve.wal_sequence" + tag, check.sequence_ok,
                  "last snapshot at WAL sequence " +
                      std::to_string(check.served.wal_sequence) + " for " +
                      std::to_string(check.acknowledged) +
                      " acknowledged batches after the seed");
    checks.Expect("serve.counts_digest" + tag, check.counts_ok,
                  "independent " + Hex64(check.counts_digest) +
                      " snapshot " + Hex64(check.served.counts_digest));
    checks.Expect("serve.ibs_digest" + tag, check.ibs_ok,
                  "from-scratch " + Hex64(check.ibs_digest) + " QueryIbs " +
                      Hex64(check.served.ibs_digest));
  }
  for (const Pass* pass : {&untraced, traced}) {
    if (pass == nullptr) continue;
    const std::string tag = pass == traced ? ".traced" : "";
    checks.Expect("audit.repeatable" + tag, pass->audits.repeatable,
                  Hex64(pass->audits.digest));
    checks.Expect("audit.stage_replay" + tag,
                  audit_stages.digest == pass->audits.digest,
                  "stage replay " + Hex64(audit_stages.digest));
    checks.Expect("pipeline.repeatable" + tag, pass->pipelines.repeatable,
                  "ibs " + Hex64(pass->pipelines.ibs_digest) + " remedied " +
                      Hex64(pass->pipelines.remedied_digest));
  }
  if (traced != nullptr) {
    checks.Expect("pipeline.traced_equals_untraced",
                  traced->pipelines.remedied_digest ==
                          untraced.pipelines.remedied_digest &&
                      traced->pipelines.ibs_digest ==
                          untraced.pipelines.ibs_digest,
                  Hex64(traced->pipelines.remedied_digest));
    checks.Expect("serve.stage_replay_counts", serve_replay.counts_match,
                  std::to_string(serve_replay.groups) + " groups, " +
                      std::to_string(serve_replay.batches) + " batches");
  }
  const uint64_t via_store = PipelineAuditViaStore(setup.train);
  checks.Expect("pipeline.audit_via_store",
                via_store == untraced.pipelines.ibs_digest, Hex64(via_store));
  bool finite = true;
  for (double fi : untraced.pipelines.fairness) {
    finite = finite && std::isfinite(fi);
  }
  checks.Expect("pipeline.fairness_finite", finite, "");
  return checks;
}

int Run(const Args& args) {
  WorkloadShape shape;
  if (!ShapeFor(args.workload, args.scale, &shape)) {
    std::fprintf(stderr, "unknown workload '%s' (want x8 or adult)\n",
                 args.workload.c_str());
    return 64;
  }
  const std::string run_dir = ".bench_out/" + args.workload + "-s" +
                              std::to_string(args.seed) + "-t" +
                              (args.trace ? "1" : "0");
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);
  std::printf("workload %s seed %llu seconds %.3f trace %d scale %g\n",
              shape.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale);

  // Traced runs record set-up spans too (bench/datagen, bench/serve.*).
  std::map<std::string, SpanTotals> spans;
  std::optional<remedy::TraceSink> sink;

  // A traced run splits its --seconds between the two passes.
  const double pass_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Pass untraced(pass_seconds);
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  std::vector<ServedSetup> earlier;  // set-ups already torn down
  std::unique_ptr<Setup> setup;
  size_t first_segment = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (setup != nullptr) {
      earlier.push_back({setup->seed, std::move(setup->warmup), first_segment,
                         untraced.load.segments.size(),
                         CaptureServed(*setup->daemon)});
      TearDown(*setup);
      setup.reset();
      first_segment = untraced.load.segments.size();
    }
    if (args.trace) sink.emplace();
    setup = RunSetup(shape, args.seed,
                     run_dir + "/state-" + std::to_string(i));
    if (sink) {
      SummarizeSpans(sink->Events(), &spans);
      sink.reset();
    }
    setup_s.push_back(setup->setup_s);
    datagen_s.push_back(setup->datagen_s);
    std::printf("setup %d: %.3fs (datagen %.3fs)\n", i, setup->setup_s,
                setup->datagen_s);
    RunRounds(*setup, shape, (i + 1) * kRounds / kSetupRepeats, &untraced);
  }
  // The high-water mark of set-up plus the untraced pass, before the traced
  // pass and the checks allocate their own copies.
  const double peak_rss_mb = PeakRssMb();
  std::optional<Pass> traced;
  StageReplay serve_replay;
  AuditStages audit_stages;
  // The live set-up's acknowledged batches: its warm-up, then its segments.
  std::vector<const Batch*> acknowledged;
  for (const Batch& b : setup->warmup) acknowledged.push_back(&b);
  Acknowledged(untraced.load, first_segment, untraced.load.segments.size(),
               &acknowledged);
  if (args.trace) {
    const std::vector<const Batch*> prior = acknowledged;
    sink.emplace();
    traced.emplace(pass_seconds);
    RunRounds(*setup, shape, kRounds, &*traced);
    serve_replay = ReplayServeStages(setup->seed, prior, traced->load,
                                     kMaxReplayGroups, run_dir);
    audit_stages = ReplayAuditStages(setup->audit_store);
    SummarizeSpans(sink->Events(), &spans);
    remedy::Status written = sink->WriteChromeJson(run_dir + "/trace.json");
    if (!written.ok()) {
      std::fprintf(stderr, "trace write: %s\n", written.ToString().c_str());
    }
    sink.reset();
    Acknowledged(traced->load, 0, traced->load.segments.size(),
                 &acknowledged);
  } else {
    audit_stages = ReplayAuditStages(setup->audit_store);
  }

  std::vector<ServeCheck> serve_checks;
  for (const ServedSetup& done : earlier) {
    std::vector<const Batch*> batches;
    for (const Batch& b : done.warmup) batches.push_back(&b);
    Acknowledged(untraced.load, done.first_segment, done.end_segment,
                 &batches);
    serve_checks.push_back(CheckServe(done.served, done.seed, batches));
  }
  serve_checks.push_back(
      CheckServe(CaptureServed(*setup->daemon), setup->seed, acknowledged));
  const ServeCheck& serve = serve_checks.back();
  const Checks checks = CheckOutputs(*setup, serve_checks, untraced,
                                     traced ? &*traced : nullptr,
                                     audit_stages, serve_replay);

  // --- open-loop honesty ------------------------------------------------
  std::vector<const Pass*> passes = {&untraced};
  if (traced) passes.push_back(&*traced);
  const double late_limit_ms =
      std::max(kMaxLateP99Ms, 0.5 * 1e3 / shape.ingest_rate);
  for (const Pass* pass : passes) {
    const double late_p99 = Quantile(pass->load.late_ms, 0.99);
    if (late_p99 > late_limit_ms) {
      std::fprintf(stderr,
                   "load generator ran %.3f ms late at p99 (limit %.1f ms): "
                   "the open-loop schedule was not applied; run invalid\n",
                   late_p99, late_limit_ms);
      TearDown(*setup);
      return 3;
    }
  }

  const std::vector<Metric> e2e = EndToEnd(untraced, Median(setup_s),
                                           peak_rss_mb);
  std::vector<Metric> per_layer;
  if (traced) {
    per_layer = PerLayer(untraced, *traced, spans, shape, datagen_s,
                         serve.served.ibs_regions);
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Pass* pass : passes) {
    attempted += ServeAttempted(pass->load) +
                 static_cast<int64_t>(pass->audits.seconds.size() +
                                      pass->pipelines.pipeline_s.size());
    failed += pass->load.open_rejected;
  }

  // --- reporting ----------------------------------------------------------
  PrintMetrics("end-to-end (untraced pass):", e2e);
  std::printf("ungated: visible p90 %.3f ms p99 %.3f ms, query p90 %.1f us "
              "p99 %.1f us, generator late p99 %.3f ms\n",
              Quantile(untraced.load.visible_ms, 0.90),
              Quantile(untraced.load.visible_ms, 0.99),
              Quantile(untraced.load.query_us, 0.90),
              Quantile(untraced.load.query_us, 0.99),
              Quantile(untraced.load.late_ms, 0.99));
  if (traced) {
    PrintMetrics("per-layer (traced pass):", per_layer);
    std::printf("span self times (traced run):\n");
    for (const auto& [name, t] : spans) {
      std::printf("  %-42s n=%-7lld total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), static_cast<long long>(t.count),
                  NsToMs(t.total_ns), NsToMs(t.self_ns));
    }
  }

  Json stamp;
  stamp.Str("workload", shape.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Num("scale", args.scale)
      .Int("nproc", AffinityCpus())
      .Str("cpu_model", CpuModel())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("git_sha", args.git_sha)
      .Str("source_digest", args.source_digest)
      .Str("flush_policy", kFlushPolicy)
      .Num("ingest_rate_per_s", shape.ingest_rate)
      .Num("query_rate_per_s", shape.query_rate)
      .Int("serve_rows", shape.serve_rows)
      .Int("audit_rows", shape.audit_rows)
      .Int("pipeline_rows", shape.pipeline_rows);
  Json digests;
  digests.Str("serve_counts", Hex64(serve.counts_digest))
      .Str("serve_ibs", Hex64(serve.ibs_digest))
      .Str("audit_ibs", Hex64(untraced.audits.digest))
      .Str("pipeline_ibs", Hex64(untraced.pipelines.ibs_digest))
      .Str("pipeline_remedied_leaf_counts",
           Hex64(untraced.pipelines.remedied_digest));
  const char* fi_names[] = {"lg_fpr", "lg_fnr", "dt_fpr", "dt_fnr"};
  for (size_t i = 0; i < untraced.pipelines.fairness.size() && i < 4; ++i) {
    digests.Str(std::string("fairness_index_") + fi_names[i] + "_bits",
                DoubleBits(untraced.pipelines.fairness[i]));
  }
  Json setup_json;
  setup_json.Raw("setup_s", JsonList(setup_s))
      .Raw("datagen_s", JsonList(datagen_s));
  Json spans_json;
  for (const auto& [name, t] : spans) {
    spans_json.Obj(name, Json()
                             .Int("count", t.count)
                             .Num("total_ms", NsToMs(t.total_ns))
                             .Num("self_ms", NsToMs(t.self_ns)));
  }
  Json detail;
  detail.Obj("stamp", stamp)
      .Obj("end_to_end", MetricsJson(e2e))
      .Obj("ungated", Ungated(untraced))
      .Obj("per_layer", MetricsJson(per_layer))
      .Obj("digests", digests)
      .Obj("checks", checks.json())
      .Obj("setup", setup_json)
      .Obj("spans", spans_json)
      .Int("replayed_groups", serve_replay.groups);
  {
    std::ofstream out(run_dir + "/result.json");
    out << detail.Dump() << "\n";
  }
  std::printf("stamp: %s\n", stamp.Dump().c_str());
  std::printf("digests: %s\n", digests.Dump().c_str());

  TearDown(*setup);
  setup.reset();

  Json result;
  result.Bool("correct", checks.all_ok())
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Obj("metrics", MetricsJson(args.trace ? per_layer : e2e));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return checks.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 64;
  return perfbench::Run(args);
}

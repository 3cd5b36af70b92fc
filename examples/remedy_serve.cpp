// remedy_serve: the crash-safe streaming fairness daemon front end
// (docs/SERVICE.md).
//
//   remedy_serve <schema> --state-dir DIR [flags]
//
// `<schema>` fixes the protected-attribute universe the daemon counts
// over: a built-in generator (`@adult`, `@compas`, `@lawschool`,
// optionally `@adult:10000`) or a CSV file with `--protected a,b,...`
// (`--label` defaults to the last column). The daemon recovers whatever
// durable state `--state-dir` already holds (checkpoint + WAL tail),
// then ingests and serves.
//
// Ingest flags:
//   --seed             submit the schema dataset's own rows as the first
//                      batch (cold starts only make sense with data)
//   --batch FILE       ingest one CSV delta batch (repeatable; see
//                      docs/SERVICE.md for the batch format). Backpressure
//                      rejections are retried after the daemon's hint.
//   --demo N           synthesize N small delta batches against the schema
//                      dataset's leaves and ingest them (self-contained
//                      smoke workload, no files needed)
//   --kill-after N     after N applied demo/batch ingests, exit WITHOUT
//                      checkpointing (simulates a crash; the next start
//                      must replay the WAL). Testing hook.
//
// Remedy flags (docs/REMEDY.md):
//   --remedy TECH      after ingest drains, plan + commit one remedy
//                      round (TECH is ps|us|os|massage)
//   --auto-remedy      monitor policy hook: every identify epoch with a
//                      non-empty IBS triggers a remedy round on a
//                      dedicated thread, up to --remedy-rounds per quiet
//                      period (ingest refills the budget)
//   --remedy-seed N    RNG seed of the remedy planner (default 23)
//   --remedy-rounds N  auto-remedy round budget (default 4)
//   --kill-after-remedy  exit WITHOUT checkpointing once the remedy phase
//                      is done (crash simulation: recovery must replay the
//                      remedy records). Testing hook.
//
// Daemon tuning: --queue-capacity N, --retry-after-ms MS, --watchdog N,
// --checkpoint-every N, --identify-every N, --threads N; audit params
// --tau-c X, --T X, --min-region N.
//
// Lifecycle: without --serve the daemon ingests the requested batches,
// prints health, drains + checkpoints and exits. With --serve it then
// stays up until SIGINT/SIGTERM, which drains the queue, checkpoints,
// resets the WAL and exits 0 (the signal path is the graceful one; only
// SIGKILL loses the checkpoint, and then recovery replays the WAL).
// --health-out FILE additionally writes the final health JSON to a file.
// --trace-out FILE records tracing spans for the whole run — each epoch's
// serve/commit, serve/apply, serve/publish and serve/identify — and writes
// them as Chrome trace JSON on exit (crash simulations included).
//
// Exit codes match remedy_cli: 0 success, 1 usage, 64 invalid argument,
// 65 corrupt state, 70 internal, 74 I/O, 75 resource exhausted.

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/hierarchy.h"
#include "data/loader.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "datagen/law_school.h"
#include "serve/daemon.h"

namespace {

using namespace remedy;

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 64;
    case StatusCode::kDataCorruption:
      return 65;
    case StatusCode::kIoError:
      return 74;
    case StatusCode::kResourceExhausted:
      return 75;
    case StatusCode::kInternal:
      return 70;
  }
  return 70;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return ExitCodeFor(status.code());
}

struct ServeArgs {
  bool valid = false;
  std::string input;
  std::string state_dir;
  std::vector<std::string> batch_files;
  bool seed = false;
  int demo_batches = 0;
  int kill_after = 0;
  bool serve = false;
  std::string health_out;
  std::string trace_out;
  bool remedy_once = false;
  bool kill_after_remedy = false;
  ServeOptions options;
  LoaderOptions loader;
  bool protected_given = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: remedy_serve <@adult[:N]|@compas[:N]|@lawschool[:N]|schema.csv>"
      " --state-dir DIR\n"
      "  [--protected a,b,...] [--label col] [--seed] [--batch file]...\n"
      "  [--demo N] [--kill-after N] [--serve] [--health-out file]\n"
      "  [--trace-out file.json]\n"
      "  [--remedy ps|us|os|massage] [--auto-remedy]\n"
      "  [--remedy-seed N] [--remedy-rounds N] [--kill-after-remedy]\n"
      "  [--queue-capacity N] [--retry-after-ms MS] [--watchdog N]\n"
      "  [--checkpoint-every N] [--identify-every N] [--threads N]\n"
      "  [--tau-c X] [--T X] [--min-region N]\n");
}

ServeArgs ParseArgs(int argc, char** argv) {
  ServeArgs args;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto value_of = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return "";
    };
    if (arg == "--state-dir") {
      args.state_dir = value_of();
    } else if (arg == "--protected") {
      for (const std::string& name : Split(value_of(), ',')) {
        args.loader.protected_attributes.push_back(name);
      }
      args.protected_given = true;
    } else if (arg == "--label") {
      args.loader.label_column = value_of();
    } else if (arg == "--seed") {
      args.seed = true;
    } else if (arg == "--batch") {
      args.batch_files.push_back(value_of());
    } else if (arg == "--demo") {
      args.demo_batches = std::atoi(value_of().c_str());
    } else if (arg == "--kill-after") {
      args.kill_after = std::atoi(value_of().c_str());
    } else if (arg == "--serve") {
      args.serve = true;
    } else if (arg == "--health-out") {
      args.health_out = value_of();
    } else if (arg == "--trace-out") {
      args.trace_out = value_of();
    } else if (arg == "--remedy") {
      const std::string technique = value_of();
      if (technique == "ps") {
        args.options.remedy.technique =
            RemedyTechnique::kPreferentialSampling;
      } else if (technique == "us") {
        args.options.remedy.technique = RemedyTechnique::kUndersample;
      } else if (technique == "os") {
        args.options.remedy.technique = RemedyTechnique::kOversample;
      } else if (technique == "massage") {
        args.options.remedy.technique = RemedyTechnique::kMassaging;
      } else {
        std::fprintf(stderr, "--remedy wants ps|us|os|massage\n");
        return args;
      }
      args.remedy_once = true;
    } else if (arg == "--auto-remedy") {
      args.options.auto_remedy = true;
    } else if (arg == "--remedy-seed") {
      args.options.remedy.seed =
          static_cast<uint64_t>(std::atoll(value_of().c_str()));
    } else if (arg == "--remedy-rounds") {
      args.options.auto_remedy_max_rounds = std::atoi(value_of().c_str());
    } else if (arg == "--kill-after-remedy") {
      args.kill_after_remedy = true;
    } else if (arg == "--queue-capacity") {
      args.options.queue_capacity =
          static_cast<size_t>(std::atoll(value_of().c_str()));
    } else if (arg == "--retry-after-ms") {
      args.options.retry_after_ms = std::atoi(value_of().c_str());
    } else if (arg == "--watchdog") {
      args.options.watchdog_trip_threshold = std::atoi(value_of().c_str());
    } else if (arg == "--checkpoint-every") {
      args.options.checkpoint_every_batches = std::atoll(value_of().c_str());
    } else if (arg == "--identify-every") {
      args.options.identify_every_epochs = std::atoi(value_of().c_str());
    } else if (arg == "--threads") {
      args.options.build_threads = std::atoi(value_of().c_str());
    } else if (arg == "--tau-c") {
      args.options.ibs.imbalance_threshold = std::atof(value_of().c_str());
    } else if (arg == "--T") {
      args.options.ibs.distance_threshold = std::atof(value_of().c_str());
    } else if (arg == "--min-region") {
      args.options.ibs.min_region_size = std::atoi(value_of().c_str());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return args;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    std::fprintf(stderr, "exactly one schema input is required\n");
    return args;
  }
  args.input = positional[0];
  if (args.state_dir.empty()) {
    std::fprintf(stderr, "--state-dir is required\n");
    return args;
  }
  const bool generated = args.input[0] == '@';
  if (!args.protected_given && !generated) {
    std::fprintf(stderr, "--protected is required for file input\n");
    return args;
  }
  if (args.kill_after_remedy && !args.remedy_once &&
      !args.options.auto_remedy) {
    std::fprintf(stderr,
                 "--kill-after-remedy needs --remedy or --auto-remedy\n");
    return args;
  }
  if (args.remedy_once || args.options.auto_remedy) {
    args.options.enable_remedy = true;
  }
  args.options.state_dir = args.state_dir;
  args.valid = true;
  return args;
}

// Loads the schema dataset: a generator name or a CSV file, through the
// same loader remedy_cli uses.
StatusOr<Dataset> LoadSchemaDataset(ServeArgs* args) {
  if (args->input[0] != '@') {
    LoaderReport report;
    return LoadCsvDataset(args->input, args->loader, &report, nullptr);
  }
  std::string name = args->input.substr(1);
  int rows = 0;
  const size_t colon = name.find(':');
  if (colon != std::string::npos) {
    rows = std::atoi(name.c_str() + colon + 1);
    if (rows <= 0) {
      return InvalidArgumentError("bad row count in generator input '" +
                                  args->input + "'");
    }
    name = name.substr(0, colon);
  }
  if (name == "adult") return rows > 0 ? MakeAdult(rows) : MakeAdult();
  if (name == "compas") return rows > 0 ? MakeCompas(rows) : MakeCompas();
  if (name == "lawschool") {
    return rows > 0 ? MakeLawSchool(rows) : MakeLawSchool();
  }
  return InvalidArgumentError("unknown generator '" + args->input +
                              "' (want @adult, @compas or @lawschool)");
}

// Submits pre-aggregated deltas, waiting out backpressure: a
// kResourceExhausted rejection is retried after the daemon's retry-after
// hint. Any other rejection is final.
Status SubmitWithBackpressure(ServeDaemon& daemon,
                              std::vector<Hierarchy::LeafDelta> deltas,
                              int retry_after_ms) {
  for (;;) {
    Status s = daemon.Submit(deltas);
    if (s.code() != StatusCode::kResourceExhausted) return s;
    std::this_thread::sleep_for(std::chrono::milliseconds(retry_after_ms));
  }
}

// The schema dataset's full leaf census as one batch of insertions.
std::vector<Hierarchy::LeafDelta> SeedDeltas(const Dataset& data) {
  Hierarchy hierarchy(data);
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::vector<Hierarchy::LeafDelta> deltas;
  deltas.reserve(leaves.size());
  for (const auto& [key, counts] : leaves) {
    deltas.push_back({key, counts.positives, counts.negatives});
  }
  return deltas;
}

// One synthetic demo batch: a handful of insertions over the schema's
// observed leaves, deterministic in `round` so reruns are reproducible.
std::vector<Hierarchy::LeafDelta> DemoBatch(
    const std::vector<uint64_t>& leaf_keys, int round) {
  Rng rng(0x5eedULL + static_cast<uint64_t>(round));
  std::vector<Hierarchy::LeafDelta> deltas;
  const int touched = rng.UniformRange(1, 4);
  for (int i = 0; i < touched; ++i) {
    const uint64_t key =
        leaf_keys[rng.UniformInt(static_cast<int>(leaf_keys.size()))];
    deltas.push_back({key, rng.UniformInt(4), rng.UniformInt(4)});
  }
  return deltas;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IoError("cannot open " + path);
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (n != text.size() || rc != 0) return IoError("write failed: " + path);
  return OkStatus();
}

void PrintSnapshot(const ServeDaemon& daemon) {
  std::shared_ptr<const EpochSnapshot> snap = daemon.Snapshot();
  std::printf("epoch %llu: %lld+ / %lld- instances, %zu biased region(s)%s\n",
              static_cast<unsigned long long>(snap->epoch),
              static_cast<long long>(snap->totals.positives),
              static_cast<long long>(snap->totals.negatives),
              snap->ibs.size(), snap->read_only ? " [read-only]" : "");
}

// True when a blocked SIGINT/SIGTERM is already pending (non-blocking
// probe, used between batches so a Ctrl-C mid-ingest still drains).
bool SignalPending(const sigset_t& set) {
  struct timespec zero = {0, 0};
  return sigtimedwait(&set, nullptr, &zero) > 0;
}

// Writes the collected spans when --trace-out asked for them.
void WriteTrace(const ServeArgs& args) {
  const TraceSink* sink = TraceSink::Active();
  if (sink == nullptr || args.trace_out.empty()) return;
  Status written = sink->WriteChromeJson(args.trace_out);
  std::printf("trace %s: %s\n", args.trace_out.c_str(),
              written.ok() ? "written" : written.ToString().c_str());
}

int Run(ServeArgs& args, const sigset_t& signals) {
  StatusOr<Dataset> schema_data = LoadSchemaDataset(&args);
  if (!schema_data.ok()) return Fail("schema load failed", schema_data.status());
  const Dataset& data = schema_data.value();
  std::printf("schema: %d attributes, %d protected; state dir %s\n",
              data.schema().NumAttributes(), data.schema().NumProtected(),
              args.state_dir.c_str());

  StatusOr<std::unique_ptr<ServeDaemon>> started =
      ServeDaemon::Start(data.schema(), args.options);
  if (!started.ok()) return Fail("daemon start failed", started.status());
  ServeDaemon& daemon = *started.value();
  std::printf("recovered: %s\n", daemon.HealthJson().c_str());

  int applied_ingests = 0;
  bool killed = false;
  auto after_ingest = [&]() -> bool {  // returns "keep going"
    ++applied_ingests;
    if (args.kill_after > 0 && applied_ingests >= args.kill_after) {
      killed = true;
      return false;
    }
    return !SignalPending(signals);
  };

  if (args.seed) {
    Status s = SubmitWithBackpressure(daemon, SeedDeltas(data),
                                      args.options.retry_after_ms);
    if (!s.ok()) return Fail("seed batch rejected", s);
    std::printf("seeded %d rows\n", data.NumRows());
    after_ingest();
  }
  bool interrupted_ingest = false;
  for (const std::string& file : args.batch_files) {
    if (interrupted_ingest || killed) break;
    Status s = daemon.IngestCsvFile(file);
    if (s.code() == StatusCode::kResourceExhausted) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.options.retry_after_ms));
      s = daemon.IngestCsvFile(file);
    }
    if (!s.ok()) return Fail(("batch " + file + " rejected").c_str(), s);
    std::printf("ingested batch %s\n", file.c_str());
    interrupted_ingest = !after_ingest();
  }
  if (args.demo_batches > 0 && !interrupted_ingest && !killed) {
    std::vector<uint64_t> leaf_keys;
    for (const Hierarchy::LeafDelta& d : SeedDeltas(data)) {
      leaf_keys.push_back(d.leaf_key);
    }
    if (leaf_keys.empty()) {
      return Fail("demo needs a non-empty schema dataset",
                  InvalidArgumentError("no leaves"));
    }
    int ingested = 0;
    for (int round = 0; round < args.demo_batches; ++round) {
      Status s = SubmitWithBackpressure(daemon, DemoBatch(leaf_keys, round),
                                        args.options.retry_after_ms);
      if (!s.ok()) return Fail("demo batch rejected", s);
      ++ingested;
      if (!after_ingest()) {
        interrupted_ingest = true;
        break;
      }
    }
    std::printf("ingested %d demo batch(es)\n", ingested);
  }

  if (killed) {
    // Crash simulation: leave the WAL as-is — no drain, no checkpoint.
    // The next start must replay to these exact counts.
    Status flushed = daemon.Flush();
    PrintSnapshot(daemon);
    std::printf("kill-after: exiting without checkpoint (wal retains %s)\n",
                flushed.ok() ? "all applied batches" : "the durable prefix");
    std::printf("final: %s\n", daemon.HealthJson().c_str());
    WriteTrace(args);
    std::fflush(stdout);
    std::_Exit(0);  // ~ServeDaemon would checkpoint; a crash doesn't.
  }

  Status flushed = daemon.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "degraded: %s\n", flushed.ToString().c_str());
  }
  PrintSnapshot(daemon);

  // --- remedy phase: after ingest has drained (docs/REMEDY.md) --------
  if (args.remedy_once && !daemon.read_only()) {
    RemedyParams params = args.options.remedy;
    params.ibs = args.options.ibs;
    // A concurrent auto-remedy round can make this plan stale; re-plan.
    StatusOr<RemedyCommitResult> remedied = daemon.SubmitRemedy(params);
    for (int attempt = 0;
         !remedied.ok() &&
         remedied.status().code() == StatusCode::kResourceExhausted &&
         attempt < 3;
         ++attempt) {
      remedied = daemon.SubmitRemedy(params);
    }
    if (!remedied.ok()) return Fail("remedy failed", remedied.status());
    const RemedyCommitResult& r = remedied.value();
    if (r.committed) {
      std::printf(
          "remedy committed: %zu leaf delta(s), epoch %llu -> %llu "
          "(+%lld/-%lld instances, %lld flips)\n",
          r.deltas, static_cast<unsigned long long>(r.planned_epoch),
          static_cast<unsigned long long>(r.applied_epoch),
          static_cast<long long>(r.stats.instances_added),
          static_cast<long long>(r.stats.instances_removed),
          static_cast<long long>(r.stats.labels_flipped));
    } else {
      std::printf("remedy: nothing to do at epoch %llu\n",
                  static_cast<unsigned long long>(r.planned_epoch));
    }
  }
  if (args.options.auto_remedy) {
    daemon.WaitRemedyIdle();
    Status drained = daemon.Flush();
    if (!drained.ok()) {
      std::fprintf(stderr, "degraded: %s\n", drained.ToString().c_str());
    }
    std::printf("auto-remedy quiesced: %lld remedy commit(s)\n",
                static_cast<long long>(daemon.remedy_commits()));
  }
  if (args.remedy_once || args.options.auto_remedy) PrintSnapshot(daemon);
  if (args.kill_after_remedy) {
    // Crash simulation mirroring --kill-after: the remedy records are
    // durable in the WAL but no checkpoint covers them; the next start
    // must replay to the post-remedy counts.
    const std::string health = daemon.HealthJson();
    std::printf("kill-after-remedy: exiting without checkpoint\n");
    std::printf("final: %s\n", health.c_str());
    if (!args.health_out.empty()) {
      Status written = WriteTextFile(args.health_out, health + "\n");
      if (!written.ok()) return Fail("health write failed", written);
    }
    WriteTrace(args);
    std::fflush(stdout);
    std::_Exit(0);
  }

  if (args.serve && !interrupted_ingest) {
    std::printf("serving; SIGINT/SIGTERM drains and checkpoints\n");
    std::fflush(stdout);
    int sig = 0;
    sigwait(&signals, &sig);
    std::printf("signal %d: draining\n", sig);
  } else if (interrupted_ingest) {
    std::printf("interrupted: draining\n");
  }

  Status stopped = daemon.Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "shutdown degraded: %s\n", stopped.ToString().c_str());
  }
  const std::string health = daemon.HealthJson();
  std::printf("final: %s\n", health.c_str());
  WriteTrace(args);
  if (!args.health_out.empty()) {
    Status written = WriteTextFile(args.health_out, health + "\n");
    if (!written.ok()) return Fail("health write failed", written);
    std::printf("wrote %s\n", args.health_out.c_str());
  }
  // A degraded-but-drained shutdown still served; only report hard errors.
  if (!stopped.ok() && !daemon.needs_recovery()) {
    return ExitCodeFor(stopped.code());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args = ParseArgs(argc, argv);
  if (!args.valid) {
    PrintUsage();
    return 1;
  }
  // Block SIGINT/SIGTERM in every thread (the apply thread inherits this
  // mask), then consume them synchronously: sigwait in --serve mode, a
  // non-blocking pending probe between ingests otherwise. Either way the
  // daemon drains and checkpoints instead of dying mid-commit.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  std::unique_ptr<TraceSink> sink;
  if (!args.trace_out.empty()) sink = std::make_unique<TraceSink>();
  return Run(args, signals);
}

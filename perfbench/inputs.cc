#include "inputs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/check.h"
#include "common/trace.h"
#include "datagen/adult.h"
#include "datagen/generator.h"
#include "datagen/synthetic_spec.h"
#include "harness.h"

namespace perfbench {

using remedy::Hierarchy;

namespace {

// The serve_steady synthetic: 8 protected attributes of cardinality 4, one
// non-protected feature, two planted biases.
remedy::SyntheticSpec X8Spec(int64_t rows) {
  remedy::SyntheticSpec spec;
  spec.name = "perfbench_x8";
  for (int i = 0; i < 8; ++i) {
    const std::string name = "x" + std::to_string(i);
    spec.attributes.push_back(remedy::IndependentAttribute(
        remedy::AttributeSchema(
            name, {name + "_0", name + "_1", name + "_2", name + "_3"}),
        {4.0, 3.0, 2.0, 1.0}));
    spec.protected_indices.push_back(i);
  }
  spec.attributes.push_back(remedy::IndependentAttribute(
      remedy::AttributeSchema("f", {"f0", "f1"}), {1.0, 1.0}));
  spec.num_rows = static_cast<int>(rows);
  spec.base_logit = -0.4;
  spec.label_terms = {{0, 0, 0.8}, {1, 3, -0.6}, {2, 1, 0.4}};
  spec.injections = {{{0, 1, -1, -1, -1, -1, -1, -1, -1}, 1.2},
                     {{-1, -1, 2, 3, -1, -1, -1, -1, -1}, -1.0}};
  spec.Validate();
  return spec;
}

// Adult with X widened to the Fig. 9 set of 8 attributes.
remedy::SyntheticSpec AdultX8Spec(int64_t rows) {
  remedy::SyntheticSpec spec = remedy::AdultSpec(static_cast<int>(rows));
  const remedy::DataSchema schema = spec.MakeSchema();
  spec.protected_indices.clear();
  for (const std::string& name : remedy::AdultScalabilityProtected(8)) {
    spec.protected_indices.push_back(schema.AttributeIndex(name));
  }
  return spec;
}

template <typename Source>
ServeSeed SeedFrom(const Source& source) {
  Hierarchy hierarchy(source);
  ServeSeed seed;
  seed.schema = hierarchy.schema();
  seed.leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  seed.totals = hierarchy.TotalCounts();
  for (const auto& entry : seed.leaves) seed.leaf_keys.push_back(entry.first);
  return seed;
}

}  // namespace

bool ShapeFor(const std::string& name, double scale, WorkloadShape* shape) {
  auto rows = [scale](double n) {
    return static_cast<int>(std::max(2000.0, n * scale));
  };
  WorkloadShape s;
  s.name = name;
  if (name == "x8") {
    s.serve_rows = rows(1.2e6);
    s.ingest_rate = 5.0;
    s.query_rate = 25.0;
    s.drain_pace = 100.0;
    s.audit_rows = rows(4e6);
    s.pipeline_rows = rows(45000);
  } else if (name == "adult") {
    s.adult = true;
    s.serve_rows = rows(1e6);
    s.ingest_rate = 125.0;
    s.query_rate = 200.0;
    s.drain_pace = 2500.0;
    s.audit_rows = rows(4e6);
    s.pipeline_rows = rows(45000);
  } else {
    return false;
  }
  *shape = s;
  return true;
}

remedy::IbsParams BenchIbsParams() {
  remedy::IbsParams params;
  params.imbalance_threshold = 0.5;
  return params;
}

BatchSource::BatchSource(const ServeSeed& seed, const WorkloadShape& shape,
                         uint64_t rng_seed)
    : keys_(seed.leaf_keys),
      adult_(shape.adult),
      window_(shape.adult ? 250 : 50),
      rng_(rng_seed) {
  REMEDY_CHECK(!keys_.empty()) << "the seed census has no leaves";
}

Batch BatchSource::Next() {
  const int n = static_cast<int>(keys_.size());
  pending_insert_.clear();
  if (adult_) {
    const int touched = rng_.UniformRange(1, 2);
    for (int i = 0; i < touched; ++i) {
      pending_insert_.push_back(
          {keys_[rng_.UniformInt(n)], rng_.UniformInt(4), rng_.UniformInt(4)});
    }
  } else {
    constexpr int kLeaves = 4;
    constexpr int kPerLeaf = 500 / kLeaves;
    for (int i = 0; i < kLeaves; ++i) {
      const int positives = rng_.UniformInt(kPerLeaf + 1);
      pending_insert_.push_back(
          {keys_[rng_.UniformInt(n)], positives, kPerLeaf - positives});
    }
  }
  Batch deltas = pending_insert_;
  pending_retract_.reset();
  if (live_.size() >= window_) {
    pending_retract_ = std::move(live_.front());
    live_.pop_front();
    for (const Hierarchy::LeafDelta& d : *pending_retract_) {
      deltas.push_back({d.leaf_key, -d.delta_positives, -d.delta_negatives});
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Hierarchy::LeafDelta& a, const Hierarchy::LeafDelta& b) {
              return a.leaf_key < b.leaf_key;
            });
  Batch merged;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    if (!merged.empty() && merged.back().leaf_key == delta.leaf_key) {
      merged.back().delta_positives += delta.delta_positives;
      merged.back().delta_negatives += delta.delta_negatives;
    } else {
      merged.push_back(delta);
    }
  }
  return merged;
}

void BatchSource::Settle(bool acknowledged) {
  if (acknowledged) {
    live_.push_back(std::move(pending_insert_));
  } else if (pending_retract_) {
    live_.push_front(std::move(*pending_retract_));
  }
  pending_insert_.clear();
  pending_retract_.reset();
}

int64_t SubmitThroughBackpressure(remedy::ServeDaemon& daemon,
                                  const Batch& batch) {
  for (int64_t rejected = 0;; ++rejected) {
    remedy::Status s = daemon.Submit(batch);
    if (s.ok()) return rejected;
    REMEDY_CHECK(s.code() == remedy::StatusCode::kResourceExhausted)
        << "submit: " << s.ToString();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::unique_ptr<Setup> RunSetup(const WorkloadShape& shape, uint64_t seed,
                                const std::string& state_dir) {
  REMEDY_CHECK(!std::filesystem::exists(state_dir))
      << "state dir " << state_dir << " already exists";
  auto setup = std::make_unique<Setup>();
  setup->state_dir = state_dir;
  int64_t datagen_ns = 0;
  const int64_t start = NowNs();

  // Serve input -> seed census -> a started, seeded daemon.
  {
    int64_t t0 = 0;
    if (shape.adult) {
      remedy::TraceSpan span("bench/datagen");
      t0 = NowNs();
      const remedy::Dataset data = remedy::MakeAdult(shape.serve_rows, seed);
      datagen_ns += NowNs() - t0;
      setup->seed = SeedFrom(data);
    } else {
      remedy::ColumnarShardStore store;
      {
        remedy::TraceSpan span("bench/datagen");
        t0 = NowNs();
        store = remedy::GenerateSyntheticStore(X8Spec(shape.serve_rows), seed);
        datagen_ns += NowNs() - t0;
      }
      setup->seed = SeedFrom(store);
    }
  }
  {
    remedy::TraceSpan span("bench/serve.start");
    remedy::ServeOptions options;
    options.state_dir = state_dir;
    options.ibs = BenchIbsParams();
    auto started = remedy::ServeDaemon::Start(setup->seed.schema, options);
    REMEDY_CHECK(started.ok()) << started.status().ToString();
    setup->daemon = std::move(started).value();
  }
  {
    remedy::TraceSpan span("bench/serve.seed");
    std::vector<Hierarchy::LeafDelta> census;
    census.reserve(setup->seed.leaves.size());
    for (const auto& [key, counts] : setup->seed.leaves) {
      census.push_back({key, counts.positives, counts.negatives});
    }
    remedy::Status submitted = setup->daemon->Submit(std::move(census));
    REMEDY_CHECK(submitted.ok()) << submitted.ToString();
    // One window of the stream, so the timed phases start in steady state.
    setup->source =
        std::make_unique<BatchSource>(setup->seed, shape, seed ^ 0xba7c4ull);
    for (size_t i = 0; i < setup->source->window(); ++i) {
      Batch batch = setup->source->Next();
      SubmitThroughBackpressure(*setup->daemon, batch);
      setup->source->Settle(true);
      setup->warmup.push_back(std::move(batch));
    }
    remedy::Status flushed = setup->daemon->Flush();
    REMEDY_CHECK(flushed.ok()) << flushed.ToString();
  }

  // Store-backed audit input.
  {
    remedy::TraceSpan span("bench/datagen");
    const int64_t t0 = NowNs();
    setup->audit_store = remedy::GenerateSyntheticStore(
        shape.adult ? AdultX8Spec(shape.audit_rows)
                    : X8Spec(shape.audit_rows),
        seed + 1);
    datagen_ns += NowNs() - t0;
  }

  // Pipeline input, split 70/30.
  {
    remedy::Dataset data;
    {
      remedy::TraceSpan span("bench/datagen");
      const int64_t t0 = NowNs();
      if (shape.adult) {
        data = remedy::MakeAdult(shape.pipeline_rows, seed + 2);
        data.SetProtected(remedy::AdultScalabilityProtected(8));
      } else {
        data = remedy::GenerateSynthetic(X8Spec(shape.pipeline_rows), seed + 2);
      }
      datagen_ns += NowNs() - t0;
    }
    remedy::Rng rng(seed + 3);
    auto [train, test] = data.TrainTestSplit(0.7, rng);
    setup->train = std::move(train);
    setup->test = std::move(test);
  }

  setup->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  setup->datagen_s = static_cast<double>(datagen_ns) / 1e9;
  return setup;
}

void TearDown(Setup& setup) {
  if (setup.daemon != nullptr) {
    remedy::Status stopped = setup.daemon->Stop();
    if (!stopped.ok()) {
      std::fprintf(stderr, "daemon stop: %s\n", stopped.ToString().c_str());
    }
    setup.daemon.reset();
  }
  std::error_code ignored;
  std::filesystem::remove_all(setup.state_dir, ignored);
}

}  // namespace perfbench

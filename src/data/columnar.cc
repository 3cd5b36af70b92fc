#include "data/columnar.h"

#include <sys/stat.h>

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/pipeline_metrics.h"
#include "data/mmap_file.h"
#include "data/shard_file.h"

namespace remedy {
namespace {

int64_t PadTo(int64_t bytes) {
  return (kShardFileAlign - bytes % kShardFileAlign) % kShardFileAlign;
}

// The on-disk format is little-endian; the mmap read path reinterprets the
// u16 code arrays in place, so a big-endian host gets a clean refusal
// instead of silently miscounted codes.
Status RequireLittleEndianHost(const char* operation) {
  if constexpr (std::endian::native != std::endian::little) {
    return IoError(std::string(operation) +
                   " requires a little-endian host (spilled stores are "
                   "fixed little-endian)");
  }
  return OkStatus();
}

// Bounded retry with doubling backoff for spilled-shard reads — the same
// transient-I/O policy ReadCsvFile applies to CSV files. Only kIoError is
// retried: corrupt bytes (kDataCorruption) and schema mismatches
// (kInvalidArgument) cannot heal by trying again.
constexpr int kShardReadMaxAttempts = 3;
constexpr int kShardReadInitialBackoffMs = 1;

template <typename Fn>
auto RetryShardRead(Fn&& attempt) -> decltype(attempt()) {
  auto result = attempt();
  int backoff_ms = kShardReadInitialBackoffMs;
  for (int retry = 2; retry <= kShardReadMaxAttempts && !result.ok() &&
                      result.status().code() == StatusCode::kIoError;
       ++retry) {
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    PipelineMetrics::Get().store_shard_read_retries->Increment();
    result = attempt();
  }
  return result;
}

// ReadShardFileHeader behind the retry policy and its fault point.
StatusOr<ShardFileHeader> ReadShardHeaderWithRetry(const std::string& path) {
  return RetryShardRead([&]() -> StatusOr<ShardFileHeader> {
    REMEDY_FAULT_POINT("store/shard_read");
    return ReadShardFileHeader(path);
  });
}

}  // namespace

// The spilled half of a store: per-shard file paths + validated headers
// from OpenSpilled, and — once EnsureMapped ran — the mappings and the
// kernel-ready views into them. Read-only after mapping, so one state may
// be shared by store copies and read from any counting thread.
struct ColumnarShardStore::MappedState {
  struct MappedShard {
    std::string path;
    ShardFileHeader header;
    MmapFile file;    // unmapped until EnsureMapped
    ShardView view;   // valid once `file` is mapped
  };

  std::string dir;
  std::vector<MappedShard> shards;
  int64_t total_bytes = 0;  // on-disk bytes across all shard files

  std::mutex mu;            // guards mapping; reads go through `done`
  std::atomic<bool> done{false};
};

int ColumnarShardStore::NumShards() const {
  return mapped_ != nullptr ? static_cast<int>(mapped_->shards.size())
                            : static_cast<int>(shards_.size());
}

const ColumnarShardStore::Shard& ColumnarShardStore::shard(int index) const {
  REMEDY_CHECK(mapped_ == nullptr)
      << "spilled stores have no in-memory shards; use View()";
  return shards_[index];
}

ColumnarShardStore::ShardView ColumnarShardStore::View(int index) const {
  if (mapped_ == nullptr) {
    const Shard& shard = shards_[index];
    ShardView view;
    view.num_rows = shard.num_rows;
    view.labels = shard.labels.data();
    view.columns.resize(shard.columns.size());
    for (size_t p = 0; p < shard.columns.size(); ++p) {
      if (IsNarrow(static_cast<int>(p))) {
        view.columns[p].narrow = shard.columns[p].narrow.data();
      } else {
        view.columns[p].wide = shard.columns[p].wide.data();
      }
    }
    return view;
  }
  Status mapped = EnsureMapped();
  REMEDY_CHECK(mapped.ok())
      << "cannot map spilled store: " << mapped.ToString();
  return mapped_->shards[index].view;
}

Status ColumnarShardStore::EnsureMapped() const {
  if (mapped_ == nullptr) return OkStatus();
  MappedState& state = *mapped_;
  if (state.done.load(std::memory_order_acquire)) return OkStatus();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.done.load(std::memory_order_relaxed)) return OkStatus();
  int64_t mapped_shards = 0;
  int64_t mapped_bytes = 0;
  for (MappedState::MappedShard& shard : state.shards) {
    if (shard.file.mapped()) continue;  // a previous attempt got this far
    StatusOr<MmapFile> file = RetryShardRead([&]() -> StatusOr<MmapFile> {
      REMEDY_FAULT_POINT("store/mmap_map");
      return MmapFile::Map(shard.path);
    });
    if (!file.ok()) {
      return file.status().WithContext("mapping spilled store shard");
    }
    const ShardFileHeader& header = shard.header;
    if (static_cast<int64_t>(file.value().size()) !=
        header.HeaderBytes() + header.payload_bytes) {
      return DataCorruptionError("shard file '" + shard.path +
                                 "' changed size since the store opened");
    }
    const uint8_t* payload = file.value().data() + header.HeaderBytes();
    ShardView view;
    view.num_rows = header.num_rows;
    view.columns.resize(header.num_columns());
    for (int p = 0; p < header.num_columns(); ++p) {
      const uint8_t* codes = payload + header.ColumnOffset(p);
      if (header.column_widths[p] == 1) {
        view.columns[p].narrow = codes;
      } else {
        view.columns[p].wide = reinterpret_cast<const uint16_t*>(codes);
      }
    }
    view.labels = payload + header.LabelOffset();
    mapped_bytes += static_cast<int64_t>(file.value().size());
    ++mapped_shards;
    shard.view = std::move(view);
    shard.file = std::move(file).value();
  }
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.lattice_mmap_shards->Increment(mapped_shards);
  metrics.lattice_mmap_bytes->Increment(mapped_bytes);
  state.done.store(true, std::memory_order_release);
  return OkStatus();
}

void ColumnarShardStore::BeginShardPass(int index) const {
  if (mapped_ == nullptr || !mapped_->done.load(std::memory_order_acquire)) {
    return;
  }
  const MappedState::MappedShard& shard = mapped_->shards[index];
  shard.file.AdviseSequential(
      static_cast<size_t>(shard.header.HeaderBytes()),
      static_cast<size_t>(shard.header.payload_bytes));
}

void ColumnarShardStore::EndShardPass(int index) const {
  if (mapped_ == nullptr || !mapped_->done.load(std::memory_order_acquire)) {
    return;
  }
  const MappedState::MappedShard& shard = mapped_->shards[index];
  shard.file.AdviseDontNeed(
      static_cast<size_t>(shard.header.HeaderBytes()),
      static_cast<size_t>(shard.header.payload_bytes));
  PipelineMetrics::Get().lattice_mmap_releases->Increment();
}

int64_t ColumnarShardStore::SpilledBytes() const {
  return mapped_ != nullptr ? mapped_->total_bytes : 0;
}

StatusOr<ColumnarShardStore> ColumnarShardStore::OpenSpilled(
    const std::string& dir, const DataSchema& schema) {
  RETURN_IF_ERROR(RequireLittleEndianHost("OpenSpilled"));
  if (schema.NumProtected() == 0) {
    return InvalidArgumentError(
        "ColumnarShardStore needs at least one protected attribute");
  }
  ColumnarShardStore store;
  store.schema_ = schema;
  store.cardinalities_.reserve(schema.NumProtected());
  for (int col : schema.protected_indices()) {
    const int cardinality = schema.attribute(col).Cardinality();
    if (cardinality > 65536) {
      return InvalidArgumentError(
          "attribute " + schema.attribute(col).name() + " cardinality " +
          std::to_string(cardinality) + " exceeds the u16 code space");
    }
    store.cardinalities_.push_back(cardinality);
  }
  const uint64_t digest = SchemaDigest(schema);
  auto mapped = std::make_shared<MappedState>();
  mapped->dir = dir;
  for (int index = 0;; ++index) {
    const std::string path = dir + "/" + ShardFileName(index);
    struct stat info;
    if (::stat(path.c_str(), &info) != 0) {
      if (index == 0) {
        return IoError("no spilled store in '" + dir + "' (missing " +
                       ShardFileName(0) + ")");
      }
      break;
    }
    ASSIGN_OR_RETURN(ShardFileHeader header, ReadShardHeaderWithRetry(path));
    if (header.schema_digest != digest) {
      return InvalidArgumentError(
          "shard file '" + path +
          "' was spilled from a different schema (digest mismatch)");
    }
    if (header.shard_index != static_cast<uint32_t>(index)) {
      return DataCorruptionError(
          "shard file '" + path + "' declares index " +
          std::to_string(header.shard_index) + ", expected " +
          std::to_string(index));
    }
    if (header.num_columns() != store.NumProtected()) {
      return DataCorruptionError(
          "shard file '" + path + "' has " +
          std::to_string(header.num_columns()) + " columns, schema has " +
          std::to_string(store.NumProtected()));
    }
    for (int p = 0; p < header.num_columns(); ++p) {
      const uint8_t expected = store.IsNarrow(p) ? 1 : 2;
      if (header.column_widths[p] != expected) {
        return DataCorruptionError(
            "shard file '" + path + "' column " + std::to_string(p) +
            " width " + std::to_string(header.column_widths[p]) +
            " does not match the schema's code width");
      }
    }
    if (index > 0) {
      const int64_t first_rows = mapped->shards[0].header.num_rows;
      if (mapped->shards[index - 1].header.num_rows != first_rows ||
          header.num_rows > first_rows || header.num_rows == 0) {
        return DataCorruptionError(
            "shard file '" + path +
            "' breaks the full-shards-then-one-partial layout");
      }
    }
    store.num_rows_ += header.num_rows;
    store.positives_ += header.num_positives;
    mapped->total_bytes += header.HeaderBytes() + header.payload_bytes;
    MappedState::MappedShard shard;
    shard.path = path;
    shard.header = std::move(header);
    mapped->shards.push_back(std::move(shard));
  }
  store.negatives_ = store.num_rows_ - store.positives_;
  store.shard_rows_ = mapped->shards[0].header.num_rows > 0
                          ? mapped->shards[0].header.num_rows
                          : kDefaultShardRows;
  store.mapped_ = std::move(mapped);
  return store;
}

ColumnarShardStoreBuilder::ColumnarShardStoreBuilder(DataSchema schema,
                                                     int64_t shard_rows) {
  REMEDY_CHECK(shard_rows > 0) << "shard_rows must be positive";
  REMEDY_CHECK(schema.NumProtected() > 0)
      << "ColumnarShardStore needs at least one protected attribute";
  protected_cols_ = schema.protected_indices();
  store_.schema_ = std::move(schema);
  store_.shard_rows_ = shard_rows;
  store_.cardinalities_.reserve(protected_cols_.size());
  for (int col : protected_cols_) {
    const int cardinality = store_.schema_.attribute(col).Cardinality();
    REMEDY_CHECK(cardinality <= 65536)
        << "attribute " << store_.schema_.attribute(col).name()
        << " cardinality " << cardinality << " exceeds the u16 code space";
    store_.cardinalities_.push_back(cardinality);
  }
}

Status ColumnarShardStoreBuilder::EnableSpill(const std::string& dir) {
  REMEDY_CHECK(!spilling_) << "EnableSpill called twice";
  REMEDY_CHECK(store_.num_rows_ == 0)
      << "EnableSpill must be called before the first row";
  RETURN_IF_ERROR(RequireLittleEndianHost("EnableSpill"));
  // mkdir -p: create every missing component so callers can point at a
  // fresh nested path (the bench's per-row-count subdirectories).
  for (size_t slash = dir.find('/', 1); slash != std::string::npos;
       slash = dir.find('/', slash + 1)) {
    const std::string parent = dir.substr(0, slash);
    if (::mkdir(parent.c_str(), 0755) != 0 && errno != EEXIST) {
      return IoError("cannot create spill directory '" + parent +
                     "': " + std::strerror(errno));
    }
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError("cannot create spill directory '" + dir +
                   "': " + std::strerror(errno));
  }
  struct stat info;
  if (::stat(dir.c_str(), &info) != 0 || !S_ISDIR(info.st_mode)) {
    return IoError("spill path '" + dir + "' is not a directory");
  }
  // Remove stale shard files so a shorter re-spill never leaves trailing
  // shards a later OpenSpilled would read as part of this store.
  for (int index = 0;; ++index) {
    const std::string path = dir + "/" + ShardFileName(index);
    if (::stat(path.c_str(), &info) != 0) break;
    if (std::remove(path.c_str()) != 0) {
      return IoError("cannot remove stale shard file '" + path + "'");
    }
  }
  spill_dir_ = dir;
  schema_digest_ = SchemaDigest(store_.schema_);
  spilling_ = true;
  return OkStatus();
}

Status ColumnarShardStoreBuilder::SpillShard(
    ColumnarShardStore::Shard& shard) {
  REMEDY_FAULT_POINT("store/spill_write");
  ShardFileHeader header;
  header.shard_index = static_cast<uint32_t>(spilled_shards_);
  header.num_rows = shard.num_rows;
  header.schema_digest = schema_digest_;
  header.column_widths.resize(shard.columns.size());
  int64_t positives = 0;
  for (uint8_t label : shard.labels) positives += label;
  header.num_positives = positives;
  for (size_t p = 0; p < shard.columns.size(); ++p) {
    header.column_widths[p] = store_.IsNarrow(static_cast<int>(p)) ? 1 : 2;
  }
  header.payload_bytes = header.ComputedPayloadBytes();

  // Payload segments in file order: per-column code bytes, then labels,
  // each zero-padded to the segment alignment. The checksum chains over
  // the exact bytes written, pads included.
  static constexpr std::array<uint8_t, kShardFileAlign> kZeroPad{};
  std::vector<std::pair<const uint8_t*, int64_t>> segments;
  segments.reserve(shard.columns.size() + 1);
  for (size_t p = 0; p < shard.columns.size(); ++p) {
    if (header.column_widths[p] == 1) {
      segments.emplace_back(shard.columns[p].narrow.data(), shard.num_rows);
    } else {
      segments.emplace_back(
          reinterpret_cast<const uint8_t*>(shard.columns[p].wide.data()),
          2 * shard.num_rows);
    }
  }
  segments.emplace_back(shard.labels.data(), shard.num_rows);
  uint64_t checksum = kFnv1a64Offset;
  for (const auto& [data, bytes] : segments) {
    checksum = Fnv1a64(data, static_cast<size_t>(bytes), checksum);
    checksum = Fnv1a64(kZeroPad.data(), static_cast<size_t>(PadTo(bytes)),
                       checksum);
  }
  header.payload_checksum = checksum;

  const std::string path =
      spill_dir_ + "/" + ShardFileName(spilled_shards_);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return IoError("cannot open shard file '" + path +
                   "' for writing: " + std::strerror(errno));
  }
  const std::vector<uint8_t> encoded = EncodeShardFileHeader(header);
  bool ok = std::fwrite(encoded.data(), 1, encoded.size(), file) ==
            encoded.size();
  for (const auto& [data, bytes] : segments) {
    if (!ok) break;
    ok = std::fwrite(data, 1, static_cast<size_t>(bytes), file) ==
         static_cast<size_t>(bytes);
    const size_t pad = static_cast<size_t>(PadTo(bytes));
    ok = ok && std::fwrite(kZeroPad.data(), 1, pad, file) == pad;
  }
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(path.c_str());
    return IoError("write of shard file '" + path + "' failed");
  }
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.lattice_spill_shards->Increment();
  metrics.lattice_spill_bytes->Increment(
      static_cast<int64_t>(encoded.size()) + header.payload_bytes);
  return OkStatus();
}

ColumnarShardStore::Shard& ColumnarShardStoreBuilder::ShardForNextRow() {
  const bool full = !store_.shards_.empty() &&
                    store_.shards_.back().num_rows == store_.shard_rows_;
  if (full && spilling_) {
    // Write the completed shard out and reuse its buffers for the next one
    // (a write failure is sticky and surfaces at FinishSpilled; later
    // shards are dropped unwritten so draining the stream stays cheap).
    ColumnarShardStore::Shard& shard = store_.shards_.back();
    if (spill_status_.ok()) {
      Status written = SpillShard(shard);
      if (written.ok()) {
        ++spilled_shards_;
      } else {
        spill_status_ = std::move(written);
      }
    }
    for (ColumnarShardStore::ColumnCodes& column : shard.columns) {
      column.narrow.clear();
      column.wide.clear();
    }
    shard.labels.clear();
    shard.num_rows = 0;
    return shard;
  }
  if (store_.shards_.empty() || full) {
    ColumnarShardStore::Shard& shard = store_.shards_.emplace_back();
    shard.columns.resize(protected_cols_.size());
    const size_t reserve = static_cast<size_t>(store_.shard_rows_);
    for (size_t p = 0; p < protected_cols_.size(); ++p) {
      if (store_.IsNarrow(static_cast<int>(p))) {
        shard.columns[p].narrow.reserve(reserve);
      } else {
        shard.columns[p].wide.reserve(reserve);
      }
    }
    shard.labels.reserve(reserve);
  }
  return store_.shards_.back();
}

void ColumnarShardStoreBuilder::PushCode(ColumnarShardStore::Shard& shard,
                                         int position, int code) {
  REMEDY_DCHECK(code >= 0 && code < store_.cardinalities_[position]);
  ColumnarShardStore::ColumnCodes& column = shard.columns[position];
  if (store_.IsNarrow(position)) {
    column.narrow.push_back(static_cast<uint8_t>(code));
  } else {
    column.wide.push_back(static_cast<uint16_t>(code));
  }
}

void ColumnarShardStoreBuilder::FinishRow(ColumnarShardStore::Shard& shard,
                                          int label) {
  REMEDY_DCHECK(label == 0 || label == 1);
  shard.labels.push_back(static_cast<uint8_t>(label));
  ++shard.num_rows;
  ++store_.num_rows_;
  if (label == 1) {
    ++store_.positives_;
  } else {
    ++store_.negatives_;
  }
}

void ColumnarShardStoreBuilder::AddRow(const std::vector<int>& values,
                                       int label) {
  REMEDY_DCHECK(static_cast<int>(values.size()) ==
                store_.schema_.NumAttributes());
  ColumnarShardStore::Shard& shard = ShardForNextRow();
  for (size_t p = 0; p < protected_cols_.size(); ++p) {
    PushCode(shard, static_cast<int>(p), values[protected_cols_[p]]);
  }
  FinishRow(shard, label);
}

void ColumnarShardStoreBuilder::Append(const Dataset& chunk) {
  REMEDY_CHECK(chunk.NumColumns() == store_.schema_.NumAttributes())
      << "chunk attribute count " << chunk.NumColumns() << " != "
      << store_.schema_.NumAttributes();
  for (int r = 0; r < chunk.NumRows(); ++r) {
    ColumnarShardStore::Shard& shard = ShardForNextRow();
    for (size_t p = 0; p < protected_cols_.size(); ++p) {
      PushCode(shard, static_cast<int>(p), chunk.Value(r, protected_cols_[p]));
    }
    FinishRow(shard, chunk.Label(r));
  }
}

ColumnarShardStore ColumnarShardStoreBuilder::Finish() {
  REMEDY_CHECK(!spilling_)
      << "spill-mode builders finish with FinishSpilled()";
  ColumnarShardStore out = std::move(store_);
  store_ = ColumnarShardStore();
  return out;
}

StatusOr<ColumnarShardStore> ColumnarShardStoreBuilder::FinishSpilled() {
  REMEDY_CHECK(spilling_) << "FinishSpilled without EnableSpill";
  if (spill_status_.ok()) {
    if (store_.shards_.empty()) {
      // Zero rows streamed: write one empty shard so the directory is a
      // valid (empty) store rather than indistinguishable from garbage.
      ColumnarShardStore::Shard empty;
      empty.columns.resize(protected_cols_.size());
      spill_status_ = SpillShard(empty);
      if (spill_status_.ok()) ++spilled_shards_;
    } else if (store_.shards_.back().num_rows > 0 || spilled_shards_ == 0) {
      spill_status_ = SpillShard(store_.shards_.back());
      if (spill_status_.ok()) ++spilled_shards_;
    }
  }
  const std::string dir = spill_dir_;
  const DataSchema schema = store_.schema_;
  Status status = std::move(spill_status_);
  store_ = ColumnarShardStore();
  spill_status_ = OkStatus();
  spilling_ = false;
  spill_dir_.clear();
  spilled_shards_ = 0;
  if (!status.ok()) {
    // The directory holds an incomplete store (some shards written, the
    // rest lost to the failure). Remove the shard files so nothing can
    // later OpenSpilled a truncated store, and so a re-spill starts clean.
    struct stat info;
    for (int index = 0;; ++index) {
      const std::string path = dir + "/" + ShardFileName(index);
      if (::stat(path.c_str(), &info) != 0) break;
      std::remove(path.c_str());  // best-effort; the write error dominates
    }
    return status.WithContext("spilling store to '" + dir + "'");
  }
  // Re-open what was just written: every header the writer produced is
  // re-read and re-validated, so a FinishSpilled success means the store
  // on disk is complete and openable.
  return ColumnarShardStore::OpenSpilled(dir, schema);
}

ColumnarShardStore ColumnarShardStore::FromDataset(const Dataset& data,
                                                   int64_t shard_rows) {
  ColumnarShardStoreBuilder builder(data.schema(), shard_rows);
  builder.Append(data);
  return builder.Finish();
}

}  // namespace remedy

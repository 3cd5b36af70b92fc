#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/clock.h"

namespace perfbench {

int64_t NowNs() { return remedy::MonotonicNanos(); }

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Hex64(bits);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RegistryCut TakeRegistryCut() {
  RegistryCut cut;
  for (const remedy::MetricSnapshot& s :
       remedy::MetricsRegistry::Global().Snapshot()) {
    cut[s.name] = {s.value, s.count, s.sum};
  }
  return cut;
}

void RegistryTally::Add(const RegistryCut& before, const RegistryCut& after) {
  for (const auto& [name, now] : after) {
    auto it = before.find(name);
    const InstrumentSums then = it == before.end() ? InstrumentSums{} : it->second;
    InstrumentSums& sum = sums_[name];
    sum.value += now.value - then.value;
    sum.count += now.count - then.count;
    sum.sum += now.sum - then.sum;
  }
}

void RegistryTally::Add(const RegistryTally& other) {
  for (const auto& [name, delta] : other.sums_) {
    InstrumentSums& sum = sums_[name];
    sum.value += delta.value;
    sum.count += delta.count;
    sum.sum += delta.sum;
  }
}

InstrumentSums RegistryTally::Get(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? InstrumentSums{} : it->second;
}

double RegistryTally::HistogramMeanMs(const std::string& name) const {
  const InstrumentSums s = Get(name);
  if (s.count <= 0) return 0.0;
  return NsToMs(s.sum) / static_cast<double>(s.count);
}

void SummarizeSpans(const std::vector<remedy::TraceEvent>& events,
                    std::map<std::string, SpanTotals>* totals) {
  std::unordered_map<uint64_t, int64_t> child_ns;  // parent id -> covered
  for (const remedy::TraceEvent& e : events) {
    if (e.parent_id != 0) child_ns[e.parent_id] += e.duration_ns;
  }
  for (const remedy::TraceEvent& e : events) {
    SpanTotals& t = (*totals)[e.name];
    ++t.count;
    t.total_ns += e.duration_ns;
    auto it = child_ns.find(e.id);
    t.self_ns += e.duration_ns - (it == child_ns.end() ? 0 : it->second);
  }
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

}  // namespace

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

Json& Json::Num(const std::string& key, double value) {
  return Raw(key, JsonNumber(value));
}

Json& Json::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

Json& Json::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonString(value));
}

Json& Json::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the benchmark's phases: clocks and order
// statistics, deltas of the library's public MetricsRegistry, per-span-name
// totals and self times over a TraceSink's events, and a small JSON writer
// that keeps every number at full precision and every digest as exact hex.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

int64_t NowNs();
double NsToMs(int64_t ns);

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

std::string Hex64(uint64_t value);
// The IEEE-754 bit pattern of `value` as 16 hex digits.
std::string DoubleBits(double value);

// Peak resident set size of this process so far (getrusage), in MiB.
double PeakRssMb();

// The library's public MetricsRegistry, reduced to what the benchmark
// reads: each counter's value, each histogram's count and exact sum.
struct InstrumentSums {
  int64_t value = 0;
  int64_t count = 0;
  int64_t sum = 0;
};
using RegistryCut = std::map<std::string, InstrumentSums>;
RegistryCut TakeRegistryCut();

// Instrument changes summed over one or more measured windows. The
// benchmark reads the library's counters only through these.
class RegistryTally {
 public:
  void Add(const RegistryCut& before, const RegistryCut& after);
  void Add(const RegistryTally& other);

  int64_t Counter(const std::string& name) const { return Get(name).value; }
  int64_t HistogramCount(const std::string& name) const {
    return Get(name).count;
  }
  // Histogram sum / count in milliseconds (the histograms record ns); 0
  // when nothing was observed.
  double HistogramMeanMs(const std::string& name) const;

 private:
  InstrumentSums Get(const std::string& name) const;
  RegistryCut sums_;
};

// Totals of one span name over a trace: how many spans closed, their summed
// duration, and their summed self time (duration minus the part covered by
// direct children on the same thread).
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double MeanMs() const {
    return count == 0 ? 0.0 : NsToMs(total_ns) / static_cast<double>(count);
  }
};
// Adds the spans of one sink's events (span ids are per sink) to `totals`.
void SummarizeSpans(const std::vector<remedy::TraceEvent>& events,
                    std::map<std::string, SpanTotals>* totals);

// Ordered JSON object builder. Numbers print with 17 significant digits;
// non-finite numbers print as null.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Raw(const std::string& key, const std::string& json);
  Json& Obj(const std::string& key, const Json& object) {
    return Raw(key, object.Dump());
  }
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// A JSON array of numbers at full precision.
std::string JsonList(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

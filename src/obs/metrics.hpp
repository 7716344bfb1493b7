// Metrics registry for the grid stack: counters, gauges, and virtual-time
// histograms, labeled by site/user/job-type, collected while a simulation
// (or the real interpose layer) runs. What the paper evaluated from the
// outside — Table I response times, Figs. 6-8 streaming overheads — the
// registry makes first-class: every bench, example, and test reads the same
// instruments the hot paths update, instead of re-deriving numbers ad hoc.
//
// Determinism contract: instruments live in ordered containers and exports
// are sorted, so the same run produces byte-identical snapshots/JSON.
//
// Memory follows the series, not the binds: each (kind, name, labels) series
// has one handle slot however many components bind it, so a registry serving
// thousands of short-lived consoles holds one slot per distinct series.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace cg::obs {

/// Ordered label set ("site" -> "3", "user" -> "7"). Ordering makes label
/// permutations equivalent and exports deterministic.
///
/// The labels sit in one key-sorted vector, so a set of n labels is one heap
/// block (none when empty), not n tree nodes: every trace event carries one,
/// and the tracer holds every event of the run. A later set() may move the
/// entries, so a pointer from find() is valid only until the set changes.
class LabelSet {
public:
  using Entry = std::pair<std::string, std::string>;

  LabelSet() = default;
  /// A key given twice keeps its last value.
  LabelSet(std::initializer_list<Entry> labels);

  /// Adds the label, or overwrites the value of an existing key.
  void set(std::string key, std::string value);
  [[nodiscard]] const std::string* find(const std::string& key) const;
  [[nodiscard]] bool empty() const { return labels_.empty(); }
  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  /// The labels in ascending key order.
  [[nodiscard]] const std::vector<Entry>& entries() const { return labels_; }

  /// Canonical rendering: {a="x",b="y"} — empty string for no labels.
  [[nodiscard]] std::string to_string() const;

  /// Lexicographic over the sorted entries: the order a key-sorted map gives.
  auto operator<=>(const LabelSet&) const = default;

private:
  std::vector<Entry> labels_;  ///< ascending by key; keys unique
};

/// Monotonically increasing count of events (submissions, revocations,
/// dropped frames). Never decremented.
class Counter {
public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level (queue depth, occupied VM slots).
class Gauge {
public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }
  /// Merging gauges keeps the maximum: snapshots of levels across shards
  /// report the high-water mark rather than a meaningless sum.
  void merge(const Gauge& other) { value_ = value_ > other.value_ ? value_ : other.value_; }

private:
  double value_ = 0.0;
};

/// Distribution of a measurement (latencies, backoffs). Built on
/// RunningStats for the moments plus log-spaced buckets for percentile
/// estimation; observe_duration() makes virtual-time measurements one call.
class Histogram {
public:
  /// Buckets span [min_value, max_value] log-spaced; values outside are
  /// clamped into the edge buckets for percentile purposes (the exact
  /// min/max still come from RunningStats).
  struct Buckets {
    double min_value = 1e-6;
    double max_value = 1e6;
    int count = 120;
  };

  Histogram();
  explicit Histogram(Buckets buckets);

  void observe(double value);
  /// Records a virtual-time span in seconds.
  void observe_duration(Duration d) { observe(d.to_seconds()); }

  [[nodiscard]] std::size_t count() const { return stats_.count(); }
  [[nodiscard]] double sum() const { return stats_.sum(); }
  [[nodiscard]] double mean() const { return stats_.mean(); }
  [[nodiscard]] double stddev() const { return stats_.stddev(); }
  [[nodiscard]] double min() const { return stats_.min(); }
  [[nodiscard]] double max() const { return stats_.max(); }
  /// Percentile estimate from the buckets, p in [0, 100]. Exact at the
  /// distribution edges (p=0 -> min, p=100 -> max); elsewhere accurate to
  /// the bucket width (sub-6% with the default 120 log-spaced buckets).
  [[nodiscard]] double percentile(double p) const;

  void merge(const Histogram& other);

private:
  [[nodiscard]] std::size_t bucket_index(double value) const;
  [[nodiscard]] double bucket_upper_bound(std::size_t index) const;

  Buckets spec_;
  double log_min_ = 0.0;
  double log_width_ = 1.0;
  RunningStats stats_;
  std::vector<std::uint64_t> buckets_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string to_string(MetricKind kind);

/// One instrument's state at snapshot time.
struct MetricSample {
  std::string name;
  LabelSet labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;        ///< counter/gauge value; histogram sum
  std::uint64_t count = 0;   ///< histogram/counter observation count
  double mean = 0.0;         ///< histogram only
  double p50 = 0.0;          ///< histogram only
  double p95 = 0.0;          ///< histogram only
  double max = 0.0;          ///< histogram only
};

/// A frozen, ordered copy of every instrument. What benches print and tests
/// assert on.
struct MetricsSnapshot {
  SimTime taken_at;
  std::vector<MetricSample> samples;

  [[nodiscard]] const MetricSample* find(const std::string& name,
                                         const LabelSet& labels = {}) const;
  /// Sum of a counter family's value across all label sets.
  [[nodiscard]] double total(const std::string& name) const;
  /// Fixed-width table of every sample (bench/report output).
  [[nodiscard]] std::string render() const;
  /// One JSON object per line: {"name":...,"labels":{...},"kind":...,...}.
  [[nodiscard]] std::string to_jsonl() const;
};

class MetricsRegistry;

namespace detail {
/// Identity of one bound series.
struct SeriesKey {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  LabelSet labels;

  auto operator<=>(const SeriesKey&) const = default;
};

/// Backing state for the pre-resolved handles of one series; every handle
/// bound to the same series shares it. The instrument pointer is
/// materialized lazily on first update: a handle merely *bound* to a name
/// must not create the instrument, so snapshots keep listing exactly the
/// instruments the run actually touched.
struct HandleSlot {
  MetricsRegistry* owner = nullptr;
  const SeriesKey* key = nullptr;  ///< the slot's own key in the registry
  Histogram::Buckets buckets{};    ///< fixed by the series' first bind
  void* instrument = nullptr;
};
}  // namespace detail

/// Pre-resolved counter handle for hot paths. Binding (name, labels) happens
/// once at wiring time; updates are a pointer chase instead of a map lookup
/// keyed by freshly concatenated label strings. Default-constructed handles
/// are inert: `inc()` on an unbound handle is a no-op, which lets components
/// keep a handle member whether or not observability is attached.
class CounterHandle {
public:
  CounterHandle() = default;
  void inc(std::uint64_t by = 1) {
    if (slot_ == nullptr) return;
    if (slot_->instrument == nullptr) materialize();
    static_cast<Counter*>(slot_->instrument)->inc(by);
  }
  [[nodiscard]] explicit operator bool() const { return slot_ != nullptr; }

private:
  friend class MetricsRegistry;
  explicit CounterHandle(detail::HandleSlot* slot) : slot_{slot} {}
  void materialize();
  detail::HandleSlot* slot_ = nullptr;
};

/// Pre-resolved gauge handle; see CounterHandle.
class GaugeHandle {
public:
  GaugeHandle() = default;
  void set(double v) {
    if (slot_ == nullptr) return;
    if (slot_->instrument == nullptr) materialize();
    static_cast<Gauge*>(slot_->instrument)->set(v);
  }
  void add(double delta) {
    if (slot_ == nullptr) return;
    if (slot_->instrument == nullptr) materialize();
    static_cast<Gauge*>(slot_->instrument)->add(delta);
  }
  [[nodiscard]] explicit operator bool() const { return slot_ != nullptr; }

private:
  friend class MetricsRegistry;
  explicit GaugeHandle(detail::HandleSlot* slot) : slot_{slot} {}
  void materialize();
  detail::HandleSlot* slot_ = nullptr;
};

/// Pre-resolved histogram handle; see CounterHandle.
class HistogramHandle {
public:
  HistogramHandle() = default;
  void observe(double value) {
    if (slot_ == nullptr) return;
    if (slot_->instrument == nullptr) materialize();
    static_cast<Histogram*>(slot_->instrument)->observe(value);
  }
  void observe_duration(Duration d) { observe(d.to_seconds()); }
  [[nodiscard]] explicit operator bool() const { return slot_ != nullptr; }

private:
  friend class MetricsRegistry;
  explicit HistogramHandle(detail::HandleSlot* slot) : slot_{slot} {}
  void materialize();
  detail::HandleSlot* slot_ = nullptr;
};

/// The process-wide (per-Grid) registry. Instruments are created on first
/// use and live for the registry's lifetime; returned references are stable.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const LabelSet& labels = {});
  Gauge& gauge(const std::string& name, const LabelSet& labels = {});
  Histogram& histogram(const std::string& name, const LabelSet& labels = {},
                       Histogram::Buckets buckets = {});

  /// Pre-resolved handles for hot paths: bind (name, labels) once, update
  /// through a stable slot thereafter. Handles stay valid for the registry's
  /// lifetime and may be copied freely. The underlying instrument is created
  /// on first update, not at bind time. Binding a series that was bound
  /// before returns its existing slot and allocates nothing; a histogram's
  /// buckets are those of its first bind.
  [[nodiscard]] CounterHandle counter_handle(std::string name,
                                             LabelSet labels = {});
  [[nodiscard]] GaugeHandle gauge_handle(std::string name, LabelSet labels = {});
  [[nodiscard]] HistogramHandle histogram_handle(std::string name,
                                                 LabelSet labels = {},
                                                 Histogram::Buckets buckets = {});

  /// Instrument lookup without creation (tests); null when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const LabelSet& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name,
                                        const LabelSet& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                const LabelSet& labels = {}) const;

  /// Sums a counter family across every label set (0 when absent).
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;

  [[nodiscard]] MetricsSnapshot snapshot(SimTime now = SimTime::zero()) const;

  /// Folds another registry into this one: counters add, gauges keep the
  /// maximum, histograms merge their moments and buckets. Used to combine
  /// per-shard/per-run registries into one report.
  void merge(const MetricsRegistry& other);

  [[nodiscard]] std::size_t instrument_count() const;
  /// Distinct series ever bound to a handle (one slot each).
  [[nodiscard]] std::size_t handle_slot_count() const { return handle_slots_.size(); }

private:
  using Key = std::pair<std::string, LabelSet>;

  [[nodiscard]] detail::HandleSlot* bind_slot(MetricKind kind, std::string name,
                                              LabelSet labels,
                                              Histogram::Buckets buckets = {});

  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
  /// One handle slot per bound series; map nodes keep slots (and the keys
  /// they point back to) at stable addresses.
  std::map<detail::SeriesKey, detail::HandleSlot> handle_slots_;
};

}  // namespace cg::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/strings.hpp"

namespace cg::obs {

// ------------------------------------------------------------- LabelSet ----

LabelSet::LabelSet(std::initializer_list<Entry> labels) {
  labels_.reserve(labels.size());
  for (const auto& [k, v] : labels) set(k, v);
}

void LabelSet::set(std::string key, std::string value) {
  const auto it = std::ranges::lower_bound(labels_, key, {}, &Entry::first);
  if (it != labels_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    labels_.emplace(it, std::move(key), std::move(value));
  }
}

const std::string* LabelSet::find(const std::string& key) const {
  const auto it = std::ranges::lower_bound(labels_, key, {}, &Entry::first);
  return it != labels_.end() && it->first == key ? &it->second : nullptr;
}

std::string LabelSet::to_string() const {
  if (labels_.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels_) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
  return out;
}

// ------------------------------------------------------------ Histogram ----

Histogram::Histogram() : Histogram{Buckets{}} {}

Histogram::Histogram(Buckets buckets) : spec_{buckets} {
  if (spec_.count < 1) spec_.count = 1;
  if (spec_.min_value <= 0.0) spec_.min_value = 1e-9;
  if (spec_.max_value <= spec_.min_value) spec_.max_value = spec_.min_value * 10;
  log_min_ = std::log(spec_.min_value);
  log_width_ = (std::log(spec_.max_value) - log_min_) / spec_.count;
  buckets_.assign(static_cast<std::size_t>(spec_.count) + 2, 0);  // +under/over
}

std::size_t Histogram::bucket_index(double value) const {
  if (value < spec_.min_value) return 0;  // underflow bucket
  if (value >= spec_.max_value) return buckets_.size() - 1;  // overflow bucket
  const auto i =
      static_cast<std::size_t>((std::log(value) - log_min_) / log_width_);
  return std::min(i + 1, buckets_.size() - 2);
}

double Histogram::bucket_upper_bound(std::size_t index) const {
  if (index == 0) return spec_.min_value;
  if (index >= buckets_.size() - 1) return spec_.max_value;
  return std::exp(log_min_ + log_width_ * static_cast<double>(index));
}

void Histogram::observe(double value) {
  stats_.add(value);
  ++buckets_[bucket_index(value)];
}

double Histogram::percentile(double p) const {
  if (stats_.count() == 0) return 0.0;
  if (p <= 0.0) return stats_.min();
  if (p >= 100.0) return stats_.max();
  const double rank = p / 100.0 * static_cast<double>(stats_.count());
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += static_cast<double>(buckets_[i]);
    if (seen >= rank) {
      // Clamp the bucket bound into the observed range so estimates never
      // step outside [min, max].
      return std::clamp(bucket_upper_bound(i), stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

void Histogram::merge(const Histogram& other) {
  stats_.merge(other.stats_);
  if (other.buckets_.size() == buckets_.size()) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  } else {
    // Differently-shaped histograms: re-bucket the other side's mass at its
    // mean (moments stay exact; percentiles become approximate).
    if (other.stats_.count() > 0) {
      buckets_[bucket_index(other.stats_.mean())] += other.stats_.count();
    }
  }
}

// ----------------------------------------------------------- MetricKind ----

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// ------------------------------------------------------ MetricsSnapshot ----

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const LabelSet& labels) const {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::total(const std::string& name) const {
  double sum = 0.0;
  for (const auto& s : samples) {
    if (s.name == name) sum += s.value;
  }
  return sum;
}

std::string MetricsSnapshot::render() const {
  TablePrinter table{{"Metric", "Labels", "Kind", "Value", "Count", "Mean",
                      "p95", "Max"}};
  for (const auto& s : samples) {
    const bool hist = s.kind == MetricKind::kHistogram;
    table.add_row({s.name, s.labels.to_string(), obs::to_string(s.kind),
                   fmt_fixed(s.value, 3), std::to_string(s.count),
                   hist ? fmt_fixed(s.mean, 4) : "-",
                   hist ? fmt_fixed(s.p95, 4) : "-",
                   hist ? fmt_fixed(s.max, 4) : "-"});
  }
  return table.render();
}

namespace {

void append_json_labels(std::string& out, const LabelSet& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.entries()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
}

std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string MetricsSnapshot::to_jsonl() const {
  std::string out;
  for (const auto& s : samples) {
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"labels\":";
    append_json_labels(out, s.labels);
    out += ",\"kind\":\"" + obs::to_string(s.kind) + "\"";
    out += ",\"value\":" + json_number(s.value);
    out += ",\"count\":" + std::to_string(s.count);
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"mean\":" + json_number(s.mean);
      out += ",\"p50\":" + json_number(s.p50);
      out += ",\"p95\":" + json_number(s.p95);
      out += ",\"max\":" + json_number(s.max);
    }
    out += "}\n";
  }
  return out;
}

// ------------------------------------------------------ MetricsRegistry ----

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels) {
  auto& slot = counters_[Key{name, labels}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels) {
  auto& slot = gauges_[Key{name, labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels,
                                      Histogram::Buckets buckets) {
  auto& slot = histograms_[Key{name, labels}];
  if (!slot) slot = std::make_unique<Histogram>(buckets);
  return *slot;
}

detail::HandleSlot* MetricsRegistry::bind_slot(MetricKind kind, std::string name,
                                               LabelSet labels,
                                               Histogram::Buckets buckets) {
  // The key takes the caller's strings by move: a repeated bind is one
  // lookup and no allocation.
  detail::SeriesKey key{kind, std::move(name), std::move(labels)};
  auto it = handle_slots_.lower_bound(key);
  if (it == handle_slots_.end() || it->first != key) {
    it = handle_slots_.emplace_hint(it, std::move(key),
                                    detail::HandleSlot{this, nullptr, buckets, nullptr});
    it->second.key = &it->first;
  }
  return &it->second;
}

CounterHandle MetricsRegistry::counter_handle(std::string name,
                                              LabelSet labels) {
  return CounterHandle{
      bind_slot(MetricKind::kCounter, std::move(name), std::move(labels))};
}

GaugeHandle MetricsRegistry::gauge_handle(std::string name, LabelSet labels) {
  return GaugeHandle{
      bind_slot(MetricKind::kGauge, std::move(name), std::move(labels))};
}

HistogramHandle MetricsRegistry::histogram_handle(std::string name,
                                                  LabelSet labels,
                                                  Histogram::Buckets buckets) {
  return HistogramHandle{bind_slot(MetricKind::kHistogram, std::move(name),
                                   std::move(labels), buckets)};
}

void CounterHandle::materialize() {
  slot_->instrument = &slot_->owner->counter(slot_->key->name, slot_->key->labels);
}

void GaugeHandle::materialize() {
  slot_->instrument = &slot_->owner->gauge(slot_->key->name, slot_->key->labels);
}

void HistogramHandle::materialize() {
  slot_->instrument = &slot_->owner->histogram(slot_->key->name, slot_->key->labels,
                                               slot_->buckets);
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             const LabelSet& labels) const {
  const auto it = counters_.find(Key{name, labels});
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name,
                                         const LabelSet& labels) const {
  const auto it = gauges_.find(Key{name, labels});
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const LabelSet& labels) const {
  const auto it = histograms_.find(Key{name, labels});
  return it != histograms_.end() ? it->second.get() : nullptr;
}

std::uint64_t MetricsRegistry::counter_total(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [key, c] : counters_) {
    if (key.first == name) total += c->value();
  }
  return total;
}

MetricsSnapshot MetricsRegistry::snapshot(SimTime now) const {
  MetricsSnapshot snap;
  snap.taken_at = now;
  snap.samples.reserve(instrument_count());
  for (const auto& [key, c] : counters_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(c->value());
    s.count = c->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = MetricKind::kGauge;
    s.value = g->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = MetricKind::kHistogram;
    s.value = h->sum();
    s.count = h->count();
    s.mean = h->mean();
    s.p50 = h->percentile(50);
    s.p95 = h->percentile(95);
    s.max = h->max();
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [key, c] : other.counters_) {
    counter(key.first, key.second).merge(*c);
  }
  for (const auto& [key, g] : other.gauges_) {
    gauge(key.first, key.second).merge(*g);
  }
  for (const auto& [key, h] : other.histograms_) {
    histogram(key.first, key.second).merge(*h);
  }
}

std::size_t MetricsRegistry::instrument_count() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace cg::obs

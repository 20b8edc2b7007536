#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <type_traits>

namespace now::obs {

namespace {
MetricsRegistry& process_metrics() {
  static MetricsRegistry registry;
  return registry;
}
thread_local MetricsRegistry* t_metrics = nullptr;
}  // namespace

MetricsRegistry& metrics() {
  return t_metrics != nullptr ? *t_metrics : process_metrics();
}

MetricsRegistry* set_thread_metrics(MetricsRegistry* r) {
  MetricsRegistry* prev = t_metrics;
  t_metrics = r;
  return prev;
}

template <typename T>
T& MetricsRegistry::get(std::string_view path) {
  auto it = instruments_.find(path);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(path), Instrument(T{})).first;
    return std::get<T>(it->second);
  }
  T* existing = std::get_if<T>(&it->second);
  assert(existing != nullptr && "instrument re-registered with another kind");
  if (existing != nullptr) return *existing;
  // Release-build fallback: park the mismatched caller on a suffixed path so
  // neither party corrupts the other's instrument.
  return get<T>(std::string(path) + ".kind_conflict");
}

Counter& MetricsRegistry::counter(std::string_view path) {
  return get<Counter>(path);
}

Gauge& MetricsRegistry::gauge(std::string_view path) {
  return get<Gauge>(path);
}

namespace {

/// Adds `v` to what `path` already holds: counters and gauges sum,
/// distributions merge.
void put_reading(Readings& out, std::string_view path, Reading v) {
  const auto it = out.find(path);
  if (it == out.end()) {
    out.emplace(std::string(path), std::move(v));
    return;
  }
  Reading& into = it->second;
  assert(into.index() == v.index() && "one path reported as two kinds");
  if (into.index() != v.index()) return;
  std::visit(
      [&into](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_arithmetic_v<T>) {
          std::get<T>(into) += x;
        } else {
          std::get<T>(into).merge(x);
        }
      },
      v);
}

Reading native_reading(const std::variant<Counter, Gauge>& inst) {
  if (const auto* c = std::get_if<Counter>(&inst)) return c->value();
  return std::get<Gauge>(inst).value();
}

}  // namespace

template <typename T>
void Sink::put(std::string_view field, const T& v) {
  std::string path;
  path.reserve(prefix_.size() + 1 + field.size());
  path.append(prefix_).append(1, '.').append(field);
  put_reading(out_, path, Reading(v));
}

void Sink::counter(std::string_view field, std::uint64_t v) { put(field, v); }
void Sink::gauge(std::string_view field, double v) { put(field, v); }
void Sink::summary(std::string_view field, const sim::Summary& s) {
  put(field, s);
}
void Sink::histogram(std::string_view field, const sim::Histogram& h) {
  put(field, h);
}

Collector::Collector(std::string prefix, std::function<void(Sink&)> fn)
    : registry_(&metrics()), prefix_(std::move(prefix)), fn_(std::move(fn)) {
  registry_->collectors_.push_back(this);
}

Collector::~Collector() {
  if (registry_ == nullptr) return;
  auto& live = registry_->collectors_;
  live.erase(std::find(live.begin(), live.end(), this));
}

MetricsRegistry::~MetricsRegistry() {
  // A registry that dies first leaves its collectors nothing to undo.
  for (Collector* c : collectors_) c->registry_ = nullptr;
}

Readings MetricsRegistry::collect() const {
  Readings out;
  for (const auto& [path, inst] : instruments_) {
    out.emplace(path, native_reading(inst));
  }
  for (Collector* c : collectors_) {
    Sink sink(out, c->prefix_);
    c->fn_(sink);
  }
  return out;
}

bool MetricsRegistry::read(std::string_view path, double* out) const {
  const Readings r = collect();
  const auto it = r.find(path);
  if (it == r.end()) return false;
  struct Scalar {
    double operator()(std::uint64_t c) const {
      return static_cast<double>(c);
    }
    double operator()(double g) const { return g; }
    double operator()(const sim::Summary& s) const { return s.mean(); }
    double operator()(const sim::Histogram& h) const { return h.mean(); }
  };
  *out = std::visit(Scalar{}, it->second);
  return true;
}

namespace {

/// Shortest round-trippable rendering, identical across platforms for
/// identical doubles — what keeps two-run dump diffs empty.
void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_summary_json(std::string& out, const sim::Summary& s) {
  out += "{\"count\": ";
  out += std::to_string(s.count());
  out += ", \"mean\": ";
  append_number(out, s.mean());
  out += ", \"min\": ";
  append_number(out, s.min());
  out += ", \"max\": ";
  append_number(out, s.max());
  out += ", \"stddev\": ";
  append_number(out, s.stddev());
  out += "}";
}

struct JsonValue {
  std::string& out;
  void operator()(std::uint64_t c) const { out += std::to_string(c); }
  void operator()(double g) const { append_number(out, g); }
  void operator()(const sim::Summary& s) const { append_summary_json(out, s); }
  void operator()(const sim::Histogram& h) const {
    out += "{\"count\": ";
    out += std::to_string(h.count());
    out += ", \"mean\": ";
    append_number(out, h.mean());
    out += ", \"p50\": ";
    append_number(out, h.percentile(0.50));
    out += ", \"p95\": ";
    append_number(out, h.percentile(0.95));
    out += ", \"p99\": ";
    append_number(out, h.percentile(0.99));
    out += ", \"max\": ";
    append_number(out, h.max());
    out += "}";
  }
};

}  // namespace

std::string MetricsRegistry::dump_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [path, value] : collect()) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"";
    out += path;  // paths are built from code literals; no escaping
    out += "\": ";
    std::visit(JsonValue{out}, value);
  }
  out += "\n}\n";
  return out;
}

void MetricsRegistry::dump_json(std::ostream& os) const { os << dump_json(); }

bool MetricsRegistry::dump_json_to(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << dump_json();
  return static_cast<bool>(f);
}

}  // namespace now::obs

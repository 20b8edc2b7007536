#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "sim/engine.hpp"

namespace now::obs {

constinit Tracer detail::g_process_tracer;

Tracer* set_thread_tracer(Tracer* t) {
  Tracer* prev = detail::t_tracer;
  detail::t_tracer = t;
  return prev;
}

sim::SimTime Tracer::clock_now() const {
  return clock_ == nullptr ? 0 : clock_->now();
}

void Tracer::enable(std::size_t capacity) {
  recording_ = true;
  if (capacity == 0) capacity = 1;
  capacity_ = capacity;
  events_.clear();
  events_.reserve(std::min<std::size_t>(capacity, 4096));
  head_ = 0;
  dropped_ = 0;
}

void Tracer::clear() {
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

TrackId Tracer::track(std::string_view module) {
  sim::SpinGuard g(lock_);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == module) return static_cast<TrackId>(i);
  }
  tracks_.emplace_back(module);
  return static_cast<TrackId>(tracks_.size() - 1);
}

void Tracer::push(Event e) {
  sim::SpinGuard g(lock_);
  if (events_.size() < capacity_) {
    events_.push_back(std::move(e));
    return;
  }
  // Ring is full: overwrite the oldest event.
  events_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void Tracer::record_complete(std::uint32_t node, TrackId track,
                             std::string_view name, sim::SimTime start,
                             sim::SimTime end) {
  if (end < start) std::swap(start, end);
  push(Event{Event::Phase::kComplete, track, node, start, end - start,
             std::string(name)});
}

void Tracer::record_instant(std::uint32_t node, TrackId track,
                            std::string_view name, sim::SimTime at) {
  push(Event{Event::Phase::kInstant, track, node, at, 0, std::string(name)});
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Chrome trace timestamps are microseconds.  Emitted as "<us>.<frac>" from
/// the integral nanosecond clock, so no floating-point formatting is
/// involved and dumps are bit-stable.
void append_us(std::string& out, sim::SimTime ns) {
  out += std::to_string(ns / 1000);
  const auto frac = static_cast<int>(ns % 1000);
  if (frac != 0) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), ".%03d", frac);
    out += buf;
  }
}

}  // namespace

void Tracer::export_chrome_json(std::ostream& os) const {
  std::string out;
  out.reserve(events_.size() * 96 + 4096);
  out += "{\"traceEvents\": [\n";

  // Metadata first: name each (node, track) pair that actually appears.
  std::set<std::uint32_t> nodes;
  std::set<std::pair<std::uint32_t, TrackId>> threads;
  for (const Event& e : events_) {
    nodes.insert(e.node);
    threads.insert({e.node, e.track});
  }
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const std::uint32_t n : nodes) {
    sep();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    out += std::to_string(n);
    out += ", \"args\": {\"name\": \"";
    out += n == kClusterNode ? std::string("cluster")
                             : "node " + std::to_string(n);
    out += "\"}}";
  }
  for (const auto& [n, t] : threads) {
    sep();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
    out += std::to_string(n);
    out += ", \"tid\": ";
    out += std::to_string(t);
    out += ", \"args\": {\"name\": \"";
    append_escaped(out, t < tracks_.size() ? tracks_[t] : "track");
    out += "\"}}";
  }

  // Ring order: oldest surviving event first.
  const std::size_t n_events = events_.size();
  for (std::size_t i = 0; i < n_events; ++i) {
    const Event& e =
        events_[n_events == capacity_ ? (head_ + i) % n_events : i];
    sep();
    out += "{\"name\": \"";
    append_escaped(out, e.name);
    out += "\", \"cat\": \"";
    append_escaped(out, e.track < tracks_.size() ? tracks_[e.track] : "track");
    if (e.phase == Event::Phase::kComplete) {
      out += "\", \"ph\": \"X\", \"ts\": ";
      append_us(out, e.ts);
      out += ", \"dur\": ";
      append_us(out, e.dur);
    } else {
      out += "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
      append_us(out, e.ts);
    }
    out += ", \"pid\": ";
    out += std::to_string(e.node);
    out += ", \"tid\": ";
    out += std::to_string(e.track);
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  os << out;
}

bool Tracer::export_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  export_chrome_json(f);
  return static_cast<bool>(f);
}

// --- Log mirroring ------------------------------------------------------

void mirror_logs_to_trace(sim::LogLevel min_level) {
  sim::set_log_sink([min_level](sim::LogLevel level, sim::SimTime at,
                                const std::string& component,
                                const std::string& message) {
    std::fprintf(stderr, "%s\n",
                 sim::format_log_line(level, at, component, message).c_str());
    Tracer& t = tracer();
    if (level >= min_level && t.enabled()) {
      t.instant_at(kClusterNode, t.track(component), component + ": " + message,
                   at);
    }
  });
}

void stop_log_mirror() { sim::set_log_sink(nullptr); }

}  // namespace now::obs

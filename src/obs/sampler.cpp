#include "obs/sampler.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace now::obs {

void Sampler::watch(std::string path) {
  columns_.push_back(std::move(path));
}

void Sampler::start() {
  if (pending_ != 0) return;
  // Priority +1: sample after all same-instant simulation events have run.
  pending_ = engine_.schedule_in(period_, [this] { tick(); }, 1);
}

void Sampler::stop() {
  if (pending_ == 0) return;
  engine_.cancel(pending_);
  pending_ = 0;
}

void Sampler::tick() {
  times_.push_back(engine_.now());
  for (const std::string& path : columns_) {
    double v = 0.0;
    registry_.read(path, &v);
    values_.push_back(v);
  }
  pending_ = engine_.schedule_in(period_, [this] { tick(); }, 1);
}

void Sampler::dump_csv(std::ostream& os) const {
  std::string out = "time_ms";
  for (const std::string& c : columns_) {
    out += ',';
    out += c;
  }
  out += '\n';
  const std::size_t width = columns_.size();
  for (std::size_t r = 0; r < times_.size(); ++r) {
    append_exact_number(out, sim::to_ms(times_[r]));
    for (std::size_t c = 0; c < width; ++c) {
      out += ',';
      append_exact_number(out, values_[r * width + c]);
    }
    out += '\n';
  }
  os << out;
}

bool Sampler::dump_csv_to(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  dump_csv(f);
  return static_cast<bool>(f);
}

}  // namespace now::obs

#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), start_ns_(0) {
  if (tracer_.enabled_) {
    Span span;
    span.name = tracer_.intern(name);
    span.parent = tracer_.open_;
    saved_parent_ = tracer_.open_;
    index_ = static_cast<std::int32_t>(tracer_.spans_.size());
    tracer_.spans_.push_back(span);
    tracer_.open_ = index_;
  }
  start_ns_ = now_ns();
}

double Tracer::Scope::close() {
  if (seconds_ >= 0.0) return seconds_;
  const std::int64_t end = now_ns();
  seconds_ = static_cast<double>(end - start_ns_) * 1e-9;
  if (index_ >= 0) {
    Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.start_ns = start_ns_;
    span.end_ns = end;
    tracer_.open_ = saved_parent_;
  }
  return seconds_;
}

std::uint32_t Tracer::intern(const char* name) {
  const auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(name, id);
  return id;
}

void Tracer::add_derived(
    std::int32_t parent,
    const std::vector<std::pair<const char*, double>>& parts) {
  if (parent < 0) return;
  const Span host = spans_[static_cast<std::size_t>(parent)];
  const double host_s = static_cast<double>(host.end_ns - host.start_ns) * 1e-9;
  double total = 0.0;
  for (const auto& part : parts) total += std::max(0.0, part.second);
  const double scale = total > host_s && total > 0.0 ? host_s / total : 1.0;
  Splits& count = derived_[names_[host.name]];
  ++count.splits;
  if (scale < 1.0) ++count.scaled;
  std::int64_t cursor = host.start_ns;
  for (const auto& [name, seconds] : parts) {
    Span span;
    span.name = intern(name);
    span.parent = parent;
    span.start_ns = cursor;
    cursor += static_cast<std::int64_t>(std::max(0.0, seconds) * scale * 1e9);
    span.end_ns = std::min(cursor, host.end_ns);
    spans_.push_back(span);
  }
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

SelfTimes Tracer::self_times(std::size_t first) const {
  SelfTimes out;
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    self[i] += d;
    if (s.parent >= static_cast<std::int32_t>(first)) {
      self[static_cast<std::size_t>(s.parent)] -= d;
    } else {
      out.covered += d;
    }
  }
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out.by_layer[layer_of(names_[spans_[i].name])] += self[i];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::size_t max_spans) const {
  std::ofstream os(path);
  if (!os) return false;
  std::vector<double> total(names_.size(), 0.0);
  std::vector<double> self(names_.size(), 0.0);
  for (const Span& s : spans_) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    total[s.name] += d;
    self[s.name] += d;
    if (s.parent >= 0) {
      self[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
    }
  }
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"displayTimeUnit\": \"ms\", \"metadata\": {\"spans_total\": "
     << spans_.size() << ", \"spans_written\": "
     << std::min(max_spans, spans_.size()) << ", \"by_name\": {";
  for (std::size_t n = 0; n < names_.size(); ++n) {
    os << (n ? ", " : "") << "\"" << names_[n] << "\": {\"total_s\": "
       << total[n] << ", \"self_s\": " << self[n] << "}";
  }
  os << "}}, \"traceEvents\": [";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << names_[s.name]
       << "\", \"cat\": \"" << layer_of(names_[s.name])
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(s.start_ns - t0) * 1e-3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace provbench {
namespace {

thread_local uint64_t current_span = 0;
thread_local uint64_t current_request = 0;

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

void WriteJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable() {
  origin_ = BenchClock::now();
  enabled_ = true;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& span : spans_) {
    if (span.name == name) out.push_back(span.duration_s() * 1e3);
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& span : spans_) {
    if (span.name == name) total += span.duration_s();
  }
  return total;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on its thread, nested and disjoint, so the
  // time they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_seconds;
  for (const auto& span : spans_) {
    if (span.parent != 0) child_seconds[span.parent] += span.duration_s();
  }
  std::map<std::string, double> out;
  for (const auto& span : spans_) {
    auto it = child_seconds.find(span.id);
    const double children = it == child_seconds.end() ? 0 : it->second;
    out[LayerOf(span.name)] += span.duration_s() - children;
  }
  return out;
}

uint64_t Tracer::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Finish(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

Span::Span(const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = tracer.NextId();
  record_.parent = current_span;
  record_.request = current_span == 0 ? record_.id : current_request;
  saved_parent_ = current_span;
  saved_request_ = current_request;
  current_span = record_.id;
  current_request = record_.request;
  record_.start_s =
      std::chrono::duration<double>(BenchClock::now() - tracer.origin())
          .count();
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::Get();
  record_.end_s =
      std::chrono::duration<double>(BenchClock::now() - tracer.origin())
          .count();
  current_span = saved_parent_;
  current_request = saved_request_;
  tracer.Finish(std::move(record_));
}

bool WriteTrace(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<StageRow>& stages,
                const std::map<std::string, double>& end_to_end) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const Tracer& tracer = Tracer::Get();
  std::fprintf(out, "{\"workload\": ");
  WriteJsonString(out, workload);
  std::fprintf(out, ", \"seed\": %llu,\n \"end_to_end_traced\": {",
               static_cast<unsigned long long>(seed));
  const char* sep = "";
  for (const auto& [name, value] : end_to_end) {
    std::fprintf(out, "%s", sep);
    WriteJsonString(out, name);
    std::fprintf(out, ": %.9g", value);
    sep = ", ";
  }
  std::fprintf(out, "},\n \"self_seconds_by_layer\": {");
  sep = "";
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    std::fprintf(out, "%s", sep);
    WriteJsonString(out, layer);
    std::fprintf(out, ": %.9g", seconds);
    sep = ", ";
  }
  std::fprintf(out, "},\n \"stages\": [");
  sep = "";
  for (const auto& row : stages) {
    std::fprintf(out, "%s\n  {\"stage\": ", sep);
    WriteJsonString(out, row.name);
    std::fprintf(out, ", \"seconds\": %.9g}", row.seconds);
    sep = ",";
  }
  std::fprintf(out, "],\n \"spans\": [");
  sep = "";
  for (const auto& span : tracer.Spans()) {
    std::fprintf(out, "%s\n  {\"name\": ", sep);
    WriteJsonString(out, span.name);
    std::fprintf(out,
                 ", \"start_s\": %.9f, \"end_s\": %.9f, \"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}",
                 span.start_s, span.end_s,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
    sep = ",";
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace provbench

// detlint:ordered-output — trace files and tables are compared across runs.
#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

namespace psf::bench {

std::uint64_t Tracer::begin(Domain domain, std::string name,
                            std::uint32_t lane, double start_s,
                            std::uint64_t parent, std::string args) {
  Span s;
  s.name = std::move(name);
  s.args = std::move(args);
  s.start_s = start_s;
  s.end_s = start_s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.lane = lane;
  s.domain = domain;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, double end_s) {
  Span& s = spans_.at(id - 1);
  s.end_s = std::max(s.start_s, end_s);
}

void Tracer::instant(std::string name, double at_s, std::string args) {
  Span s;
  s.name = std::move(name);
  s.args = std::move(args);
  s.start_s = at_s;
  s.end_s = at_s;
  s.id = spans_.size() + 1;
  s.domain = Domain::kSim;
  s.instant = true;
  spans_.push_back(std::move(s));
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated time\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host wall time\"}}");
  for (const Span& s : spans_) {
    const int pid = s.domain == Domain::kSim ? 1 : 2;
    std::fprintf(out, ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,"
                 "\"tid\":%u,\"ts\":%.3f,",
                 s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                 pid, s.lane, s.start_s * 1e6);
    if (s.instant) {
      std::fprintf(out, "\"ph\":\"i\",\"s\":\"g\",");
    } else {
      std::fprintf(out, "\"ph\":\"X\",\"dur\":%.3f,",
                   (s.end_s - s.start_s) * 1e6);
    }
    std::fprintf(out, "\"args\":{\"span\":%llu,\"parent\":%llu%s%s}}",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.args.empty() ? "" : ",", s.args.c_str());
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

std::string Tracer::self_time_table() const {
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  struct Row {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::pair<int, std::string>, Row> rows;
  for (const Span& s : spans_) {
    if (s.instant) continue;
    Row& row = rows[{static_cast<int>(s.domain), s.name}];
    const double dur = s.end_s - s.start_s;
    ++row.count;
    row.total_s += dur;
    row.self_s += std::max(0.0, dur - child_time[s.id]);
  }
  std::vector<std::tuple<int, double, std::string, Row>> ordered;
  for (const auto& [key, row] : rows) {
    ordered.emplace_back(key.first, -row.self_s, key.second, row);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a), std::get<2>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b), std::get<2>(b));
            });
  std::ostringstream oss;
  char line[256];
  std::snprintf(line, sizeof(line), "%-6s %-22s %10s %14s %14s\n", "domain",
                "span", "count", "total_ms", "self_ms");
  oss << line;
  for (const auto& [domain, neg_self, name, row] : ordered) {
    std::snprintf(line, sizeof(line), "%-6s %-22s %10llu %14.3f %14.3f\n",
                  domain == static_cast<int>(Domain::kSim) ? "sim" : "wall",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_s * 1e3, row.self_s * 1e3);
    oss << line;
  }
  return oss.str();
}

}  // namespace psf::bench

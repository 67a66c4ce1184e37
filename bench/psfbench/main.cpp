// psfbench — the end-to-end + per-layer benchmark of the framework.
//
//   psfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//            [--out <dir>]
//
// Runs fresh-world repetitions of one workload for about --seconds of host
// time (a warm-up, then at least three; with tracing, untraced and traced
// repetitions alternate, at least two of each), checks the outputs, and
// prints a metric table followed by one JSON result line: the end-to-end
// metrics untraced, the per-layer metrics traced. Simulated-time and count
// metrics come from one repetition and must be identical in all of them;
// host-time metrics are medians over the untraced repetitions after the
// warm-up. Results land in --out
// (default build-bench/results); a traced run also writes a Chrome trace
// and a per-layer self-time table there.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "probes.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

using namespace psf::bench;

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
constexpr std::size_t kSetupOnlyReps = 50;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = "build-bench/results";
};

void usage() {
  std::fprintf(stderr,
               "usage: psfbench --workload <name> --seed <n> [--seconds <s>] "
               "[--trace <0|1>] [--out <dir>]\nworkloads:");
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

// Accepts "--flag value" and "--flag=value"; a bare "--trace" means 1.
bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      inline_value = true;
    }
    const auto take = [&]() {
      if (inline_value) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (!take()) return false;
      args.workload = value;
    } else if (flag == "--seed") {
      if (!take() || !parse_u64(value, args.seed)) return false;
    } else if (flag == "--seconds") {
      if (!take() || !parse_u64(value, n) || n < 1 || n > 3600) return false;
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      const std::string next = i + 1 < argc ? argv[i + 1] : "";
      if (!inline_value && (next == "0" || next == "1")) {
        value = argv[++i];
      } else if (!inline_value) {
        value = "1";
      }
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out") {
      if (!take() || value.empty()) return false;
      args.out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

// Every metric one repetition produced: the generator's end-to-end
// observations, its host times, and the layer readings.
Readings readings_of(const RepResult& rep) {
  Readings out = rep.layers;
  const Observations& obs = rep.obs;
  const auto pct = [&out](const char* name, const std::vector<double>& v,
                          double p) {
    if (auto r = percentile(v, p)) out[name] = *r;
  };
  pct("send_p50_ms", obs.send_ms, 50.0);
  pct("send_p99_ms", obs.send_ms, 99.0);
  pct("receive_p50_ms", obs.receive_ms, 50.0);
  pct("receive_p99_ms", obs.receive_ms, 99.0);
  pct("access_p50_s", obs.access_s, 50.0);
  pct("access_p99_s", obs.access_s, 99.0);
  const double attempted = static_cast<double>(obs.total(obs.issued));
  out["op_fail_ratio"] = Reading{
      attempted > 0.0 ? static_cast<double>(obs.total(obs.failed)) / attempted
                      : 0.0,
      0};
  out["ops_per_wall_s"] = Reading{static_cast<double>(obs.measured_ops) /
                                      std::max(rep.measured_wall_s, 1e-9),
                                  0};
  out["setup_s"] = Reading{rep.setup_wall_s, 0};
  return out;
}

std::vector<double> values_of(const std::vector<Readings>& reps,
                              const std::string& name) {
  std::vector<double> out;
  for (const Readings& r : reps) {
    if (auto it = r.find(name); it != r.end()) out.push_back(it->second.value);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  const std::vector<std::string> names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage();
    return 2;
  }
  psf::util::set_log_level(psf::util::LogLevel::kWarn);

  std::vector<Readings> plain;
  std::vector<Readings> traced;
  std::unique_ptr<Tracer> kept;  // spans of the first traced repetition
  RunSummary summary;
  summary.workload = args.workload;
  summary.seed = args.seed;
  summary.seconds = args.seconds;
  summary.trace = args.trace;
  std::set<std::string> violations;

  // Repetition 0 warms the process up (first-touch page faults, cold
  // caches): it counts toward the checks, not toward host-time medians.
  std::vector<Readings> warmup;
  const WallClock::time_point start = WallClock::now();
  const std::size_t min_reps = args.trace ? 2 * 2 : kMinReps;
  for (std::size_t i = 0; i < kMaxReps; ++i) {
    const WallClock::time_point rep_start = WallClock::now();
    const bool trace_this = args.trace && i > 0 && i % 2 == 0;
    auto tracer = trace_this ? std::make_unique<Tracer>() : nullptr;
    const RepResult rep = run_rep(args.workload, args.seed, tracer.get());
    (i == 0 ? warmup : trace_this ? traced : plain).push_back(readings_of(rep));
    if (tracer != nullptr && kept == nullptr) kept = std::move(tracer);
    violations.insert(rep.violations.begin(), rep.violations.end());
    summary.attempted += rep.obs.total(rep.obs.issued);
    summary.failed += rep.obs.total(rep.obs.failed);
    ++summary.reps;
    std::fprintf(stderr,
                 "psfbench: rep %zu%s setup %.4f s, measured %.4f s, "
                 "%.0f ops/s\n",
                 i, trace_this ? " (traced)" : "", rep.setup_wall_s,
                 rep.measured_wall_s,
                 static_cast<double>(rep.obs.measured_ops) /
                     std::max(rep.measured_wall_s, 1e-9));
    // Stop once the minimum is in and another repetition would overrun.
    const double elapsed = seconds_since(start);
    if (i >= min_reps && elapsed + seconds_since(rep_start) > args.seconds) {
      break;
    }
  }

  // Set-up time is the median over every untraced set-up of the run, topped
  // up with set-up-only repetitions (within a tenth of the run's budget):
  // one set-up takes milliseconds, so a few samples would let a single slow
  // one move the median.
  std::vector<double> setups;
  for (const Readings& r : plain) setups.push_back(r.at("setup_s").value);
  const WallClock::time_point setup_start = WallClock::now();
  for (std::size_t i = 0;
       i < kSetupOnlyReps &&
       seconds_since(setup_start) < 0.1 * static_cast<double>(args.seconds);
       ++i) {
    const RepResult rep = run_rep(args.workload, args.seed, nullptr, true);
    violations.insert(rep.violations.begin(), rep.violations.end());
    setups.push_back(rep.setup_wall_s);
  }

  // Determinism: every sim and count reading matches the first repetition.
  const Readings& ref = warmup.front();
  for (const std::vector<Readings>* reps : {&plain, &traced}) {
    for (const Readings& r : *reps) {
      for (const MetricDef& def : catalog()) {
        if (!deterministic(def)) continue;
        const auto a = ref.find(def.name);
        const auto b = r.find(def.name);
        const bool same = a == ref.end()
                              ? b == r.end()
                              : b != r.end() &&
                                    a->second.value == b->second.value &&
                                    a->second.n == b->second.n;
        if (!same) {
          violations.insert(
              std::string("not deterministic across repetitions: ") + def.name);
        }
      }
    }
  }

  for (const MetricDef& def : catalog()) {
    Result result;
    result.def = &def;
    const std::string kind = def.kind;
    const std::string name = def.name;
    bool have = false;
    if (kind == "host") {
      result.value = peak_rss_mb();
      have = true;
    } else if (name == "bench.trace_overhead") {
      if (args.trace) {
        const double on = quantile(values_of(traced, "ops_per_wall_s"), 0.5);
        const double off = quantile(values_of(plain, "ops_per_wall_s"), 0.5);
        result.value = 1.0 - on / off;
        result.n = traced.size();
        have = true;
      }
    } else if (kind == "wall") {
      // Untraced repetitions, except the direct layer timings that only
      // traced repetitions take.
      std::vector<double> values = name == "setup_s" ? setups
                                                     : values_of(plain, name);
      if (values.empty()) values = values_of(traced, name);
      if (!values.empty()) {
        result.value = quantile(values, 0.5);
        result.iqr = quantile(values, 0.75) - quantile(values, 0.25);
        result.n = values.size();
        have = true;
      }
    } else if (auto it = ref.find(name); it != ref.end()) {
      result.value = it->second.value;
      result.n = it->second.n;
      have = true;
    }
    if (have) {
      summary.results.push_back(result);
    } else if (def.listed && (std::string(def.layer) == "e2e") != args.trace) {
      violations.insert("listed metric not reported: " + name);
    }
  }
  summary.violations.assign(violations.begin(), violations.end());
  summary.correct = summary.violations.empty();

  std::printf("%s", render_table(summary).c_str());
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string stem = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const std::string results = stem + (args.trace ? "-trace" : "") + ".json";
  if (!write_results(summary, results)) {
    std::fprintf(stderr, "psfbench: cannot write %s\n", results.c_str());
  }
  if (kept != nullptr) {
    const std::string table = kept->self_time_table();
    std::printf("\nper-layer self time (first traced repetition):\n%s",
                table.c_str());
    if (!kept->write_chrome(stem + ".trace.json")) {
      std::fprintf(stderr, "psfbench: cannot write %s.trace.json\n",
                   stem.c_str());
    }
    if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
  }
  std::printf("%s\n", result_line(summary).c_str());
  return summary.correct ? 0 : 1;
}

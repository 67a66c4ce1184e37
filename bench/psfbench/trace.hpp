// Span recorder for psfbench's traced runs, plus the benchmark's one wall
// clock.
//
// Spans live in memory and are written out once, when the run ends: a
// Chrome trace-event JSON file (load it in chrome://tracing or Perfetto) and
// a per-layer self-time table. Two clock domains never mix:
//   - sim spans are in simulated time (what the paper measures): `access`
//     with its lookup/planning/deployment children, one `op.*` per invoke,
//     and instants for fault firings and adaptation events;
//   - wall spans are host time (what running the framework costs): set-up
//     steps, one `sim.run` per simulator chunk, and the direct layer replays.
// Every span is recorded by benchmark code around its own calls into the
// framework; nothing inside the framework is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace psf::bench {

// Host time is what the benchmark measures; nothing simulated reads it.
// detlint:allow(DET004 the benchmark measures host wall time)
using WallClock = std::chrono::steady_clock;

inline double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

enum class Domain : std::uint8_t { kSim, kWall };

class Tracer {
 public:
  Tracer() : origin_(WallClock::now()) {}

  // Opens a span; times are seconds in the span's domain (wall spans:
  // seconds since the tracer was created). `parent` is 0 for roots. `args`
  // is the body of a JSON object ("\"k\":1,\"j\":\"x\"") or empty. Returns
  // the span id for children to reference; close it with end().
  std::uint64_t begin(Domain domain, std::string name, std::uint32_t lane,
                      double start_s, std::uint64_t parent = 0,
                      std::string args = {});
  void end(std::uint64_t id, double end_s);

  // begin() + end() for a span whose end is already known.
  std::uint64_t span(Domain domain, std::string name, std::uint32_t lane,
                     double start_s, double end_s, std::uint64_t parent = 0,
                     std::string args = {}) {
    const std::uint64_t id =
        begin(domain, std::move(name), lane, start_s, parent, std::move(args));
    end(id, end_s);
    return id;
  }

  // A zero-length marker (fault firing, adaptation event) in sim time.
  void instant(std::string name, double at_s, std::string args = {});

  // Seconds since the tracer was created, for wall spans.
  double wall_now() const { return seconds_since(origin_); }

  // Chrome trace-event JSON: sim spans under pid 1, wall spans under pid 2;
  // `tid` is the lane (client index for sim spans). Returns false when the
  // file cannot be written.
  bool write_chrome(const std::string& path) const;

  // Per (domain, span name): count, total and self time (duration minus the
  // part covered by direct children), largest self time first.
  std::string self_time_table() const;

 private:
  struct Span {
    std::string name;
    std::string args;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t lane = 0;
    Domain domain = Domain::kSim;
    bool instant = false;
  };

  WallClock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace psf::bench

// perfbench: the whyq end-to-end benchmark binary.
//
//   perfbench gen --workload <interactive|exact|churn> --seed <n>
//                 --seconds <s> --out <dir>
//   perfbench run --in <dir> [--trace 0|1] [--tamper closeness|dominance]
//   perfbench speed --seconds <s>
//
// `run` prints a human-readable report and, as its last line, `RESULT `
// followed by one JSON object: attempted, failed, the first check errors,
// the metrics with their units and the fixed-work fingerprint.
// `speed` runs host-speed slices back to back and prints their IQM time
// once a second, to watch the shared host's speed move.
// perfbench/run.py is the one command that builds, generates and runs.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "server/json.h"

namespace perfbench {

double Iqm(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t lo = v.size() / 4;
  size_t hi = v.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t i = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] * (1 - frac) + v[i + 1] * frac : v[i];
}

double TailPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string Fmt(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

std::string ResultJson(const RunResult& r) {
  using whyq::server::JsonEscape;
  std::string o = Fmt("{\"attempted\":%zu,\"failed\":%zu,\"errors\":[",
                      r.attempted, r.failed);
  for (size_t i = 0; i < r.check_errors.size(); ++i) {
    o += (i ? ",\"" : "\"") + JsonEscape(r.check_errors[i]) + "\"";
  }
  o += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    o += Fmt("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
             name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  o += "},\"work\":{";
  first = true;
  for (const auto& [key, value] : r.work) {
    o += Fmt("%s\"%s\":\"%s\"", first ? "" : ",", key.c_str(),
             JsonEscape(value).c_str());
    first = false;
  }
  return o + "}}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --seconds S "
               "--out DIR\n"
               "       perfbench run --in DIR [--trace 0|1] "
               "[--tamper closeness|dominance]\n"
               "       perfbench speed --seconds S\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  std::string workload, dir;
  uint64_t seed = 0;
  double seconds = 0;
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--out" || a == "--in") {
      dir = value();
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--tamper") {
      std::string how = value();
      if (how == "closeness") {
        opt.tamper = Tamper::kCloseness;
      } else if (how == "dominance") {
        opt.tamper = Tamper::kDominance;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (mode == "speed") {
    if (seconds <= 0) return Usage();
    whyq::Timer total;
    while (total.ElapsedSeconds() < seconds) {
      HostSpeed speed;
      whyq::Timer second;
      while (second.ElapsedSeconds() < 1.0) speed.Slice();
      std::printf("%.1f s: %zu slices, iqm %.4f ms, factor %.4f\n",
                  total.ElapsedSeconds(), speed.slices(),
                  Iqm(speed.slice_ms()), speed.Factor());
      std::fflush(stdout);
    }
    return 0;
  }
  if (dir.empty()) return Usage();
  std::string error;
  if (mode == "gen") {
    if (workload.empty() || seconds <= 0) return Usage();
    if (!GenerateInputs(workload, seed, seconds, dir, &error)) {
      std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage();
  Inputs in;
  if (!LoadInputs(dir, &in, &error)) {
    std::fprintf(stderr, "perfbench run: %s\n", error.c_str());
    return 1;
  }
  opt.dir = dir;
  // Every thread of the run (the caller, the daemon's event loop and
  // worker) shares one CPU with the host-speed slices, so the slices see
  // the speed of the vCPU the work ran on; only one of them is busy at a
  // time. Threads started later inherit the mask.
  int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  RunResult result;
  int rc = RunWorkload(in, opt, &result);
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& e : result.check_errors) {
    std::printf("  check failed: %s\n", e.c_str());
  }
  if (rc != 0) return rc;
  std::printf("RESULT %s\n", ResultJson(result).c_str());
  return result.failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

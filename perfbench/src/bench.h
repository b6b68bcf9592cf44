#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of `perfbench`, the whyq end-to-end benchmark binary.
// It has two modes: `gen` writes a workload's inputs from a seed, `run` loads
// them, measures one workload (timed, or as a traced serial replay), checks
// every answer and prints the results as one JSON line. perfbench/run.py
// drives both; perfbench/NOTES.md documents the workloads and metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "whyq.h"

namespace perfbench {

using whyq::NodeId;

/// One operation a workload issues, in workload order.
struct Op {
  enum Kind { kWhy, kWhyNot, kRead, kUpdate };
  Kind kind = kWhy;
  size_t query = 0;               // index into Inputs::queries
  std::vector<NodeId> entities;   // V_N (why) or V_C (why-not)
  size_t batch = 0;               // index into Inputs::batches (updates)
};

const char* OpKindName(Op::Kind k);

inline bool IsQuestion(const Op& op) {
  return op.kind == Op::kWhy || op.kind == Op::kWhyNot;
}

/// Everything a run reads from the generated input directory.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  std::string graph_path;                  // generated TSV graph
  std::vector<std::string> queries;        // distinct query DSL texts
  std::vector<whyq::UpdateBatch> batches;  // churn update batches
  std::vector<bool> batch_intersects;      // batch touches a hot query
  std::vector<Op> ops;                     // reads/questions (and updates)
};

/// Writes the inputs of `workload` for `seed`, sized for `seconds` of
/// measured work, into `dir`. Returns false with a message on failure.
bool GenerateInputs(const std::string& workload, uint64_t seed,
                    double seconds, const std::string& dir,
                    std::string* error);
bool LoadInputs(const std::string& dir, Inputs* out, std::string* error);

/// Churn's read mix (inputs.cc) and the prepared-cache capacity it is sized
/// against (workloads.cc): the hot queries stay cached; the scanned ones
/// are more than the slots left beside them, so every scan read misses the
/// cache and goes to the plan store.
constexpr size_t kChurnHotQueries = 8;
constexpr size_t kChurnScanQueries = 8;
constexpr size_t kChurnCacheCapacity = 14;
static_assert(kChurnCacheCapacity - kChurnHotQueries < kChurnScanQueries);

/// The answering configuration of each question workload. Counts cap the
/// work; nothing is capped by wall-clock time.
whyq::AnswerConfig InteractiveConfig();
whyq::AnswerConfig ExactConfig();
whyq::AnswerConfig ChurnConfig();

// ---------------------------------------------------------------------------
// Results.

/// One client-observed operation outcome, recorded during measurement and
/// checked afterwards (never inside the timed phase).
struct Outcome {
  size_t op = 0;            // index into Inputs::ops
  bool ok = false;          // transport + status ok
  std::string error;        // why !ok
  double latency_ms = 0;    // client-observed
  std::string response;     // raw wire line (socket workloads)
  // Parsed answer fields.
  bool found = false;
  bool truncated = false;
  double closeness = 0;
  double cost = 0;
  std::string rewritten;    // rewritten query DSL
  size_t base_answers = 0;  // |Q(u_o,G)| the request ran against
  uint64_t generation = 0;  // updates: the published epoch
  size_t picky = 0;         // |O_s| (in-process workloads)
  double evaluate_ms = 0;   // the check's re-evaluation of the rewrite
  // Host speed (timed runs): the slices run before the op started, and
  // HostSpeed::LocalFactor around it.
  size_t slice = 0;
  double host_factor = 1;
  // The program's own per-request report (wire "stats" or the trace).
  bool cache_hit = false;
  double service_latency_ms = 0;
  whyq::RequestTrace trace;
};

/// A named number with its unit, as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The result of one `run` invocation.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> check_errors;  // first few, for the report
  Metrics metrics;
  std::map<std::string, std::string> work;  // fixed-work fingerprint
  std::vector<std::string> report;          // human-readable lines
};

/// Self-tests of the answer checks: corrupt answers before checking.
enum class Tamper {
  kNone,
  kCloseness,  // raise one reported closeness (or one read's answer count)
  kDominance,  // drop every found exact answer, so greedy beats it
};

struct RunOptions {
  std::string dir;
  bool trace = false;
  Tamper tamper = Tamper::kNone;
};

int RunWorkload(const Inputs& in, const RunOptions& opt, RunResult* out);

// ---------------------------------------------------------------------------
// Answer checks (checks.cc). Each returns the number of failed outcomes and
// appends a message per failure to `errors`.

/// Q(u_o, G) of `q` under `semantics`, sorted: Matcher::MatchOutput for
/// isomorphism, SimulationAnswers for simulation.
std::vector<NodeId> AnswerSet(const whyq::Graph& g, const whyq::Query& q,
                              whyq::MatchSemantics semantics);

/// Every query of a workload parsed against the initial graph, with its
/// answer set there. Built once per run, outside every measurement.
struct ParsedQueries {
  std::vector<whyq::Query> queries;
  std::vector<std::vector<NodeId>> answers;
};
ParsedQueries ParseQueries(const whyq::Graph& g, const Inputs& in,
                           whyq::MatchSemantics semantics);

/// Re-evaluates every why/why-not answer with the public evaluators on
/// `g` (the epoch the questions ran against): cost <= B, guard <= m and the
/// reported closeness equal to the recomputed one; the base answer count
/// must equal the matcher's. Marks failed outcomes !ok.
size_t CheckQuestionAnswers(const whyq::Graph& g, const Inputs& in,
                            const whyq::AnswerConfig& cfg,
                            const ParsedQueries& parsed,
                            std::vector<Outcome>* outcomes,
                            std::vector<std::string>* errors);

/// Exact answers must be at least as close as ApproxWhy / FastWhyNot on the
/// same question (the truncation-seeding guarantee).
size_t CheckExactDominance(const whyq::Graph& g, const Inputs& in,
                           const whyq::AnswerConfig& cfg,
                           const ParsedQueries& parsed,
                           std::vector<Outcome>* outcomes,
                           std::vector<std::string>* errors);

/// Churn: every update must publish the next generation, and every read
/// must report the answer count Matcher::MatchOutput gives on the
/// benchmark's own replica of the epoch it ran against (the replay is
/// serial, so that is the epoch after the updates before it). The replica
/// applies the batches to `g0` in order and recounts after each batch that
/// intersects a footprint.
size_t CheckChurn(const whyq::Graph& g0, const Inputs& in,
                  const ParsedQueries& parsed, std::vector<Outcome>* outcomes,
                  std::vector<std::string>* errors);

// ---------------------------------------------------------------------------
// Small statistics and formatting helpers.

/// Interquartile mean: the mean of the middle half of the sorted samples.
double Iqm(std::vector<double> v);
double Percentile(std::vector<double> v, double p);
/// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
/// beyond it (0 when there are fewer than 20 samples).
double TailPercentile(size_t n);
double Median(std::vector<double> v);

/// Process CPU (user + sys) in milliseconds, and peak RSS in MB.
double ProcessCpuMs();
double PeakRssMb();

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Host-speed reference (host_speed.cc).

/// The IQM slice time, in ms, that defines a factor of 1: about what a
/// slice took in the faster spells of the 4-vCPU VM the benchmark was
/// calibrated on (2.1-2.6 ms).
constexpr double kReferenceSliceMs = 2.0;

/// A fixed slice of CPU and memory work that uses none of whyq's code.
/// Workloads run it between operations (never inside one), so its slices
/// see the host at the speed the operations saw it; the shared host's
/// speed moves by up to 1.6x over minutes. Factor(first) =
/// kReferenceSliceMs / IQM of the times of slices first..last: a time
/// measured while they ran, multiplied by it, reads as on the reference
/// host.
class HostSpeed {
 public:
  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  void Slice();
  /// Runs a slice if `period_ms` passed since the last one this way.
  void SliceEvery(double period_ms);

  double Factor(size_t first = 0) const;
  /// kReferenceSliceMs / the median of the slices around `next` (ten
  /// before it and ten from it on), kept within slices first..last-1: the
  /// factor of an operation that ran just before slice `next`.
  double LocalFactor(size_t next, size_t first, size_t last) const;
  size_t slices() const { return slice_ms_.size(); }
  double TotalMs() const { return total_ms_; }  // wall time of all slices
  double CpuMs() const { return cpu_ms_; }
  const std::vector<double>& slice_ms() const { return slice_ms_; }

 private:
  uint64_t Work();

  std::vector<uint32_t> next_;
  std::vector<uint64_t> keys_;
  uint32_t cursor_ = 0;
  uint64_t checksum_ = 0;
  std::vector<double> slice_ms_;  // the timed pass of each slice
  double total_ms_ = 0;
  double cpu_ms_ = 0;
  whyq::Timer since_;
};

/// FNV-1a over a string, folded into `h`.
uint64_t Fnv(uint64_t h, const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

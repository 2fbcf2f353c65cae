// score_perf — the repository benchmark's workload runner.
//
//   score_perf --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//   score_perf --self-test
//
// Runs one workload, checks its outputs after timing ends, prints every
// metric by name with its unit, and prints as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The result
// and the machine fingerprint are also written to DIR/results/, and a traced
// run writes its spans to DIR/traces/. Exit code 0 when every check passed,
// 1 when a check failed or the run threw, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perf::Result;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Machine fingerprint: timings are only comparable between equal ones.
std::string fingerprint_json() {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"compiler\": \""
     << json_escape(compiler()) << "\", \"build_type\": \"" << PERF_BUILD_TYPE
     << "\", \"score_check_cache\": " << (PERF_CHECK_CACHE ? "true" : "false")
     << "}";
  return os.str();
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Result& r, bool trace) {
  const auto& defs = trace ? perf::layer_metrics() : perf::e2e_metrics();
  const auto& values = trace ? r.layer : r.e2e;
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const perf::MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << format_value(std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << d.unit
       << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::cerr << "usage: score_perf --workload stream-drift|dist-inproc|"
               "dist-sockets --seed N --seconds S --trace 0|1 "
               "--out-dir DIR\n       score_perf --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options opt;
  std::string out_dir;
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--self-test") {
        self_test = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--out-dir") out_dir = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (self_test) return perf::run_self_test();
  if (out_dir.empty() || !(opt.seconds > 0.0)) return usage();

  using Runner = void (*)(const perf::Options&, Result&);
  Runner runner = nullptr;
  if (opt.workload == "stream-drift") runner = perf::run_stream_drift;
  if (opt.workload == "dist-inproc") runner = perf::run_dist_inproc;
  if (opt.workload == "dist-sockets") runner = perf::run_dist_sockets;
  if (runner == nullptr) return usage();

  const std::string fingerprint = fingerprint_json();
  Result r;
  try {
    perf::reset_peak_rss();
    if (opt.trace) perf::Tracer::instance().enable(opt.seed);
    runner(opt, r);
    if (opt.trace) {
      perf::Tracer::instance().set_enabled(false);
      perf::put_span_metrics(r);
      // Layer self times must cover the traced busy time to within 10%.
      r.check(r.layer["trace.unattributed_pct"] <= 10.0,
              "layer self times cover less than 90% of the traced busy time");
      const std::string trace_path = out_dir + "/traces/" + opt.workload +
                                     "-seed" + std::to_string(opt.seed) + ".json";
      if (!perf::Tracer::instance().write_json(trace_path)) {
        throw std::runtime_error("cannot write " + trace_path);
      }
    }
    for (const perf::MetricDef& d : perf::e2e_metrics()) {
      r.check(r.e2e.count(d.name) && r.e2e.at(d.name) > 0.0 &&
                  std::isfinite(r.e2e.at(d.name)),
              std::string("metric ") + d.name + " missing or not positive");
    }
  } catch (const std::exception& e) {
    std::cerr << "score_perf: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }

  std::cout << "fingerprint " << fingerprint << "\n";
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " vms "
            << r.num_vms << "\n";
  const auto& defs = opt.trace ? perf::layer_metrics() : perf::e2e_metrics();
  const auto& values = opt.trace ? r.layer : r.e2e;
  for (const perf::MetricDef& d : defs) {
    const auto it = values.find(d.name);
    std::cout << "  " << d.name << " = "
              << format_value(it == values.end() ? 0.0 : it->second) << " "
              << d.unit << "\n";
  }
  for (const std::string& f : r.failures) std::cout << "CHECK FAILED: " << f << "\n";
  const std::string line = result_json(r, opt.trace);
  write_file(out_dir + "/results/" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                 ".json",
             "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                 std::to_string(opt.seed) + ", \"trace\": " +
                 (opt.trace ? "1" : "0") + ", \"fingerprint\": " + fingerprint +
                 ", \"result\": " + line + "}");
  std::cout << line << std::endl;
  return r.correct() ? 0 : 1;
}

/// @file main.cpp
/// perfbench: runs one named workload and prints its metrics as one JSON
/// object on the last line of stdout. perfbench/run.py builds this binary,
/// runs it and turns that object into the benchmark's result line.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <file.json>]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += ' ';
        else
          out += c;
    }
  }
  return out;
}

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::kMeasured: return "measured";
    case Tag::kModeled: return "modeled";
    case Tag::kComputed: return "computed";
  }
  return "measured";
}

void print_metrics(const std::map<std::string, Metric>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, x] : m) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"tag\":\"%s\","
                "\"exact\":%s,\"samples\":%zu}",
                first ? "" : ",", json_escape(name).c_str(), x.value,
                json_escape(x.unit).c_str(), tag_name(x.tag),
                x.exact ? "true" : "false", x.samples);
    first = false;
  }
  std::printf("}");
}

void print_report(const Report& r) {
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"end_to_end\":");
  print_metrics(r.end_to_end);
  std::printf(",\"per_layer\":");
  print_metrics(r.per_layer);
  std::printf(",\"info\":{");
  bool first = true;
  for (const auto& [k, v] : r.info) {
    std::printf("%s\"%s\":\"%s\"", first ? "" : ",", json_escape(k).c_str(),
                json_escape(v).c_str());
    first = false;
  }
  std::printf("},\"mismatches\":[");
  first = true;
  for (const auto& m : r.mismatches) {
    std::printf("%s\"%s\"", first ? "" : ",", json_escape(m).c_str());
    first = false;
  }
  std::printf("],\"self_time_s\":{");
  first = true;
  for (const auto& [name, st] : Trace::instance().self_time()) {
    std::printf("%s\"%s\":[%.9f,%zu]", first ? "" : ",",
                json_escape(name).c_str(), st.first, st.second);
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (argc % 2 != 1) return usage("arguments come in pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--trace-out") opt.trace_path = v;
    else return usage(("unknown argument " + k).c_str());
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return usage("bad arguments");

  // Build guard: timed numbers only from an optimized, assertion-free,
  // unsanitized build.
  if (!kOptimized || !kAssertsOff || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a debug or sanitizer build "
                 "(optimized=%d NDEBUG=%d sanitized=%d)\n",
                 kOptimized, kAssertsOff, kSanitized);
    return 3;
  }
  opt.nproc = online_cpus();
  Trace::instance().enable(opt.trace);

  Report rep;
  try {
    if (opt.workload == "analytics-cpupar") rep = run_analytics(opt, false);
    else if (opt.workload == "analytics-gpusim") rep = run_analytics(opt, true);
    else if (opt.workload == "serve-read") rep = run_serve(opt, false);
    else if (opt.workload == "serve-mutate") rep = run_serve(opt, true);
    else return usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  rep.info["compiler"] = __VERSION__;
  rep.info["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.info["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  rep.info["nproc"] = std::to_string(opt.nproc);
  rep.info["spans"] = std::to_string(Trace::instance().size());
  if (opt.trace && !opt.trace_path.empty()) {
    if (!Trace::instance().write(opt.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_path.c_str());
      return 1;
    }
    rep.info["trace_file"] = opt.trace_path;
  }
  print_report(rep);
  return 0;
}

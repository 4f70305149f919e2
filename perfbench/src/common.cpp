#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_pct(const CpuTicks& a, const CpuTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? 100.0 * (b.steal - a.steal) / total : 0.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void check_threads(const Options& opt, std::size_t threads, const char* what) {
  if (threads > opt.nproc)
    throw std::runtime_error(std::string(what) + " uses " +
                             std::to_string(threads) +
                             " compute threads, more than nproc=" +
                             std::to_string(opt.nproc));
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

namespace {
std::mutex trace_mutex;
thread_local std::uint64_t tl_open_span = 0;

std::uint64_t thread_number() {
  static std::mutex m;
  static std::uint64_t next = 1;
  thread_local std::uint64_t mine = 0;
  if (mine == 0) {
    std::lock_guard<std::mutex> lock(m);
    mine = next++;
  }
  return mine;
}
}  // namespace

Trace& Trace::instance() {
  static Trace t;
  return t;
}

std::uint64_t Trace::current() const { return tl_open_span; }

std::uint64_t Trace::open(std::uint64_t request_id) {
  std::uint64_t id;
  {
    // The record is completed at close(); its parent is the span that was
    // open on this thread, restored when this one closes.
    std::lock_guard<std::mutex> lock(trace_mutex);
    id = next_id_++;
    spans_.push_back(SpanRec{id, tl_open_span, request_id, {}, {}, {}, {},
                             thread_number()});
  }
  tl_open_span = id;
  return id;
}

void Trace::close(std::uint64_t id, const char* name, const char* cat,
                  Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(trace_mutex);
  // Spans close in LIFO order per thread, so the record is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id != id) continue;
    it->name = name;
    it->cat = cat;
    it->start = start;
    it->end = end;
    tl_open_span = it->parent;
    return;
  }
}

void Trace::record(const char* name, const char* cat, Clock::time_point start,
                   Clock::time_point end, std::uint64_t parent,
                   std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(trace_mutex);
  spans_.push_back(SpanRec{next_id_++, parent, request_id, name, cat, start,
                           end, thread_number()});
}

std::map<std::string, std::pair<double, std::size_t>> Trace::self_time()
    const {
  std::lock_guard<std::mutex> lock(trace_mutex);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans_)
    if (s.parent != 0)
      children[s.parent].push_back(
          {seconds_between(epoch_, s.start), seconds_between(epoch_, s.end)});
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const auto& s : spans_) {
    const double a = seconds_between(epoch_, s.start);
    const double b = seconds_between(epoch_, s.end);
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, a);
        hi = std::min(hi, b);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    auto& slot = out[s.name];
    slot.first += std::max(0.0, (b - a) - covered);
    slot.second += 1;
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(trace_mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& s : spans_) {
    const double ts = 1e6 * seconds_between(epoch_, s.start);
    const double dur = 1e6 * seconds_between(s.start, s.end);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"span\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",\n", s.name.c_str(), s.cat.c_str(),
                 static_cast<unsigned long long>(s.tid), ts, dur,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

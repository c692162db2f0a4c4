#include "metrics.hpp"

#include <cpuid.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = value;
  std::cout << "metric " << name << " " << number(value) << " " << unit
            << "\n";
}

void Metrics::set(const std::string& name, double value) {
  const auto unit_in = [&](const auto& specs) -> const char* {
    for (const MetricSpec& spec : specs)
      if (name == spec.name) return spec.unit;
    return nullptr;
  };
  const char* unit = unit_in(kEndToEnd);
  if (unit == nullptr) unit = unit_in(kPerLayer);
  if (unit == nullptr) throw std::logic_error("unlisted metric: " + name);
  set(name, value, unit);
}

std::string Metrics::result_json(const MetricSpec* specs, std::size_t n,
                                 bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values_.find(specs[i].name);
    if (it == values_.end())
      throw std::logic_error(std::string("metric not measured: ") +
                             specs[i].name);
    os << (i ? ", " : "") << "\"" << specs[i].name
       << "\": {\"value\": " << number(it->second) << ", \"unit\": \""
       << specs[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

namespace {

std::string cpu_brand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  std::replace(s.begin(), s.end(), '"', '\'');
  return s;
}

struct Isa {
  const char* name;
  bool runtime;
  bool compiled;
};

}  // namespace

std::string fingerprint(const std::string& meter_source) {
  __builtin_cpu_init();
  const Isa isas[] = {
      {"sse4.2", __builtin_cpu_supports("sse4.2") != 0,
#ifdef __SSE4_2__
       true},
#else
       false},
#endif
      {"avx2", __builtin_cpu_supports("avx2") != 0,
#ifdef __AVX2__
       true},
#else
       false},
#endif
      {"bmi2", __builtin_cpu_supports("bmi2") != 0,
#ifdef __BMI2__
       true},
#else
       false},
#endif
      {"avx512f", __builtin_cpu_supports("avx512f") != 0,
#ifdef __AVX512F__
       true},
#else
       false},
#endif
      {"avx512bw", __builtin_cpu_supports("avx512bw") != 0,
#ifdef __AVX512BW__
       true},
#else
       false},
#endif
      {"avx512vl", __builtin_cpu_supports("avx512vl") != 0,
#ifdef __AVX512VL__
       true},
#else
       false},
#endif
  };
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << cpu_brand() << "\", \"isa\": {";
  for (std::size_t i = 0; i < std::size(isas); ++i)
    os << (i ? ", " : "") << "\"" << isas[i].name << "\": {\"runtime\": "
       << (isas[i].runtime ? "true" : "false")
       << ", \"compiled\": " << (isas[i].compiled ? "true" : "false") << "}";
  os << "}, \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"optimized\": "
#ifdef __OPTIMIZE__
     << "true"
#else
     << "false"
#endif
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"meter\": \"" << meter_source << "\"}";
  return os.str();
}

}  // namespace perfbench

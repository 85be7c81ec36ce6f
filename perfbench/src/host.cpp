// Host fingerprint printed with every result, so a regression can be told
// apart from a different machine. Effective parallelism is measured, not
// read from nproc: a sandbox may report several CPUs that scale like one.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace ispb::perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string first_line_of_command(const std::string& cmd) {
  std::string line;
  if (FILE* p = ::popen(cmd.c_str(), "r"); p != nullptr) {
    char buf[512];
    if (std::fgets(buf, sizeof buf, p) != nullptr) line = buf;
    ::pclose(p);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

std::string read_trimmed(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (read_trimmed(dir + "/level") == std::to_string(level) &&
        read_trimmed(dir + "/type") != "Instruction") {
      return read_trimmed(dir + "/size");
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::string(v) : fallback;
}

/// Fixed integer work that the optimizer cannot drop.
u64 spin(u64 iterations) {
  u64 x = 88172645463325252ull;
  for (u64 i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// nproc * (one thread's time) / (time of nproc threads doing the same
/// work each): nproc on an uncontended host, ~1 where threads serialize.
f64 effective_parallelism(unsigned nproc) {
  constexpr u64 kWork = 40'000'000;
  std::vector<u64> sink(nproc + 1, 0);
  Clock::time_point t0 = Clock::now();
  sink[nproc] = spin(kWork);
  const f64 one = seconds_since(t0);
  std::vector<std::thread> threads;
  t0 = Clock::now();
  for (unsigned i = 0; i < nproc; ++i) {
    threads.emplace_back([&sink, i] { sink[i] = spin(kWork); });
  }
  for (std::thread& t : threads) t.join();
  const f64 all = seconds_since(t0);
  asm volatile("" : : "r"(sink.data()) : "memory");
  return all > 0.0 ? static_cast<f64>(nproc) * one / all : 0.0;
}

}  // namespace

std::string host_block_json() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string jit_cxx =
      env_or("ISPB_NATIVE_CXX", env_or("CXX", "c++"));
  std::ostringstream os;
  os.precision(4);
  os << "{\"cxx_version\": "
     << json_string(first_line_of_command("c++ --version 2>/dev/null"))
     << ", \"jit_compiler\": " << json_string(jit_cxx)
     << ", \"jit_compiler_version\": "
     << json_string(first_line_of_command(jit_cxx + " --version 2>/dev/null"))
     << ", \"nproc\": " << nproc
     << ", \"effective_parallelism\": " << effective_parallelism(nproc)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"l2\": " << json_string(cache_size(2))
     << ", \"l3\": " << json_string(cache_size(3))
     << ", \"build_type\": " << json_string(ISPB_PERFBENCH_BUILD_TYPE) << "}";
  return os.str();
}

f64 retained_rss_mib() {
  ::malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  u64 size_pages = 0;
  u64 resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<f64>(resident_pages) *
         static_cast<f64>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

f64 peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;
}

f64 process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<f64>(tv.tv_sec) + static_cast<f64>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace ispb::perfbench

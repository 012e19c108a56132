#include "util/memory.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ms::util {

namespace {

std::size_t read_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      std::istringstream iss(line.substr(key_len));
      std::size_t kb = 0;
      iss >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

}  // namespace

std::size_t peak_rss_bytes() { return read_status_kb("VmHWM:"); }

std::size_t current_rss_bytes() { return read_status_kb("VmRSS:"); }

std::string format_bytes(std::size_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f kB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

}  // namespace ms::util

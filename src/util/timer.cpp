#include "util/timer.hpp"

#include <cstdio>

namespace ms::util {

std::string format_seconds(double seconds) {
  char buf[64];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else {
    const int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof(buf), "%dm%04.1fs", minutes, seconds - 60.0 * minutes);
  }
  return buf;
}

}  // namespace ms::util

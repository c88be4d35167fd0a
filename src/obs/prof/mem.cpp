#include "obs/prof/mem.h"

#include <fstream>
#include <sstream>

#ifdef __linux__
#include <unistd.h>
#endif

namespace hpcos::obs::prof {

HostMemory sample_host_memory() {
  HostMemory m;
#ifdef __linux__
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  {
    std::ifstream statm("/proc/self/statm");
    std::uint64_t vm_pages = 0;
    std::uint64_t rss_pages = 0;
    if (statm >> vm_pages >> rss_pages) {
      m.vm_bytes = vm_pages * page;
      m.rss_bytes = rss_pages * page;
      m.valid = true;
    }
  }
  {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        std::istringstream fields(line.substr(6));
        std::uint64_t kib = 0;
        if (fields >> kib) m.peak_rss_bytes = kib * 1024;
        break;
      }
    }
  }
#endif
  return m;
}

}  // namespace hpcos::obs::prof

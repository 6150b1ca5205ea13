#include "simmem/tier_config.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

namespace unimem::mem {

namespace {
// Paper Table 1 (from Suzuki & Swanson, NVMDB survey of 340 papers).
const NvmTechnology kTable1[] = {
    {"DRAM", 10, 10, 10, 10, 1000, 1000, 900, 900},
    {"STT-RAM (ITRS'13)", 60, 60, 80, 80, 800, 800, 600, 600},
    {"PCRAM", 20, 200, 80, 10000, 200, 800, 100, 800},
    {"ReRAM", 10, 1000, 10, 10000, 20, 100, 1, 8},
};
}  // namespace

const NvmTechnology* table1_technologies(std::size_t* count) {
  *count = sizeof(kTable1) / sizeof(kTable1[0]);
  return kTable1;
}

// ---------------------------------------------------------------------------
// Tier backend registry

namespace {

struct BackendRegistry {
  std::mutex mu;
  std::map<std::string, TierFactory> backends;

  BackendRegistry() {
    // Built-in backends.  "nvm" is a definite operating point (half DRAM
    // bandwidth at 4x latency — both paper sweep axes degraded at once);
    // the ratio-parameterized forms stay available through
    // TierConfig::nvm_scaled for the 2-tier figure sweeps.
    backends["dram"] = [](std::size_t c) { return TierConfig::dram_basis(c); };
    backends["hbm"] = [](std::size_t c) { return TierConfig::hbm(c); };
    backends["cxl"] = [](std::size_t c) { return TierConfig::cxl(c); };
    backends["nvm"] = [](std::size_t c) {
      return TierConfig::nvm_scaled(c, 0.5, 4.0);
    };
    backends["remote"] = [](std::size_t c) { return TierConfig::remote(c); };
  }
};

BackendRegistry& backend_registry() {
  static BackendRegistry reg;
  return reg;
}

/// "8MiB" / "512KiB" / "1GiB" / "4096" -> bytes; throws on garbage and on
/// values that do not fit a size_t (digits or digits x suffix).
std::size_t parse_capacity(const std::string& s) {
  std::size_t mult = 1;
  std::string digits = s;
  auto ends_with = [&](const char* suf) {
    const std::size_t n = std::char_traits<char>::length(suf);
    return s.size() > n && s.compare(s.size() - n, n, suf) == 0;
  };
  if (ends_with("KiB")) { mult = kKiB; digits = s.substr(0, s.size() - 3); }
  else if (ends_with("MiB")) { mult = kMiB; digits = s.substr(0, s.size() - 3); }
  else if (ends_with("GiB")) { mult = kGiB; digits = s.substr(0, s.size() - 3); }
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("parse_topology: bad capacity '" + s + "'");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t n = 0;
  for (char ch : digits) {
    const auto d = static_cast<std::size_t>(ch - '0');
    if (n > (kMax - d) / 10 || n * 10 + d > kMax / mult)
      throw std::invalid_argument("parse_topology: capacity '" + s +
                                  "' overflows");
    n = n * 10 + d;
  }
  return n * mult;
}

}  // namespace

bool register_tier_backend(const std::string& name, TierFactory factory) {
  BackendRegistry& reg = backend_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  return reg.backends.emplace(name, std::move(factory)).second;
}

TierFactory find_tier_backend(const std::string& name) {
  BackendRegistry& reg = backend_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto it = reg.backends.find(name);
  return it == reg.backends.end() ? TierFactory{} : it->second;
}

std::vector<std::string> tier_backend_names() {
  BackendRegistry& reg = backend_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::vector<std::string> out;
  for (const auto& [name, f] : reg.backends) out.push_back(name);
  return out;  // std::map iterates sorted
}

TopologyConfig parse_topology(const std::string& spec) {
  TopologyConfig topo;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string part = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (part.empty())
      throw std::invalid_argument("parse_topology: empty tier in '" + spec +
                                  "'");
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos)
      throw std::invalid_argument("parse_topology: expected name:capacity, got '" +
                                  part + "'");
    const std::string name = part.substr(0, colon);
    TierFactory f = find_tier_backend(name);
    if (!f) {
      std::string known;
      for (const std::string& n : tier_backend_names())
        known += (known.empty() ? "" : ", ") + n;
      throw std::invalid_argument("parse_topology: unknown tier backend '" +
                                  name + "' (registered: " + known + ")");
    }
    topo.tiers.push_back(f(parse_capacity(part.substr(colon + 1))));
    if (comma == spec.size()) break;
  }
  if (topo.tiers.size() < 2)
    throw std::invalid_argument(
        "parse_topology: need at least 2 tiers (fastest first, backstop "
        "last), got '" +
        spec + "'");
  return topo;
}

}  // namespace unimem::mem

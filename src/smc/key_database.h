// Per-device SMC key catalogs.
//
// Key names follow the convention the paper exploits: power-related keys
// start with 'P'. The catalog contains the keys the paper found to be
// workload-dependent (Table 2) bound to chip rails, plus a population of
// static power keys (always-on rails, setpoints) and non-power keys
// (temperature, voltage, fan, battery) so that the idle-vs-busy triage of
// section 3.2 is a real search problem.
//
// Rail binding hypothesis (real semantics are not public):
//   PHPC - P-cluster core rail meter (uW class, low noise)
//   PDTR - DC input meter over the compute rails, weak DRAM/IO coupling
//   PSTR - full system rail including DRAM/IO (noisy)
//   PMVC - P-cluster VRM current meter (M2)
//   PMVR - P-cluster VRM-side power meter (M1)
//   PPMR - package power meter rail (M1)
//   PHPS - governor's utilization-based power estimate (not a sensor)
#pragma once

#include <optional>
#include <vector>

#include "smc/sensor.h"
#include "smc/types.h"

namespace psc::smc {

struct KeyEntry {
  SmcKeyInfo info;
  SensorSpec spec;
};

class KeyDatabase {
 public:
  // Builds the catalog for one of the two supported devices by name
  // ("Mac Mini M1" / "MacBook Air M2", as in DeviceProfile::name).
  static KeyDatabase for_device(const std::string& device_name);

  std::size_t size() const noexcept { return entries_.size(); }

  // Keys in index order (the order key-by-index enumeration walks).
  const std::vector<KeyEntry>& entries() const noexcept { return entries_; }

  // Mutable access for mitigation layers that rewrite sensor specs (see
  // smc/mitigation.h).
  std::vector<KeyEntry>& mutable_entries() noexcept { return entries_; }

  const KeyEntry* find(FourCc key) const noexcept;

  // All keys whose name starts with `prefix_char`.
  std::vector<FourCc> keys_with_prefix(char prefix_char) const;

  // The data-dependent power keys of this device, in paper order — the
  // ground truth that the Table 2 scan is expected to rediscover.
  const std::vector<FourCc>& workload_dependent_keys() const noexcept {
    return workload_dependent_;
  }

 private:
  void add(SmcKeyInfo info, SensorSpec spec);

  std::vector<KeyEntry> entries_;
  std::vector<FourCc> workload_dependent_;
};

}  // namespace psc::smc

#include "soc/governor.h"

namespace psc::soc {

Governor::Governor(GovernorConfig config, const DvfsLadder& p_ladder)
    : config_(config),
      max_state_(p_ladder.max_state()),
      lowpower_max_state_(
          p_ladder.state_at_or_below(config_.lowpower_max_p_freq_hz)),
      p_state_limit_(p_ladder.max_state()) {}

void Governor::set_lowpowermode(bool enabled) noexcept {
  lowpowermode_ = enabled;
  p_state_limit_ = std::min(p_state_limit_, max_allowed_state());
  if (!enabled) {
    power_throttling_ = false;
  }
}

}  // namespace psc::soc

#include "isomer/sim/resource.hpp"

namespace isomer {

void Resource::use(SimTime duration, Simulator::Callback on_done) {
  if (duration < 0) throw SimError("negative service duration");
  const SimTime start =
      available_at_ > sim_->now() ? available_at_ : sim_->now();
  const SimTime end = clock_add(start, duration);
  available_at_ = end;
  busy_ += duration;
  ++requests_;
  sim_->schedule_at(end, std::move(on_done));
}

}  // namespace isomer

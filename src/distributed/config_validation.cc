#include "distributed/config_validation.h"

#include <cmath>
#include <string>

#include "common/sim_thread_pool.h"
#include "hwsim/validation.h"
#include "reliability/fault_injector.h"

namespace lightrw::distributed {

Status ValidateDistributedConfig(const DistributedConfig& config) {
  if (config.walker_message_bytes == 0) {
    return InvalidArgumentError(
        "walker_message_bytes must be >= 1 (a migration ships the walker "
        "state)");
  }
  if (config.num_threads > SimThreadPool::kMaxThreads) {
    return InvalidArgumentError(
        "num_threads must be <= " +
        std::to_string(SimThreadPool::kMaxThreads) + " (0 = default)");
  }
  if (config.inflight_walkers_per_board == 0) {
    return InvalidArgumentError("inflight_walkers_per_board must be >= 1");
  }
  if (config.board.sampler_parallelism == 0) {
    return InvalidArgumentError("board.sampler_parallelism must be >= 1");
  }
  if (config.board.num_instances == 0) {
    return InvalidArgumentError("board.num_instances must be >= 1");
  }
  if (config.num_spare_boards > 256) {
    return InvalidArgumentError("num_spare_boards must be <= 256");
  }
  if (!std::isfinite(config.rebuild_bytes_per_cycle)) {
    return InvalidArgumentError("rebuild_bytes_per_cycle must be finite");
  }
  if (config.num_spare_boards > 0 && config.rebuild_bytes_per_cycle <= 0.0) {
    return InvalidArgumentError(
        "rebuild_bytes_per_cycle must be > 0 when spare boards are "
        "configured (a rebuild copies the dead board's share)");
  }
  LIGHTRW_RETURN_IF_ERROR(hwsim::ValidateDramConfig(config.board.dram));
  LIGHTRW_RETURN_IF_ERROR(hwsim::ValidateLinkConfig(config.link));
  LIGHTRW_RETURN_IF_ERROR(
      reliability::ValidateFaultConfig(config.board.faults));
  // A scheduled board death with checkpointing disabled drops every
  // in-flight walk on the dead board. That is sometimes exactly what a
  // degradation experiment wants, but it must be asked for explicitly.
  // The durable checkpoint store lifts this: even at interval 0 every
  // walker has a durable generation-0 (dispatch) checkpoint to recover
  // from.
  if (config.board.faults.checkpoint_interval_cycles == 0 &&
      !config.board.faults.allow_walker_loss &&
      !(config.board.faults.enabled &&
        config.board.faults.ckpt_store.enabled) &&
      !reliability::EffectiveBoardDeaths(config.board.faults).empty()) {
    return InvalidArgumentError(
        "a scheduled board death with checkpoint_interval_cycles == 0 "
        "loses every in-flight walk on the dead board; set "
        "faults.allow_walker_loss to opt in, or enable the durable "
        "checkpoint store (faults.ckpt_store.enabled / --ckpt-store) to "
        "recover from dispatch checkpoints");
  }
  return Status::Ok();
}

}  // namespace lightrw::distributed

#include "common/sim_thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/flags.h"

namespace lightrw {

namespace {

uint32_t Clamp(uint32_t n) {
  return std::clamp<uint32_t>(n, 1, SimThreadPool::kMaxThreads);
}

// 0 = "not overridden": fall back to the environment.
std::atomic<uint32_t> g_default_threads{0};

}  // namespace

StatusOr<uint32_t> SimThreadPool::EnvThreads() {
  const char* name = "LIGHTRW_SIM_THREADS";
  const StatusOr<uint64_t> parsed =
      ParseEnvUint(name, std::getenv(name), 1, kMaxThreads);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Clamp(static_cast<uint32_t>(*parsed));
}

uint32_t SimThreadPool::DefaultThreads() {
  const uint32_t overridden =
      g_default_threads.load(std::memory_order_relaxed);
  if (overridden != 0) {
    return overridden;
  }
  static const uint32_t from_env = [] {
    const StatusOr<uint32_t> threads = EnvThreads();
    return threads.ok() ? *threads : 1;
  }();
  return from_env;
}

void SimThreadPool::SetDefaultThreads(uint32_t n) {
  g_default_threads.store(n == 0 ? 0 : Clamp(n),
                          std::memory_order_relaxed);
}

uint32_t SimThreadPool::ResolveThreads(uint32_t requested) {
  return requested == 0 ? DefaultThreads() : Clamp(requested);
}

void SimThreadPool::ParallelFor(uint32_t threads, size_t num_shards,
                                const std::function<void(size_t)>& fn) {
  if (num_shards == 0) {
    return;
  }
  const uint32_t workers = static_cast<uint32_t>(std::min<size_t>(
      Clamp(threads), num_shards));
  if (workers <= 1) {
    for (size_t shard = 0; shard < num_shards; ++shard) {
      fn(shard);
    }
    return;
  }
  std::atomic<size_t> next{0};
  auto run = [&next, num_shards, &fn] {
    for (;;) {
      const size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) {
        return;
      }
      fn(shard);
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (uint32_t t = 0; t + 1 < workers; ++t) {
    helpers.emplace_back(run);
  }
  run();
  for (std::thread& helper : helpers) {
    helper.join();
  }
}

}  // namespace lightrw

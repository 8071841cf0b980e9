#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <queue>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kArenaBytes = std::size_t{64} << 20;
constexpr int kKeys = 200'000;
constexpr int kLookups = 600'000;
constexpr int kEvents = 200'000;
constexpr int kSmallObjects = 100'000;
constexpr int kSorted = 200'000;

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

HostReference::HostReference() : arena_(kArenaBytes) {
  run();  // touches the arena's pages once, outside any measurement
}

double HostReference::run() {
  const auto start = std::chrono::steady_clock::now();
  std::pmr::monotonic_buffer_resource pool(arena_.data(), arena_.size(),
                                           std::pmr::null_memory_resource());
  std::uint64_t state = 42, sink = 0;

  std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);
  for (int i = 0; i < kKeys; ++i) map[splitmix(state) % 4'000'000] = i;
  for (int i = 0; i < kLookups; ++i) {
    const auto it = map.find(splitmix(state) % 4'000'000);
    if (it != map.end()) sink += it->second;
  }

  using Event = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> events(
      std::greater<>{}, std::pmr::vector<Event>(&pool));
  for (int i = 0; i < kEvents; ++i) events.emplace(splitmix(state) >> 20, i);
  while (!events.empty()) {
    sink += events.top().second;
    events.pop();
  }

  std::pmr::vector<std::pmr::vector<int>> objects(&pool);
  objects.reserve(kSmallObjects);
  for (int i = 0; i < kSmallObjects; ++i) objects.emplace_back(8, i);
  sink += static_cast<std::uint64_t>(objects[kSmallObjects / 2][3]);

  std::pmr::vector<std::uint64_t> values(kSorted, &pool);
  for (auto& v : values) v = splitmix(state);
  std::sort(values.begin(), values.end());
  sink += values[kSorted / 2];

  // Keep the work observable so none of it is optimised away.
  volatile std::uint64_t keep = sink;
  static_cast<void>(keep);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench

// Deliberately-bad fixture for the hot-region-alloc rule on the adaptive
// prefetch controller. NEVER compiled. The real AdaptiveController marks
// its per-read decision path (depth probe + hit/miss accounting, one call
// per served read) as a `// ppfs::hot` region; this fixture commits the
// allocations that rule exists to keep out of the feedback loop.
#include <functional>
#include <string>
#include <unordered_map>

namespace ppfs::bad {

// ppfs::hot — pretend per-read depth decision + window accounting
inline unsigned decide_depth(int fd, bool hit) {
  // [hot-region-alloc] heap map built per read — per-fd window state must
  // live in the open-addressed sim::FlatMap, never a node-based container.
  std::unordered_map<int, unsigned> windows;
  windows[fd] += hit ? 1u : 0u;

  // [hot-region-alloc] std::string formatting inside the feedback loop.
  std::string trail = "fd=" + std::to_string(fd);
  (void)trail;

  // [hot-region-alloc] std::function indirection on the ramp decision.
  std::function<unsigned(unsigned)> ramp = [](unsigned d) { return d * 2; };
  return ramp(windows[fd]);
}
// ppfs::endhot

inline void depth_histogram_report() {
  // OK: the end-of-run depth histogram dump is a cold path.
  std::string line = "depth=1";
  (void)line;
}

}  // namespace ppfs::bad

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// Independent answer references for the benchmark's two programs. They
// share no code with the program under test: each computes one window's
// shown atoms with plain loops (the traffic rules) or a graph search
// (reachability), which is the per-window least fixpoint of these
// stratified / definite programs.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class TrafficPredicate : uint8_t {
  kAverageSpeed,  // average_speed(X, Y)
  kCarNumber,     // car_number(X, Y)
  kTrafficLight,  // traffic_light(X)
  kCarInSmoke,    // car_in_smoke(C, high|low)
  kCarSpeed,      // car_speed(C, V)
  kCarLocation,   // car_location(C, X)
};

// One stream item of the traffic schema. car_in_smoke's object is
// kSmokeHigh or kSmokeLow; traffic_light has no object.
struct TrafficItem {
  TrafficPredicate predicate = TrafficPredicate::kAverageSpeed;
  int64_t subject = 0;
  int64_t object = 0;
};
inline constexpr int64_t kSmokeLow = 0;
inline constexpr int64_t kSmokeHigh = 1;

// link(subject, object) when is_link, else high(subject).
struct ReachItem {
  bool is_link = true;
  int64_t subject = 0;
  int64_t object = 0;
};

// The shown atoms (traffic_jam/1, car_fire/1, give_notification/1) of the
// paper's Listing 1 over `window`, plus r7
// (traffic_jam(X) :- car_fire(X), many_cars(X)) when `with_r7`. Rendered
// as `name(arg)` and sorted.
std::vector<std::string> TrafficShownAtoms(
    const std::vector<TrafficItem>& window, bool with_r7);

// The alarm/2 atoms of
//   reach(X,Y) :- link(X,Y).  reach(X,Z) :- reach(X,Y), link(Y,Z).
//   alarm(X,Y) :- high(X), high(Y), reach(X,Y).
// over `window`, rendered as `alarm(x,y)` and sorted.
std::vector<std::string> ReachAlarms(const std::vector<ReachItem>& window);

// Empty when the sorted atom lists are equal; otherwise a one-line
// description of the first missing and first extra atom and the counts.
std::string DescribeMismatch(const std::vector<std::string>& expected,
                             const std::vector<std::string>& actual);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

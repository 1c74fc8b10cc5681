// Tests of the benchmark's answer references on hand-built windows whose
// answers are derived by hand in the comments. A broken reference or a
// broken comparison fails here before it can pass a wrong engine answer.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void ExpectAtoms(const std::vector<std::string>& expected,
                 const std::vector<std::string>& actual, const char* what) {
  const std::string mismatch = DescribeMismatch(expected, actual);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "FAIL: %s: %s\n", what, mismatch.c_str());
    ++failures;
  }
}

TrafficItem T(TrafficPredicate p, int64_t s, int64_t o = 0) {
  return TrafficItem{p, s, o};
}

using P = TrafficPredicate;

// Location 1: speed 10 < 20 and 50 cars > 40, no light -> traffic_jam(1).
// Location 2: same, but a traffic light -> nothing.
// Location 3: speed 20 is not < 20 -> nothing.
// Location 4: 40 cars is not > 40 -> nothing (its slow speed alone is not
//   enough).
// Car 7: high smoke, speed 0, at location 5 -> car_fire(5).
// Car 8: low smoke -> nothing. Car 9: moving -> nothing.
// Location 5 also has 60 cars and a light: under r7
//   traffic_jam(5) :- car_fire(5), many_cars(5) fires regardless of the
//   light; without r7 there is no jam at 5 (no slow speed either).
// The duplicate car_number(1, 50) must not duplicate any atom.
std::vector<TrafficItem> TrafficWindow() {
  return {
      T(P::kAverageSpeed, 1, 10), T(P::kCarNumber, 1, 50),
      T(P::kCarNumber, 1, 50),    T(P::kAverageSpeed, 2, 10),
      T(P::kCarNumber, 2, 50),    T(P::kTrafficLight, 2),
      T(P::kAverageSpeed, 3, 20), T(P::kCarNumber, 3, 41),
      T(P::kAverageSpeed, 4, 5),  T(P::kCarNumber, 4, 40),
      T(P::kCarInSmoke, 7, kSmokeHigh), T(P::kCarSpeed, 7, 0),
      T(P::kCarLocation, 7, 5),   T(P::kCarInSmoke, 8, kSmokeLow),
      T(P::kCarSpeed, 8, 0),      T(P::kCarLocation, 8, 6),
      T(P::kCarInSmoke, 9, kSmokeHigh), T(P::kCarSpeed, 9, 3),
      T(P::kCarLocation, 9, 6),   T(P::kCarNumber, 5, 60),
      T(P::kTrafficLight, 5),
  };
}

void TestTrafficProgramP() {
  ExpectAtoms({"car_fire(5)", "give_notification(1)", "give_notification(5)",
               "traffic_jam(1)"},
              TrafficShownAtoms(TrafficWindow(), /*with_r7=*/false),
              "Listing 1 without r7");
}

void TestTrafficProgramPPrime() {
  ExpectAtoms({"car_fire(5)", "give_notification(1)", "give_notification(5)",
               "traffic_jam(1)", "traffic_jam(5)"},
              TrafficShownAtoms(TrafficWindow(), /*with_r7=*/true),
              "Listing 1 with r7");
}

void TestTrafficEmptyWindow() {
  ExpectAtoms({}, TrafficShownAtoms({}, true), "empty traffic window");
}

// The car's smoke, speed and location arrive in any order; car_fire needs
// all three for the same car.
void TestCarFireNeedsSameCar() {
  ExpectAtoms({}, TrafficShownAtoms({T(P::kCarInSmoke, 1, kSmokeHigh),
                                     T(P::kCarSpeed, 2, 0),
                                     T(P::kCarLocation, 1, 9)},
                                    true),
              "car_fire across two cars");
  ExpectAtoms({"car_fire(9)", "give_notification(9)"},
              TrafficShownAtoms({T(P::kCarLocation, 1, 9),
                                 T(P::kCarSpeed, 1, 0),
                                 T(P::kCarInSmoke, 1, kSmokeHigh)},
                                true),
              "car_fire in reverse arrival order");
}

ReachItem Link(int64_t from, int64_t to) { return ReachItem{true, from, to}; }
ReachItem High(int64_t node) { return ReachItem{false, node, 0}; }

// Cycle 1 -> 2 -> 3 -> 1 and edge 4 -> 5; high nodes 1, 3, 5.
// reach(1,.) = reach(3,.) = {1, 2, 3}; reach(4,.) = {5}; 5 reaches nothing.
// alarm(X,Y) needs both high and reach(X,Y): (1,1) (1,3) (3,1) (3,3).
void TestReachCycle() {
  ExpectAtoms({"alarm(1,1)", "alarm(1,3)", "alarm(3,1)", "alarm(3,3)"},
              ReachAlarms({Link(1, 2), Link(2, 3), Link(3, 1), Link(4, 5),
                           High(1), High(3), High(5)}),
              "reach over a cycle");
}

// A path 1 -> 2 -> 3 with high 1 and 3: alarm(1,3) only; a node is not
// reachable from itself without a cycle. A self loop makes it so.
void TestReachPathAndSelfLoop() {
  ExpectAtoms({"alarm(1,3)"},
              ReachAlarms({High(1), Link(1, 2), Link(2, 3), High(3)}),
              "reach along a path");
  ExpectAtoms({"alarm(7,7)"}, ReachAlarms({Link(7, 7), High(7), High(7)}),
              "reach over a self loop");
  ExpectAtoms({}, ReachAlarms({Link(1, 2), High(2)}),
              "alarm needs a high source");
}

// The comparison itself: equal lists pass, a missing, an extra or a
// duplicated atom fails.
void TestDescribeMismatch() {
  const std::vector<std::string> atoms = {"a(1)", "b(2)"};
  Expect(DescribeMismatch(atoms, atoms).empty(), "equal lists match");
  Expect(!DescribeMismatch(atoms, {"a(1)"}).empty(), "missing atom detected");
  Expect(!DescribeMismatch(atoms, {"a(1)", "b(2)", "c(3)"}).empty(),
         "extra atom detected");
  Expect(!DescribeMismatch(atoms, {"a(1)", "a(1)", "b(2)"}).empty(),
         "duplicate atom detected");
  Expect(!DescribeMismatch({}, {"a(1)"}).empty(), "answer for empty window");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTrafficProgramP();
  perfbench::TestTrafficProgramPPrime();
  perfbench::TestTrafficEmptyWindow();
  perfbench::TestCarFireNeedsSameCar();
  perfbench::TestReachCycle();
  perfbench::TestReachPathAndSelfLoop();
  perfbench::TestDescribeMismatch();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d reference check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("reference tests passed\n");
  return 0;
}

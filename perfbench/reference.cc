#include "reference.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <unordered_map>

namespace perfbench {

namespace {

std::string Render(const char* name, int64_t x) {
  return std::string(name) + "(" + std::to_string(x) + ")";
}

std::string Render(const char* name, int64_t x, int64_t y) {
  return std::string(name) + "(" + std::to_string(x) + "," +
         std::to_string(y) + ")";
}

}  // namespace

std::vector<std::string> TrafficShownAtoms(
    const std::vector<TrafficItem>& window, bool with_r7) {
  std::set<int64_t> very_slow_speed;
  std::set<int64_t> many_cars;
  std::set<int64_t> traffic_light;
  std::set<int64_t> smoke_high;
  std::set<int64_t> stopped;
  std::vector<std::pair<int64_t, int64_t>> locations;
  for (const TrafficItem& item : window) {
    switch (item.predicate) {
      case TrafficPredicate::kAverageSpeed:
        if (item.object < 20) very_slow_speed.insert(item.subject);
        break;
      case TrafficPredicate::kCarNumber:
        if (item.object > 40) many_cars.insert(item.subject);
        break;
      case TrafficPredicate::kTrafficLight:
        traffic_light.insert(item.subject);
        break;
      case TrafficPredicate::kCarInSmoke:
        if (item.object == kSmokeHigh) smoke_high.insert(item.subject);
        break;
      case TrafficPredicate::kCarSpeed:
        if (item.object == 0) stopped.insert(item.subject);
        break;
      case TrafficPredicate::kCarLocation:
        locations.emplace_back(item.subject, item.object);
        break;
    }
  }

  std::set<int64_t> car_fire;
  for (const auto& [car, place] : locations) {
    if (smoke_high.count(car) > 0 && stopped.count(car) > 0) {
      car_fire.insert(place);
    }
  }
  std::set<int64_t> traffic_jam;
  for (int64_t x : very_slow_speed) {
    if (many_cars.count(x) > 0 && traffic_light.count(x) == 0) {
      traffic_jam.insert(x);
    }
  }
  if (with_r7) {
    for (int64_t x : car_fire) {
      if (many_cars.count(x) > 0) traffic_jam.insert(x);
    }
  }
  std::set<int64_t> give_notification = traffic_jam;
  give_notification.insert(car_fire.begin(), car_fire.end());

  std::vector<std::string> shown;
  for (int64_t x : traffic_jam) shown.push_back(Render("traffic_jam", x));
  for (int64_t x : car_fire) shown.push_back(Render("car_fire", x));
  for (int64_t x : give_notification) {
    shown.push_back(Render("give_notification", x));
  }
  std::sort(shown.begin(), shown.end());
  return shown;
}

std::vector<std::string> ReachAlarms(const std::vector<ReachItem>& window) {
  std::unordered_map<int64_t, size_t> index;
  std::vector<int64_t> nodes;
  auto node = [&](int64_t id) {
    auto [it, inserted] = index.emplace(id, nodes.size());
    if (inserted) nodes.push_back(id);
    return it->second;
  };
  std::vector<std::pair<size_t, size_t>> links;
  std::set<size_t> high;
  for (const ReachItem& item : window) {
    if (item.is_link) {
      const size_t from = node(item.subject);
      links.emplace_back(from, node(item.object));
    } else {
      high.insert(node(item.subject));
    }
  }
  std::vector<std::vector<size_t>> successors(nodes.size());
  for (const auto& [from, to] : links) successors[from].push_back(to);

  std::vector<std::string> alarms;
  std::vector<char> reached(nodes.size());
  std::vector<size_t> frontier;
  for (size_t source : high) {
    // Nodes reachable over one or more links: the start node itself only
    // counts when a cycle leads back to it.
    std::fill(reached.begin(), reached.end(), 0);
    frontier.assign(successors[source].begin(), successors[source].end());
    while (!frontier.empty()) {
      const size_t at = frontier.back();
      frontier.pop_back();
      if (reached[at]) continue;
      reached[at] = 1;
      for (size_t next : successors[at]) {
        if (!reached[next]) frontier.push_back(next);
      }
    }
    for (size_t target : high) {
      if (reached[target]) {
        alarms.push_back(Render("alarm", nodes[source], nodes[target]));
      }
    }
  }
  std::sort(alarms.begin(), alarms.end());
  return alarms;
}

std::string DescribeMismatch(const std::vector<std::string>& expected,
                             const std::vector<std::string>& actual) {
  if (expected == actual) return "";
  std::vector<std::string> missing;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::vector<std::string> extra;
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::string out = "expected " + std::to_string(expected.size()) +
                    " atoms, got " + std::to_string(actual.size());
  if (!missing.empty()) out += "; missing " + missing.front();
  if (!extra.empty()) out += "; extra " + extra.front();
  if (missing.empty() && extra.empty()) out += "; duplicate atoms";
  return out;
}

}  // namespace perfbench

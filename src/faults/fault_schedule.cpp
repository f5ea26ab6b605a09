#include "faults/fault_schedule.hpp"

#include <algorithm>
#include <set>

namespace modcast::faults {

namespace {

std::string ms_str(util::TimePoint t) {
  return std::to_string(t / util::kMillisecond) + "ms";
}

}  // namespace

std::size_t FaultSchedule::crash_count() const {
  std::set<util::ProcessId> victims;
  for (const auto& c : crashes) victims.insert(c.p);
  for (const auto& c : instance_crashes) victims.insert(c.p);
  return victims.size();
}

util::TimePoint FaultSchedule::first_fault_at() const {
  util::TimePoint first = 0;
  bool any = false;
  auto consider = [&](util::TimePoint t) {
    if (!any || t < first) first = t;
    any = true;
  };
  for (const auto& c : crashes) consider(c.at);
  for (const auto& p : partitions) consider(p.at);
  for (const auto& w : drop_windows) consider(w.from_t);
  for (const auto& s : suspicions) consider(s.at);
  return first;
}

std::string FaultSchedule::summary() const {
  if (empty()) return "no faults";
  std::string out;
  auto append = [&](const std::string& s) {
    if (!out.empty()) out += ", ";
    out += s;
  };
  for (const auto& c : crashes) {
    append("crash p" + std::to_string(c.p) + "@" + ms_str(c.at));
  }
  for (const auto& c : instance_crashes) {
    append("crash p" + std::to_string(c.p) + "@inst" +
           std::to_string(c.instance));
  }
  for (const auto& p : partitions) {
    std::string island;
    for (auto q : p.island) {
      if (!island.empty()) island += "|";
      island += "p";  // not `"p" + ...`: GCC 12 -Wrestrict
      island += std::to_string(q);
    }
    append("cut {" + island + "} " + ms_str(p.at) + "-" +
           (p.heal > 0 ? ms_str(p.heal) : std::string("forever")));
  }
  for (const auto& w : drop_windows) {
    append("drop " + std::to_string(static_cast<int>(w.probability * 100)) +
           "% " + ms_str(w.from_t) + "-" + ms_str(w.to_t));
  }
  for (const auto& s : suspicions) {
    append("churn v=p" + std::to_string(s.victim) + " x" +
           std::to_string(s.repeat) + "@" + ms_str(s.at));
  }
  return out;
}

}  // namespace modcast::faults

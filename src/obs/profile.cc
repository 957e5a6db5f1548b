#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

namespace gdlog {

namespace {
thread_local ChaseProfile* g_profile_sink = nullptr;
}  // namespace

void RuleProfile::Add(const RuleProfile& other) {
  calls += other.calls;
  bindings += other.bindings;
  derivations += other.derivations;
  time_ns += other.time_ns;
  if (stratum < 0) stratum = other.stratum;
}

void DepthProfile::Add(const DepthProfile& other) {
  nodes += other.nodes;
  ground_time_ns += other.ground_time_ns;
  solve_time_ns += other.solve_time_ns;
}

RuleProfile& ChaseProfile::Rule(size_t index) {
  if (rules.size() <= index) rules.resize(index + 1);
  return rules[index];
}

DepthProfile& ChaseProfile::Depth(size_t depth) {
  if (depths.size() <= depth) depths.resize(depth + 1);
  return depths[depth];
}

void ChaseProfile::Merge(const ChaseProfile& other) {
  if (rules.size() < other.rules.size()) rules.resize(other.rules.size());
  for (size_t i = 0; i < other.rules.size(); ++i) rules[i].Add(other.rules[i]);
  if (depths.size() < other.depths.size()) depths.resize(other.depths.size());
  for (size_t i = 0; i < other.depths.size(); ++i) {
    depths[i].Add(other.depths[i]);
  }
  nodes += other.nodes;
  ground_calls += other.ground_calls;
  ground_time_ns += other.ground_time_ns;
  branch_time_ns += other.branch_time_ns;
  release_time_ns += other.release_time_ns;
  solve_calls += other.solve_calls;
  solve_nodes += other.solve_nodes;
  solve_time_ns += other.solve_time_ns;
}

ProfileScope::ProfileScope(ChaseProfile* sink) : saved_(g_profile_sink) {
  g_profile_sink = sink;
}

ProfileScope::~ProfileScope() { g_profile_sink = saved_; }

ChaseProfile* ProfileScope::Current() { return g_profile_sink; }

std::string FormatChaseProfileTable(
    const ChaseProfile& profile, const std::vector<std::string>& rule_labels) {
  std::string out;
  char line[256];
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::snprintf(line, sizeof(line),
                "chase profile: %llu nodes, ground %llu calls %.3f ms "
                "(branch %.3f ms), release %.3f ms, "
                "solve %llu calls %.3f ms, solve_nodes %llu "
                "(times non-deterministic)\n",
                static_cast<unsigned long long>(profile.nodes),
                static_cast<unsigned long long>(profile.ground_calls),
                ms(profile.ground_time_ns), ms(profile.branch_time_ns),
                ms(profile.release_time_ns),
                static_cast<unsigned long long>(profile.solve_calls),
                ms(profile.solve_time_ns),
                static_cast<unsigned long long>(profile.solve_nodes));
  out += line;
  std::snprintf(line, sizeof(line), "%10s %8s %10s %12s %12s %12s  %s\n",
                "time_ms", "stratum", "calls", "bindings", "derived", "",
                "rule");
  out += line;

  std::vector<size_t> order;
  for (size_t i = 0; i < profile.rules.size(); ++i) {
    if (profile.rules[i].calls != 0 || profile.rules[i].derivations != 0) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return profile.rules[a].time_ns > profile.rules[b].time_ns;
  });
  for (size_t i : order) {
    const RuleProfile& r = profile.rules[i];
    char stratum[16];
    if (r.stratum >= 0) {
      std::snprintf(stratum, sizeof(stratum), "%d", r.stratum);
    } else {
      std::snprintf(stratum, sizeof(stratum), "-");
    }
    std::string label =
        i < rule_labels.size() ? rule_labels[i] : "r" + std::to_string(i);
    std::snprintf(line, sizeof(line), "%10.3f %8s %10llu %12llu %12llu %12s  ",
                  ms(r.time_ns), stratum,
                  static_cast<unsigned long long>(r.calls),
                  static_cast<unsigned long long>(r.bindings),
                  static_cast<unsigned long long>(r.derivations), "");
    out += line;
    out += label;
    out += '\n';
  }

  for (size_t d = 0; d < profile.depths.size(); ++d) {
    const DepthProfile& dp = profile.depths[d];
    if (dp.nodes == 0) continue;
    std::snprintf(line, sizeof(line),
                  "depth %3zu: %llu nodes, ground %.3f ms, solve %.3f ms\n", d,
                  static_cast<unsigned long long>(dp.nodes),
                  ms(dp.ground_time_ns), ms(dp.solve_time_ns));
    out += line;
  }
  return out;
}

}  // namespace gdlog

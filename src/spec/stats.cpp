#include "spec/stats.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace scv::spec
{
  double ExplorationStats::states_per_minute() const
  {
    return states_per_second() * 60.0;
  }

  double ExplorationStats::states_per_second() const
  {
    if (seconds <= 0.0)
    {
      return 0.0;
    }
    return static_cast<double>(generated_states) / seconds;
  }

  std::string ExplorationStats::summary() const
  {
    std::ostringstream os;
    os << "distinct=" << distinct_states << " generated=" << generated_states
       << " transitions=" << transitions << " duplicates=" << duplicate_states
       << " memo_hits=" << memo_hits;
    if (seeded_states > 0)
    {
      // Campaign-only field; standalone summaries are unchanged.
      os << " seeded=" << seeded_states;
    }
    if (canonicalized_states > 0)
    {
      // Symmetry-only fields; symmetry-off summaries are unchanged.
      os << " canonicalized=" << canonicalized_states
         << " symmetry_hits=" << symmetry_hits;
    }
    if (store_bytes > 0)
    {
      os << " store_bytes=" << store_bytes;
      if (spilled_bytes > 0)
      {
        os << " spilled_bytes=" << spilled_bytes;
      }
      os << " rehashes=" << rehash_count;
    }
    os << " depth=" << max_depth << " seconds=" << seconds
       << " states/min=" << states_per_minute()
       << (complete ? " (complete)" : " (bounded)");
    return os.str();
  }

  void ExplorationStats::absorb_counts(const ExplorationStats& other)
  {
    generated_states += other.generated_states;
    transitions += other.transitions;
    duplicate_states += other.duplicate_states;
    memo_hits += other.memo_hits;
    seeded_states += other.seeded_states;
    canonicalized_states += other.canonicalized_states;
    symmetry_hits += other.symmetry_hits;
    max_depth = std::max(max_depth, other.max_depth);
    // Store metrics are snapshots of a (possibly shared) store, not
    // per-run counters: merging takes the largest snapshot.
    store_bytes = std::max(store_bytes, other.store_bytes);
    spilled_bytes = std::max(spilled_bytes, other.spilled_bytes);
    rehash_count = std::max(rehash_count, other.rehash_count);
    for (const auto& [name, count] : other.action_coverage)
    {
      action_coverage[name] += count;
    }
  }

  std::string ExplorationStats::coverage_report() const
  {
    std::vector<std::pair<std::string, uint64_t>> rows(
      action_coverage.begin(), action_coverage.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    std::ostringstream os;
    for (const auto& [name, count] : rows)
    {
      os << "  " << name << ": " << count << "\n";
    }
    return os.str();
  }
}

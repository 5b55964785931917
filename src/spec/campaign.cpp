#include "spec/campaign.h"

#include <iomanip>
#include <sstream>

#include "util/json.h"

namespace scv::spec
{
  std::string CampaignReport::summary() const
  {
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    os << "phase       ran ok  allotted  used      new-states  distinct  "
          "seeded\n";
    for (const PhaseReport& p : phases)
    {
      os << std::left << std::setw(12) << engine_name(p.engine)
         << std::setw(4) << (p.ran ? "yes" : "no") << std::setw(4)
         << (!p.ran ? "-" : p.ok ? "yes" : "NO") << std::right << std::setw(7)
         << p.allotted_seconds << "s " << std::setw(8) << p.stats.seconds
         << "s " << std::setw(11) << p.store_new << " " << std::setw(9)
         << p.stats.distinct_states << " " << std::setw(7)
         << p.stats.seeded_states << "\n";
    }
    os << "union: " << union_distinct << " distinct states in "
       << total_seconds << "s of a " << box_seconds << "s box\n";
    return os.str();
  }

  json::Value CampaignReport::to_json_value() const
  {
    json::Array phase_rows;
    for (const PhaseReport& p : phases)
    {
      phase_rows.push_back(json::object(
        {{"engine", engine_name(p.engine)},
         {"ran", p.ran},
         {"ok", p.ok},
         {"allotted_seconds", p.allotted_seconds},
         {"seconds", p.stats.seconds},
         {"budget_seconds", p.stats.budget_seconds},
         {"store_new", p.store_new},
         {"distinct_states", p.stats.distinct_states},
         {"generated_states", p.stats.generated_states},
         {"seeded_states", p.stats.seeded_states},
         {"canonicalized_states", p.stats.canonicalized_states},
         {"symmetry_hits", p.stats.symmetry_hits},
         {"fp_collision_probability", p.stats.fp_collision_probability},
         {"peak_frontier_bytes", p.stats.peak_frontier_bytes},
         {"complete", p.stats.complete}}));
    }
    return json::object(
      {{"phases", std::move(phase_rows)},
       {"union_distinct", union_distinct},
       {"total_seconds", total_seconds},
       {"box_seconds", box_seconds}});
  }

  std::string CampaignReport::to_json() const
  {
    return to_json_value().dump();
  }
}

// The reference for trace-validation witnesses: a witness is a behavior
// of the spec conjoined with the trace when it holds the initial state
// and one state per line, starts at an initial state, and each step is a
// successor of the one before it under the fault closure followed by the
// step's line (IsFault · Next, Listing 5).
#pragma once

#include <algorithm>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "spec/expander.h"
#include "spec/trace_validator.h"

namespace scv::test
{
  template <spec::SpecState S>
  ::testing::AssertionResult is_trace_behavior(
    const std::vector<S>& witness,
    const std::vector<S>& init,
    const std::vector<spec::TraceLineExpander<S>>& lines,
    std::type_identity_t<std::function<void(const S&, const spec::Emit<S>&)>>
      fault = {},
    size_t max_faults_per_step = 0)
  {
    if (witness.size() != lines.size() + 1)
    {
      return ::testing::AssertionFailure()
        << "witness has " << witness.size() << " states for "
        << lines.size() << " lines";
    }
    if (std::find(init.begin(), init.end(), witness.front()) == init.end())
    {
      return ::testing::AssertionFailure()
        << "witness does not start at an initial state";
    }
    spec::Expander<S> expander;
    expander.set_fault(std::move(fault), max_faults_per_step);
    for (size_t i = 0; i < lines.size(); ++i)
    {
      bool found = false;
      expander.with_faults(witness[i], [&](const S& pre) {
        lines[i].expand(pre, [&](S&& succ) {
          found = found || succ == witness[i + 1];
        });
      });
      if (!found)
      {
        return ::testing::AssertionFailure()
          << "witness step " << i + 1 << " is not a successor of step " << i
          << " under " << lines[i].description;
      }
    }
    return ::testing::AssertionSuccess();
  }
}

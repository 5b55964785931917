// A spec state that counts its copies, moves and live instances, for
// tests that pin where the engines copy states and that the checker's
// level arena destroys every body it built.
#pragma once

#include <string>

#include "util/hash.h"

namespace scv::test
{
  struct CountedState
  {
    /// -1 marks a moved-from state.
    int value = 0;

    static inline int copies = 0;
    static inline int moves = 0;
    static inline int live = 0;

    static void reset_counts()
    {
      copies = 0;
      moves = 0;
    }

    CountedState(int v = 0) : value(v) // NOLINT: CountedState{5}
    {
      ++live;
    }

    CountedState(const CountedState& other) : value(other.value)
    {
      ++copies;
      ++live;
    }

    CountedState(CountedState&& other) noexcept : value(other.value)
    {
      other.value = -1;
      ++moves;
      ++live;
    }

    CountedState& operator=(const CountedState& other)
    {
      value = other.value;
      ++copies;
      return *this;
    }

    CountedState& operator=(CountedState&& other) noexcept
    {
      value = other.value;
      other.value = -1;
      ++moves;
      return *this;
    }

    ~CountedState()
    {
      --live;
    }

    bool operator==(const CountedState& other) const
    {
      return value == other.value;
    }

    void serialize(ByteSink& sink) const
    {
      sink.u64(static_cast<uint64_t>(value));
    }

    [[nodiscard]] std::string to_string() const
    {
      return "counted=" + std::to_string(value);
    }
  };
}

// Allocation budget of the checker's successor path. This binary replaces
// the global operator new with a counting one, so it stands alone: the
// count covers everything one Table-1 check allocates, from action
// expansion through fingerprinting and the store to the level barriers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "spec/model_checker.h"
#include "specs/consensus/spec.h"

namespace
{
  std::atomic<uint64_t> allocations{0};

  void* counted_alloc(std::size_t n)
  {
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
    {
      return p;
    }
    throw std::bad_alloc();
  }

  void* counted_aligned_alloc(std::size_t n, std::align_val_t al)
  {
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto align = static_cast<std::size_t>(al);
    const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
    if (void* p = std::aligned_alloc(align, size))
    {
      return p;
    }
    throw std::bad_alloc();
  }
}

void* operator new(std::size_t n)
{
  return counted_alloc(n);
}

void* operator new[](std::size_t n)
{
  return counted_alloc(n);
}

void* operator new(std::size_t n, std::align_val_t al)
{
  return counted_aligned_alloc(n, al);
}

void* operator new[](std::size_t n, std::align_val_t al)
{
  return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept
{
  std::free(p);
}

void operator delete[](void* p) noexcept
{
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept
{
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept
{
  std::free(p);
}

void operator delete(void* p, std::align_val_t) noexcept
{
  std::free(p);
}

void operator delete[](void* p, std::align_val_t) noexcept
{
  std::free(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
  std::free(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
  std::free(p);
}

using namespace scv;
using namespace scv::spec;
using specs::ccfraft::State;

TEST(AllocBudget, EmitAllocatesNothing)
{
  int sum = 0;
  int a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  const uint64_t before = allocations.load();
  // Eight captured references: the largest callable Emit holds inline.
  const Emit<State> emit = [&](State&& s) {
    sum += s.n_nodes + a + b + c + d + e + f + g;
  };
  const Emit<State> copy = emit;
  copy(State{});
  emit(State{});
  EXPECT_EQ(allocations.load(), before);
  EXPECT_EQ(sum, 2 * 28);
}

TEST(AllocBudget, Table1CheckStaysAtMostOnePerDistinctState)
{
  // The Table-1 model (bench/table1_consensus, perfbench modelcheck).
  specs::ccfraft::Params p;
  p.n_nodes = 2;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  const auto spec = specs::ccfraft::build_spec(p);
  CheckLimits limits;
  limits.threads = 1;
  limits.time_budget_seconds = 600.0;

  const uint64_t before = allocations.load();
  const auto result = model_check(spec, limits);
  const uint64_t used = allocations.load() - before;

  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.stats.distinct_states, 546'356u);
  const double per_state =
    static_cast<double>(used) / static_cast<double>(546'356);
  std::cout << "allocations: " << used << " (" << per_state
            << " per distinct state)\n";
  // The path measures 0.22: a successor copy allocates nothing while
  // its logs, messages, nodes and network fit inline (State's SmallVec
  // capacities). Heap-backed State vectors measured 12.2, and wrapping the
  // checker's emit callback in a std::function per (state, action) alone
  // adds about 5 per state.
  EXPECT_LE(per_state, 1.0);
}

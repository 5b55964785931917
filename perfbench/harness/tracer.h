// Span tracer for the traced benchmark run.
//
// Spans are recorded from the harness, around calls into the layers'
// public functions (and around the std::function hooks a SpecDef or a
// TraceValidator hands to the engines). Each thread keeps its own
// aggregates (calls, total, self) plus, for spans registered with
// samples, every call's duration; snapshot() merges the threads. Self
// time is a span's duration minus the time its child spans cover on the
// same thread.
//
// Nothing is recorded while the tracer is disabled, so the untraced runs
// pay one predictable branch per Span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] inline double seconds_since(Clock::time_point start)
  {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  struct SpanTotals
  {
    std::string name;
    uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    /// Per-call durations in seconds (spans registered with samples).
    std::vector<double> samples;
  };

  namespace tracer
  {
    /// Registers a span name (idempotent) and returns its id. Call before
    /// any worker thread records it.
    int id(const std::string& name, bool keep_samples = false);

    void set_enabled(bool on);
    [[nodiscard]] bool enabled();

    /// Drops every recorded span (names stay registered).
    void reset();

    /// Merged totals of every registered span, in registration order.
    [[nodiscard]] std::vector<SpanTotals> snapshot();

    /// The totals named `name`; empty totals when there are none.
    [[nodiscard]] SpanTotals find(
      const std::vector<SpanTotals>& totals, const std::string& name);

    /// Writes the merged totals as JSON.
    bool write_json(const std::string& path, const std::string& header);

    void enter();
    /// Closes the innermost span, attributing it to `id` (which may
    /// differ from the id it was opened with; see Span::retarget).
    void leave(int id);
  }

  /// RAII span. retarget() files the span under another name when what
  /// the call did is only known after it returns (e.g. a submit that
  /// closed a signature batch).
  class Span
  {
  public:
    explicit Span(int id) : id_(id), on_(tracer::enabled())
    {
      if (on_)
      {
        tracer::enter();
      }
    }

    ~Span()
    {
      if (on_)
      {
        tracer::leave(id_);
      }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void retarget(int id)
    {
      id_ = id;
    }

  private:
    int id_;
    bool on_;
  };
}

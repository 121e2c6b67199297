/**
 * @file
 * Span recorder for the traced replay. The benchmark times calls into
 * each layer's public functions from outside the library: every call
 * gets a span (name, start, end, parent span, op id), spans stay in
 * memory, and the run writes them out as a Chrome trace when it ends.
 * A span name is "<layer>.<what>"; a layer's self time is its spans'
 * durations minus the part their child spans cover.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    /** Per span name: summed duration and summed self time. */
    struct Totals
    {
        double total_s = 0.0;
        double self_s = 0.0;
    };

    /** Open op @p op's root span; every span until end_op() is its. */
    void begin_op(int op);
    void end_op();

    /** Run @p fn inside a span named @p name (a static string). */
    template <class F>
    decltype(auto)
    span(const char *name, F &&fn)
    {
        const Scope scope(*this, name);
        return fn();
    }

    /**
     * Record a child of the innermost open span whose duration the
     * library measured itself (a LoadStats split, an outcome's game
     * seconds). Children are laid out back to back from the parent's
     * start, so only their durations are real.
     */
    void child(const char *name, double seconds);

    /** Totals by span name; the root spans are under "op". */
    std::map<std::string, Totals> totals() const;

    /** Totals of self time by layer (span-name prefix before '.'). */
    std::map<std::string, double> layer_self_seconds() const;

    /** Number of ops traced. */
    std::size_t ops() const { return ops_; }

    /** Write every span as Chrome trace_event JSON to @p path. */
    bool write_chrome_json(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = "";
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::uint64_t cursor_ns = 0;  ///< where the next child() starts
        int parent = -1;
        int op = -1;
        bool measured = true;  ///< false for child() spans
    };

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name)
            : tracer_(tracer), id_(tracer.open(name))
        {
        }
        ~Scope() { tracer_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_;
    };

    int open(const char *name);
    void close(int id);
    std::vector<double> self_times() const;

    std::vector<Span> spans_;
    int current_ = -1;
    int op_ = -1;
    std::size_t ops_ = 0;
};

}  // namespace perfbench

#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "support/trace.h"

namespace perfbench {

int
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.start_ns = firmup::trace::wall_ns();
    span.cursor_ns = span.start_ns;
    span.parent = current_;
    span.op = op_;
    spans_.push_back(span);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int id)
{
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = firmup::trace::wall_ns();
    current_ = span.parent;
}

void
Tracer::begin_op(int op)
{
    op_ = op;
    open("op");
}

void
Tracer::end_op()
{
    close(current_);
    op_ = -1;
    ++ops_;
}

void
Tracer::child(const char *name, double seconds)
{
    Span &parent = spans_[static_cast<std::size_t>(current_)];
    Span span;
    span.name = name;
    span.start_ns = parent.cursor_ns;
    span.end_ns = span.start_ns +
                  static_cast<std::uint64_t>(std::max(seconds, 0.0) * 1e9);
    parent.cursor_ns = span.end_ns;
    span.cursor_ns = span.start_ns;
    span.parent = current_;
    span.op = op_;
    span.measured = false;
    spans_.push_back(span);
}

std::vector<double>
Tracer::self_times() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) *
                  1e-9;
    }
    for (const Span &span : spans_) {
        if (span.parent >= 0) {
            self[static_cast<std::size_t>(span.parent)] -=
                static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
        }
    }
    for (double &s : self) {
        s = std::max(s, 0.0);
    }
    return self;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    const std::vector<double> self = self_times();
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Totals &t = out[spans_[i].name];
        t.total_s +=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
        t.self_s += self[i];
    }
    return out;
}

std::map<std::string, double>
Tracer::layer_self_seconds() const
{
    std::map<std::string, double> out;
    for (const auto &[name, t] : totals()) {
        const std::size_t dot = name.find('.');
        if (dot != std::string::npos) {
            out[name.substr(0, dot)] += t.self_s;
        }
    }
    return out;
}

bool
Tracer::write_chrome_json(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return false;
    }
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char buf[256];
        std::snprintf(
            buf, sizeof buf,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
            "\"op\":%d,\"measured\":%s}}",
            i == 0 ? "" : ",", span.name,
            static_cast<double>(span.start_ns) * 1e-3,
            static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
            span.parent, span.op, span.measured ? "true" : "false");
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench

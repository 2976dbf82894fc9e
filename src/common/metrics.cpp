#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace aa {

namespace {

// Locale-independent shortest-round-trip double formatting. %.17g is always
// enough for a bit-exact parse back; try shorter forms first so exported
// files stay readable (0.25 instead of 0.25000000000000000).
std::string format_double(double v) {
    char buf[64];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    return buf;
}

bool same_instrument(const MetricsRegistry::CounterValue& c,
                     std::string_view name, std::int32_t rank, bool gauge) {
    return c.is_gauge == gauge && c.rank == rank && c.name == name;
}

}  // namespace

MetricsRegistry::Handle MetricsRegistry::counter(std::string_view name,
                                                std::int32_t rank) {
    if (!enabled_) return kNullHandle;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        if (same_instrument(counters_[i], name, rank, false)) {
            return static_cast<Handle>(i);
        }
    }
    counters_.push_back({std::string(name), rank, 0.0, false});
    return static_cast<Handle>(counters_.size() - 1);
}

MetricsRegistry::Handle MetricsRegistry::gauge(std::string_view name,
                                               std::int32_t rank) {
    if (!enabled_) return kNullHandle;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        if (same_instrument(counters_[i], name, rank, true)) {
            return static_cast<Handle>(i);
        }
    }
    counters_.push_back({std::string(name), rank, 0.0, true});
    return static_cast<Handle>(counters_.size() - 1);
}

void MetricsRegistry::add(Handle h, double delta) {
    if (!enabled_ || h == kNullHandle) return;
    AA_ASSERT_MSG(h < counters_.size(), "unknown metrics handle");
    counters_[h].value += delta;
}

void MetricsRegistry::set(Handle h, double value) {
    if (!enabled_ || h == kNullHandle) return;
    AA_ASSERT_MSG(h < counters_.size(), "unknown metrics handle");
    counters_[h].value = value;
}

double MetricsRegistry::value(Handle h) const {
    if (h == kNullHandle || h >= counters_.size()) return 0.0;
    return counters_[h].value;
}

MetricsRegistry::Handle MetricsRegistry::histogram(
    std::string_view name, std::span<const double> bounds) {
    if (!enabled_) return kNullHandle;
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
        if (histograms_[i].name == name) return static_cast<Handle>(i);
    }
    HistogramValue h;
    h.name = std::string(name);
    h.bounds.assign(bounds.begin(), bounds.end());
    h.counts.assign(bounds.size() + 1, 0);
    histograms_.push_back(std::move(h));
    return static_cast<Handle>(histograms_.size() - 1);
}

void MetricsRegistry::observe(Handle h, double value) {
    if (!enabled_ || h == kNullHandle) return;
    AA_ASSERT_MSG(h < histograms_.size(), "unknown metrics handle");
    HistogramValue& hist = histograms_[h];
    std::size_t bucket = 0;
    while (bucket < hist.bounds.size() && value > hist.bounds[bucket]) {
        ++bucket;
    }
    ++hist.counts[bucket];
    hist.sum += value;
    ++hist.observations;
}

MetricsRegistry::Handle MetricsRegistry::span_open(std::string_view name,
                                                   std::int32_t rank,
                                                   std::int64_t step,
                                                   double t_begin) {
    if (!enabled_) return kNullHandle;
    MetricSpan span;
    span.name = std::string(name);
    span.rank = rank;
    span.step = step;
    span.depth = static_cast<std::uint32_t>(open_stack_.size());
    span.parent = open_stack_.empty()
                      ? -1
                      : static_cast<std::int64_t>(open_stack_.back());
    span.t_begin = t_begin;
    span.t_end = t_begin;
    spans_.push_back(std::move(span));
    Handle h = static_cast<Handle>(spans_.size() - 1);
    open_stack_.push_back(h);
    return h;
}

void MetricsRegistry::span_add(Handle h, double ops, std::uint64_t bytes,
                               std::uint64_t messages) {
    if (!enabled_ || h == kNullHandle) return;
    AA_ASSERT_MSG(h < spans_.size(), "unknown metrics handle");
    spans_[h].ops += ops;
    spans_[h].bytes += bytes;
    spans_[h].messages += messages;
}

void MetricsRegistry::span_attr(Handle h, std::string_view key,
                                std::string value) {
    if (!enabled_ || h == kNullHandle) return;
    AA_ASSERT_MSG(h < spans_.size(), "unknown metrics handle");
    spans_[h].attrs.emplace_back(std::string(key), std::move(value));
}

void MetricsRegistry::span_close(Handle h, double t_end) {
    if (!enabled_ || h == kNullHandle) return;
    AA_ASSERT_MSG(!open_stack_.empty() && open_stack_.back() == h,
                  "spans must close LIFO");
    open_stack_.pop_back();
    spans_[h].t_end = t_end;
}

void MetricsRegistry::record_span(MetricSpan span) {
    if (!enabled_) return;
    span.depth = static_cast<std::uint32_t>(open_stack_.size());
    span.parent = open_stack_.empty()
                      ? -1
                      : static_cast<std::int64_t>(open_stack_.back());
    spans_.push_back(std::move(span));
}

MetricSpan stamp_span(std::string_view name, std::int32_t rank,
                      std::int64_t step, double t_begin, double t_end,
                      double ops,
                      std::vector<std::pair<std::string, std::string>> attrs) {
    MetricSpan span;
    span.name = std::string(name);
    span.rank = rank;
    span.step = step;
    span.t_begin = t_begin;
    span.t_end = t_end;
    span.ops = ops;
    span.attrs = std::move(attrs);
    return span;
}

std::vector<MetricsRegistry::CounterValue> MetricsRegistry::counters() const {
    return counters_;
}

std::vector<MetricsRegistry::HistogramValue> MetricsRegistry::histograms()
    const {
    return histograms_;
}

void MetricsRegistry::clear() {
    spans_.clear();
    open_stack_.clear();
    counters_.clear();
    histograms_.clear();
}

// ---- exporters -------------------------------------------------------------

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string span_to_json(const MetricSpan& s) {
    std::string out = "{\"name\":\"" + json_escape(s.name) + "\"";
    out += ",\"rank\":" + std::to_string(s.rank);
    out += ",\"step\":" + std::to_string(s.step);
    out += ",\"depth\":" + std::to_string(s.depth);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"t_begin\":" + format_double(s.t_begin);
    out += ",\"t_end\":" + format_double(s.t_end);
    out += ",\"ops\":" + format_double(s.ops);
    out += ",\"bytes\":" + std::to_string(s.bytes);
    out += ",\"messages\":" + std::to_string(s.messages);
    if (!s.attrs.empty()) {
        out += ",\"attrs\":{";
        bool first = true;
        for (const auto& [k, v] : s.attrs) {
            if (!first) out += ",";
            first = false;
            out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
        }
        out += "}";
    }
    out += "}";
    return out;
}

std::string spans_to_json(std::span<const MetricSpan> spans, int indent) {
    std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        out += (i == 0 ? "\n" : ",\n");
        out += pad + span_to_json(spans[i]);
    }
    if (!spans.empty()) out += "\n" + std::string(pad.size() >= 2 ? pad.size() - 2 : 0, ' ');
    out += "]";
    return out;
}

namespace {

/// The registry dump with `span_block` ("\"key\": value") in place of the
/// span stream.
std::string registry_to_json(const MetricsRegistry& m, int indent,
                             const std::string& span_block) {
    std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
    std::string inner = pad + "  ";
    std::string out = "{\n";
    out += inner + "\"enabled\": " + (m.enabled() ? "true" : "false") + ",\n";
    out += inner + span_block + ",\n";
    out += inner + "\"counters\": [";
    const auto counters = m.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        out += (i == 0 ? "\n" : ",\n");
        out += inner + "  {\"name\":\"" + json_escape(counters[i].name) +
               "\",\"rank\":" + std::to_string(counters[i].rank) +
               ",\"kind\":\"" + (counters[i].is_gauge ? "gauge" : "counter") +
               "\",\"value\":" + format_double(counters[i].value) + "}";
    }
    if (!counters.empty()) out += "\n" + inner;
    out += "],\n";
    out += inner + "\"histograms\": [";
    const auto hists = m.histograms();
    for (std::size_t i = 0; i < hists.size(); ++i) {
        out += (i == 0 ? "\n" : ",\n");
        out += inner + "  {\"name\":\"" + json_escape(hists[i].name) +
               "\",\"bounds\":[";
        for (std::size_t b = 0; b < hists[i].bounds.size(); ++b) {
            if (b) out += ",";
            out += format_double(hists[i].bounds[b]);
        }
        out += "],\"counts\":[";
        for (std::size_t b = 0; b < hists[i].counts.size(); ++b) {
            if (b) out += ",";
            out += std::to_string(hists[i].counts[b]);
        }
        out += "],\"sum\":" + format_double(hists[i].sum) +
               ",\"observations\":" + std::to_string(hists[i].observations) +
               "}";
    }
    if (!hists.empty()) out += "\n" + inner;
    out += "]\n" + pad + "}";
    return out;
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& m, int indent) {
    return registry_to_json(m, indent,
                            "\"spans\": " + spans_to_json(m.spans(), indent + 4));
}

std::string metrics_summary_to_json(const MetricsRegistry& m, int indent) {
    std::vector<std::string> names;
    std::vector<std::vector<double>> durations;
    for (const MetricSpan& span : m.spans()) {
        const auto it = std::find(names.begin(), names.end(), span.name);
        const auto i = static_cast<std::size_t>(it - names.begin());
        if (it == names.end()) {
            names.push_back(span.name);
            durations.emplace_back();
        }
        durations[i].push_back(span.t_end - span.t_begin);
    }
    const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent) + 4, ' ');
    std::string block = "\"span_summary\": [";
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::vector<double>& d = durations[i];
        std::sort(d.begin(), d.end());
        // Nearest-rank percentile over the sorted durations.
        const auto rank = [&d](double q) {
            const auto r = static_cast<std::size_t>(
                std::ceil(q * static_cast<double>(d.size())));
            return d[r == 0 ? 0 : r - 1];
        };
        block += (i == 0 ? "\n" : ",\n");
        block += pad + "{\"name\":\"" + json_escape(names[i]) +
                 "\",\"count\":" + std::to_string(d.size()) +
                 ",\"p50\":" + format_double(rank(0.50)) +
                 ",\"p99\":" + format_double(rank(0.99)) +
                 ",\"max\":" + format_double(d.back()) + "}";
    }
    if (!names.empty()) block += "\n" + pad.substr(2);
    block += "]";
    return registry_to_json(m, indent, block);
}

namespace {

// Percent-escape the CSV/attr delimiter set so attr keys/values survive the
// `k=v;k=v` packing inside one comma-separated field.
std::string attr_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%' || c == ',' || c == ';' || c == '=' || c == '\n' ||
            c == '\r') {
            char buf[4];
            std::snprintf(buf, sizeof buf, "%%%02X",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string attr_unescape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            char hex[3] = {s[i + 1], s[i + 2], '\0'};
            out += static_cast<char>(std::strtoul(hex, nullptr, 16));
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
    std::vector<std::string_view> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            parts.push_back(s.substr(start));
            break;
        }
        parts.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

}  // namespace

std::string spans_to_csv(std::span<const MetricSpan> spans) {
    std::string out =
        "name,rank,step,depth,parent,t_begin,t_end,ops,bytes,messages,attrs\n";
    for (const MetricSpan& s : spans) {
        out += attr_escape(s.name);
        out += "," + std::to_string(s.rank);
        out += "," + std::to_string(s.step);
        out += "," + std::to_string(s.depth);
        out += "," + std::to_string(s.parent);
        out += "," + format_double(s.t_begin);
        out += "," + format_double(s.t_end);
        out += "," + format_double(s.ops);
        out += "," + std::to_string(s.bytes);
        out += "," + std::to_string(s.messages);
        out += ",";
        for (std::size_t i = 0; i < s.attrs.size(); ++i) {
            if (i) out += ";";
            out += attr_escape(s.attrs[i].first) + "=" +
                   attr_escape(s.attrs[i].second);
        }
        out += "\n";
    }
    return out;
}

std::vector<MetricSpan> spans_from_csv(std::string_view csv) {
    std::vector<MetricSpan> spans;
    bool header = true;
    for (std::string_view line : split(csv, '\n')) {
        if (header) {
            header = false;
            continue;
        }
        if (line.empty()) continue;
        auto fields = split(line, ',');
        if (fields.size() != 11) continue;
        MetricSpan s;
        s.name = attr_unescape(fields[0]);
        s.rank = static_cast<std::int32_t>(
            std::strtol(std::string(fields[1]).c_str(), nullptr, 10));
        s.step = std::strtoll(std::string(fields[2]).c_str(), nullptr, 10);
        s.depth = static_cast<std::uint32_t>(
            std::strtoul(std::string(fields[3]).c_str(), nullptr, 10));
        s.parent = std::strtoll(std::string(fields[4]).c_str(), nullptr, 10);
        s.t_begin = std::strtod(std::string(fields[5]).c_str(), nullptr);
        s.t_end = std::strtod(std::string(fields[6]).c_str(), nullptr);
        s.ops = std::strtod(std::string(fields[7]).c_str(), nullptr);
        s.bytes = std::strtoull(std::string(fields[8]).c_str(), nullptr, 10);
        s.messages =
            std::strtoull(std::string(fields[9]).c_str(), nullptr, 10);
        if (!fields[10].empty()) {
            for (std::string_view pair : split(fields[10], ';')) {
                std::size_t eq = pair.find('=');
                if (eq == std::string_view::npos) continue;
                s.attrs.emplace_back(attr_unescape(pair.substr(0, eq)),
                                     attr_unescape(pair.substr(eq + 1)));
            }
        }
        spans.push_back(std::move(s));
    }
    return spans;
}

}  // namespace aa

/**
 * @file
 * Minimal JSON document parser.
 *
 * The observability stack *writes* JSON through JsonWriter
 * (sim/stats_export.hh); the perf-baseline tooling also needs to
 * *read* it back: bench/perf_baseline collects the per-bench
 * `--perf-json` files and tools/bench_report diffs two committed
 * `BENCH_<date>.json` baselines. This is a strict recursive-descent
 * parser for that closed world — no comments, no trailing commas, no
 * NaN/Inf, whitespace limited to space/tab/CR/LF, nesting at most 64
 * deep. It is the repo's one JSON reader: jsonLooksValid() is a parse
 * that discards the result.
 *
 * Object members preserve insertion order so a parse → re-emit round
 * trip of a baseline file is stable under diff.
 */

#ifndef HYPERTEE_SIM_JSON_HH
#define HYPERTEE_SIM_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hypertee
{

/** One parsed JSON value; a tagged union over the seven JSON kinds. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /**
     * Parse a complete document. Returns std::nullopt when @p text is
     * not a single well-formed JSON value (with only whitespace
     * around it).
     */
    static std::optional<JsonValue> parse(const std::string &text);

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    bool boolean() const { return _bool; }
    double number() const { return _number; }
    const std::string &string() const { return _string; }
    const std::vector<JsonValue> &array() const { return _array; }

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return _members;
    }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Convenience: member's number, or @p fallback when absent. */
    double numberAt(const std::string &key, double fallback = 0) const;

    /** Convenience: member's string, or @p fallback when absent. */
    std::string stringAt(const std::string &key,
                         const std::string &fallback = "") const;

  private:
    friend struct JsonParser;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0;
    std::string _string;
    std::vector<JsonValue> _array;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

} // namespace hypertee

#endif // HYPERTEE_SIM_JSON_HH

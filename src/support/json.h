/**
 * @file
 * The one JSON writer behind every exported document: traces, metrics,
 * sketches, time series, kernel profiles, serving reports, build info
 * and the BENCH_*.json files.
 *
 * Strings go through escape(). Doubles print in exactly two formats:
 *
 *  - num(): %.6g. Trace args, time series, ServingReport and the
 *    BENCH_*.json files — documents read by people and diffed against
 *    margins.
 *  - exact(): integral values below 1e15 as integers, other finite
 *    values as the shortest %.{1..17}g that parses back to the same
 *    double, non-finite values as 0. Profiles, sketches and metrics —
 *    documents whose numbers must round-trip.
 *
 * Objects are built with Object, which escapes and quotes keys and
 * places the commas; keys keep insertion order. Arrays are
 * "[" + join(items, ",") + "]" (support/string_util.h), or appended in
 * place where they can grow long (trace events, time-series windows).
 */
#pragma once

#include <cstdint>
#include <string>

namespace tilus {
namespace json {

/** Escape a string for a JSON string literal (no surrounding quotes). */
std::string escape(const std::string &s);

/** %.6g (see file header). */
std::string num(double v);

/** Integer, else shortest round-trip %g, else 0 (see file header). */
std::string exact(double v);

/** A JSON object under construction (see file header). */
class Object
{
  public:
    Object &add(const std::string &key, const std::string &value);
    Object &add(const std::string &key, const char *value);
    Object &add(const std::string &key, int64_t value);
    Object &add(const std::string &key, uint64_t value);
    /** Rendered with num(); use raw(key, exact(v)) for exact(). */
    Object &add(const std::string &key, double value);
    Object &add(const std::string &key, bool value);

    /** Append an already-rendered JSON value (object, array, number). */
    Object &raw(const std::string &key, const std::string &value);

    bool empty() const { return body_.empty(); }

    /** The rendered object ("{}" when empty). */
    std::string str() const;

  private:
    std::string body_;
};

} // namespace json
} // namespace tilus

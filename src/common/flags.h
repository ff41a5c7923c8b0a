// Minimal command-line flag parsing for the example tools, and the strict
// parser of the numeric environment variables the tools and benches read.
//
// Supports --name=value and --name value forms plus boolean --name.
// Unrecognized flags, values a flag cannot take and arguments that are
// not flags are reported as errors.

#ifndef LIGHTRW_COMMON_FLAGS_H_
#define LIGHTRW_COMMON_FLAGS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace lightrw {

// Command line bound to the variables it sets. Typical use:
//
//   WalkConfig config;  // config.length defaults to 80
//   bool verbose = false;
//   FlagParser flags;
//   flags.Bind("length", "walk length", &config.length, 1, 1 << 20);
//   flags.Bind("verbose", "chatty output", &verbose);
//   LIGHTRW_CHECK(flags.Parse(argc, argv).ok());
//
// Parse converts each value once and writes it through the pointer, so
// a malformed `--length=abc` or an out-of-range `--length=0` surfaces
// as a Status (tools print it and exit nonzero) and leaves the field
// alone.
class FlagParser {
 public:
  // Binds --name to `*field`, which must outlive Parse. The value the
  // field holds now is the flag's default, as HelpText shows it.
  void Bind(const std::string& name, const std::string& help,
            std::string* field);
  // "true"/"1"/"yes" or "false"/"0"/"no"; a bare --name means true.
  void Bind(const std::string& name, const std::string& help, bool* field);
  void Bind(const std::string& name, const std::string& help, double* field);
  // Decimal integers in [min, max]: the field type's range, capped at
  // int64_t's, unless narrowed. The default must lie inside.
  template <std::integral T>
  void Bind(const std::string& name, const std::string& help, T* field,
            int64_t min = std::numeric_limits<T>::min(),
            int64_t max = MaxOf<T>()) {
    const T default_value = *field;
    LIGHTRW_CHECK(std::in_range<T>(min) && std::in_range<T>(max));
    LIGHTRW_CHECK(std::cmp_less_equal(min, default_value) &&
                  std::cmp_less_equal(default_value, max));
    BindInt(name, help, static_cast<int64_t>(default_value), min, max,
            [field](int64_t value) { *field = static_cast<T>(value); });
  }

  // Parses argv, writing each value through its binding; returns an
  // error for unknown, malformed or out-of-range flags, for a flag other
  // than a boolean without a value, and for any argument that is not a
  // flag. A value given as the next argument must not start with "--".
  Status Parse(int argc, const char* const* argv);

  // Every bound flag, sorted by name, with its help and default.
  std::string HelpText() const;

 private:
  // The largest T, capped at int64_t's.
  template <std::integral T>
  static constexpr int64_t MaxOf() {
    constexpr uint64_t kMax = std::numeric_limits<T>::max();
    return static_cast<int64_t>(std::min<uint64_t>(kMax, INT64_MAX));
  }

  struct Flag {
    std::string help;
    std::string default_value;  // the field's value when bound
    std::string expected;       // what a value must be, for errors
    bool is_bool = false;
    // Writes `value` to the field; false, leaving it alone, when the
    // value does not parse or lies outside the flag's range.
    std::function<bool(const std::string& value)> set;
  };

  void BindInt(const std::string& name, const std::string& help,
               int64_t default_value, int64_t min, int64_t max,
               std::function<void(int64_t)> store);
  // Adds --name, which must be new; the caller fills in the rest.
  Flag& Add(const std::string& name, const std::string& help,
            std::string default_value);

  std::map<std::string, Flag> flags_;
};

// Reads one numeric environment variable `name` whose raw value is `value`
// (null or empty: `fallback`). Anything but decimal digits, or a number
// above `max`, is an InvalidArgument error naming the variable.
StatusOr<uint64_t> ParseEnvUint(const char* name, const char* value,
                                uint64_t fallback, uint64_t max);

}  // namespace lightrw

#endif  // LIGHTRW_COMMON_FLAGS_H_

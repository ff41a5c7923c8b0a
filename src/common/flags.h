// Minimal command-line flag parsing for the example tools, and the strict
// parser of the numeric environment variables the tools and benches read.
//
// Supports --name=value and --name value forms plus boolean --name.
// Unrecognized flags and arguments that are not flags are reported as
// errors.

#ifndef LIGHTRW_COMMON_FLAGS_H_
#define LIGHTRW_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace lightrw {

// Parsed command line. Typical use:
//
//   FlagParser flags;
//   flags.DefineInt("length", "walk length", 80, 1, 1 << 20);
//   flags.DefineBool("verbose", "chatty output", false);
//   LIGHTRW_CHECK(flags.Parse(argc, argv).ok());
//   const uint64_t length = flags.GetInt("length");
//
// Typed definitions validate user-supplied values during Parse, so a
// malformed `--length=abc` or an out-of-range `--length=0` surfaces as a
// Status (tools print it and exit nonzero) instead of aborting or
// wrapping later inside an accessor.
class FlagParser {
 public:
  // Registers a flag with a default value (all flags are optional). The
  // untyped form accepts any value.
  void Define(const std::string& name, const std::string& help,
              const std::string& default_value);
  // Typed forms: Parse rejects values the matching accessor could not
  // return, and integers outside [min, max] (which must hold the
  // default).
  void DefineInt(const std::string& name, const std::string& help,
                 int64_t default_value, int64_t min, int64_t max);
  void DefineDouble(const std::string& name, const std::string& help,
                    double default_value);
  void DefineBool(const std::string& name, const std::string& help,
                  bool default_value);

  // Parses argv; returns an error for unknown, malformed or out-of-range
  // flags and for any argument that is not a flag.
  Status Parse(int argc, const char* const* argv);

  // Accessors; the flag must have been Defined.
  const std::string& GetString(const std::string& name) const;
  // Accepts decimal integers; aborts on non-numeric values (use
  // DefineInt to reject them at Parse time instead).
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  // "true"/"1"/"yes" => true; "false"/"0"/"no" => false.
  bool GetBool(const std::string& name) const;

  // Formatted help text listing all defined flags.
  std::string HelpText() const;

 private:
  enum class FlagType { kString, kInt, kDouble, kBool };

  struct Flag {
    std::string help;
    std::string value;
    FlagType type = FlagType::kString;
    // Inclusive bounds of a kInt flag.
    int64_t min = 0;
    int64_t max = 0;
  };

  // Non-OK when `value` does not parse as `flag`'s type or lies outside
  // its bounds.
  static Status CheckValue(const std::string& name, const std::string& value,
                           const Flag& flag);

  std::map<std::string, Flag> flags_;
};

// Reads one numeric environment variable `name` whose raw value is `value`
// (null or empty: `fallback`). Anything but decimal digits, or a number
// above `max`, is an InvalidArgument error naming the variable.
StatusOr<uint64_t> ParseEnvUint(const char* name, const char* value,
                                uint64_t fallback, uint64_t max);

}  // namespace lightrw

#endif  // LIGHTRW_COMMON_FLAGS_H_

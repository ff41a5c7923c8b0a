#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace lightrw {

namespace {

bool ParseIntValue(const std::string& value, int64_t* out) {
  if (value.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseDoubleValue(const std::string& value, double* out) {
  if (value.empty()) {
    return false;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseBoolValue(const std::string& value, bool* out) {
  if (value == "true" || value == "1" || value == "yes") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "no") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

void FlagParser::Define(const std::string& name, const std::string& help,
                        const std::string& default_value) {
  LIGHTRW_CHECK(!name.empty());
  flags_[name] = Flag{help, default_value, FlagType::kString};
}

void FlagParser::DefineInt(const std::string& name, const std::string& help,
                           int64_t default_value, int64_t min, int64_t max) {
  LIGHTRW_CHECK(!name.empty());
  LIGHTRW_CHECK(min <= default_value && default_value <= max);
  flags_[name] =
      Flag{help, std::to_string(default_value), FlagType::kInt, min, max};
}

void FlagParser::DefineDouble(const std::string& name,
                              const std::string& help,
                              double default_value) {
  LIGHTRW_CHECK(!name.empty());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", default_value);
  flags_[name] = Flag{help, buf, FlagType::kDouble};
}

void FlagParser::DefineBool(const std::string& name, const std::string& help,
                            bool default_value) {
  LIGHTRW_CHECK(!name.empty());
  flags_[name] =
      Flag{help, default_value ? "true" : "false", FlagType::kBool};
}

Status FlagParser::CheckValue(const std::string& name,
                              const std::string& value, const Flag& flag) {
  bool ok = true;
  std::string expected;
  switch (flag.type) {
    case FlagType::kString:
      break;
    case FlagType::kInt: {
      int64_t parsed;
      ok = ParseIntValue(value, &parsed) && parsed >= flag.min &&
           parsed <= flag.max;
      expected = "a decimal integer in [" + std::to_string(flag.min) + ", " +
                 std::to_string(flag.max) + "]";
      break;
    }
    case FlagType::kDouble: {
      double unused;
      ok = ParseDoubleValue(value, &unused);
      expected = "a number";
      break;
    }
    case FlagType::kBool: {
      bool unused;
      ok = ParseBoolValue(value, &unused);
      expected = "true/false/1/0/yes/no";
      break;
    }
  }
  return ok ? Status::Ok()
            : InvalidArgumentError("invalid value '" + value + "' for --" +
                                   name + ": expected " + expected);
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return InvalidArgumentError("unexpected argument '" + arg +
                                  "' (every argument must be a --flag)");
    }
    arg = arg.substr(2);
    std::string name, value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else {
      name = arg;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    if (!has_value) {
      // --name value form, or a bare boolean. String-typed flags whose
      // current value spells a boolean keep the legacy bare-flag
      // behavior.
      const bool boolean_like =
          it->second.type == FlagType::kBool ||
          (it->second.type == FlagType::kString &&
           (it->second.value == "true" || it->second.value == "false"));
      if (i + 1 < argc && argv[i + 1][0] != '-' && !boolean_like) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    LIGHTRW_RETURN_IF_ERROR(CheckValue(name, value, it->second));
    it->second.value = value;
  }
  return Status::Ok();
}

const std::string& FlagParser::GetString(const std::string& name) const {
  const auto it = flags_.find(name);
  LIGHTRW_CHECK(it != flags_.end());
  return it->second.value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  int64_t parsed = 0;
  LIGHTRW_CHECK(ParseIntValue(GetString(name), &parsed));
  return parsed;
}

double FlagParser::GetDouble(const std::string& name) const {
  double parsed = 0.0;
  LIGHTRW_CHECK(ParseDoubleValue(GetString(name), &parsed));
  return parsed;
}

bool FlagParser::GetBool(const std::string& name) const {
  bool parsed = false;
  LIGHTRW_CHECK(ParseBoolValue(GetString(name), &parsed) &&
                "boolean flag must be true/false/1/0/yes/no");
  return parsed;
}

std::string FlagParser::HelpText() const {
  std::string out;
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (default: " + flag.value + ")\n      " +
           flag.help + "\n";
  }
  return out;
}

StatusOr<uint64_t> ParseEnvUint(const char* name, const char* value,
                                uint64_t fallback, uint64_t max) {
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  uint64_t parsed = 0;
  for (const char* c = value; *c != '\0'; ++c) {
    const bool digit_fits =
        *c >= '0' && *c <= '9' && parsed <= max / 10 &&
        static_cast<uint64_t>(*c - '0') <= max - parsed * 10;
    if (!digit_fits) {
      return InvalidArgumentError(std::string(name) + "=" + value +
                                  ": want decimal digits in [0, " +
                                  std::to_string(max) + "]");
    }
    parsed = parsed * 10 + static_cast<uint64_t>(*c - '0');
  }
  return parsed;
}

}  // namespace lightrw

#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

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

void FlagParser::Bind(const std::string& name, const std::string& help,
                      std::string* field) {
  Add(name, help, *field).set = [field](const std::string& value) {
    *field = value;
    return true;
  };
}

void FlagParser::Bind(const std::string& name, const std::string& help,
                      bool* field) {
  Flag& flag = Add(name, help, *field ? "true" : "false");
  flag.expected = "true/false/1/0/yes/no";
  flag.is_bool = true;
  flag.set = [field](const std::string& value) {
    return ParseBoolValue(value, field);
  };
}

void FlagParser::Bind(const std::string& name, const std::string& help,
                      double* field) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", *field);
  Flag& flag = Add(name, help, text);
  flag.expected = "a number";
  flag.set = [field](const std::string& value) {
    return ParseDoubleValue(value, field);
  };
}

void FlagParser::BindInt(const std::string& name, const std::string& help,
                         int64_t default_value, int64_t min, int64_t max,
                         std::function<void(int64_t)> store) {
  Flag& flag = Add(name, help, std::to_string(default_value));
  flag.expected = "a decimal integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]";
  flag.set = [min, max, store = std::move(store)](const std::string& value) {
    int64_t parsed;
    if (!ParseIntValue(value, &parsed) || parsed < min || parsed > max) {
      return false;
    }
    store(parsed);
    return true;
  };
}

FlagParser::Flag& FlagParser::Add(const std::string& name,
                                  const std::string& help,
                                  std::string default_value) {
  LIGHTRW_CHECK(!name.empty());
  const auto [it, first_binding] = flags_.try_emplace(name);
  LIGHTRW_CHECK(first_binding);
  it->second.help = help;
  it->second.default_value = std::move(default_value);
  return it->second;
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      return InvalidArgumentError("unexpected argument '" + arg +
                                  "' (every argument must be a --flag)");
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    const Flag& flag = it->second;
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag.is_bool) {
      value = "true";
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    } else {
      return InvalidArgumentError("--" + name + " needs a value");
    }
    if (!flag.set(value)) {
      return InvalidArgumentError("invalid value '" + value + "' for --" +
                                  name + ": expected " + flag.expected);
    }
  }
  return Status::Ok();
}

std::string FlagParser::HelpText() const {
  std::string out;
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (default: " + flag.default_value + ")\n      " +
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

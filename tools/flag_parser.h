#ifndef TNMINE_TOOLS_FLAG_PARSER_H_
#define TNMINE_TOOLS_FLAG_PARSER_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/parse.h"

namespace tnmine::tools {

/// Tiny --key value flag parser shared by the tool binaries
/// (tnmine_cli, tnmined, tnshard, wire_chaos, bench_outofcore). Every
/// flag takes a value; unknown positional arguments are an error. A flag
/// may be repeated (--failpoint a:io --failpoint b:io): Get/GetInt/
/// GetDouble return the LAST occurrence, GetAll returns every occurrence
/// in order.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        ok_ = false;
        return;
      }
      key = key.substr(2);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s needs a value\n", key.c_str());
        ok_ = false;
        return;
      }
      values_[key].push_back(argv[++i]);
    }
  }

  bool ok() const { return ok_; }

  std::string Get(const std::string& key,
                  const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }
  /// A numeric flag's value, parsed strictly (common/parse.h). A
  /// malformed value is a usage error: reported, naming the flag, and
  /// the process exits with status 2.
  long GetInt(const std::string& key, long fallback) const {
    std::int64_t value = fallback;
    if (Has(key) && !ParseInt64(Get(key, ""), &value)) {
      UsageError(key, "an integer");
    }
    return value;
  }
  double GetDouble(const std::string& key, double fallback) const {
    double value = fallback;
    if (Has(key) && !ParseFiniteDouble(Get(key, ""), &value)) {
      UsageError(key, "a number");
    }
    return value;
  }
  bool Has(const std::string& key) const { return values_.contains(key); }

  /// Every value the flag was given, in command-line order (empty when
  /// the flag is absent) — for repeatable flags like --failpoint.
  std::vector<std::string> GetAll(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  const std::map<std::string, std::vector<std::string>>& values() const {
    return values_;
  }

 private:
  [[noreturn]] void UsageError(const std::string& key,
                               const char* must_be) const {
    std::fprintf(stderr, "usage error: --%s '%s' is not %s\n", key.c_str(),
                 Get(key, "").c_str(), must_be);
    std::exit(2);
  }

  std::map<std::string, std::vector<std::string>> values_;
  bool ok_ = true;
};

}  // namespace tnmine::tools

#endif  // TNMINE_TOOLS_FLAG_PARSER_H_

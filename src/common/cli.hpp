// Tiny `--key=value` command-line parser shared by benches and examples.
//
// Deliberately minimal: experiments need a handful of overridable knobs
// (seed, trial count, output path), not a full CLI framework. A `--key` the
// program never reads is named on stderr when the parser goes out of scope,
// so a misspelt flag does not run silently with the default.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace dyna {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) != 0) continue;
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        kv_[std::string(arg)].value = "true";
      } else {
        kv_[std::string(arg.substr(0, eq))].value = std::string(arg.substr(eq + 1));
      }
    }
    if (const char* scale = std::getenv("DYNA_BENCH_SCALE")) {
      scale_ = std::strtod(scale, nullptr);
      if (scale_ <= 0.0) scale_ = 1.0;
    }
  }

  Cli(const Cli&) = delete;
  Cli& operator=(const Cli&) = delete;

  /// One warning line on stderr per `--key` that no get, get_or, get_sizes
  /// or flag call read.
  ~Cli() {
    for (const auto& [key, arg] : kv_) {
      if (!arg.read) std::fprintf(stderr, "warning: --%s was given but never read\n", key.c_str());
    }
  }

  /// The value of `--key`, marking it read; every other accessor goes through here.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    it->second.read = true;
    return it->second.value;
  }

  [[nodiscard]] std::string get_or(const std::string& key, std::string def) const {
    return get(key).value_or(std::move(def));
  }

  [[nodiscard]] std::int64_t get_or(const std::string& key, std::int64_t def) const {
    const auto v = get(key);
    return v ? std::strtoll(v->c_str(), nullptr, 10) : def;
  }

  [[nodiscard]] double get_or(const std::string& key, double def) const {
    const auto v = get(key);
    return v ? std::strtod(v->c_str(), nullptr) : def;
  }

  /// Parse a comma-separated unsigned integer list ("5,17,65"); `def` when
  /// the flag is absent. A malformed list (empty token, non-digit characters,
  /// trailing separator) aborts with a diagnostic instead of silently running
  /// a truncated experiment.
  [[nodiscard]] std::vector<std::size_t> get_sizes(const std::string& key,
                                                   std::vector<std::size_t> def) const {
    const auto v = get(key);
    if (!v) return def;
    constexpr std::uint64_t kMaxListEntry = 1'000'000;  // no experiment is bigger
    std::vector<std::size_t> out;
    std::string token;
    std::stringstream ss(*v);
    while (std::getline(ss, token, ',')) {
      if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "error: --%s=%s: bad list entry '%s' (expected digits)\n",
                     key.c_str(), v->c_str(), token.c_str());
        std::exit(2);
      }
      const std::uint64_t n =
          token.size() <= 7 ? std::strtoull(token.c_str(), nullptr, 10) : kMaxListEntry + 1;
      if (n == 0 || n > kMaxListEntry) {
        std::fprintf(stderr, "error: --%s=%s: entry '%s' out of range [1, %llu]\n",
                     key.c_str(), v->c_str(), token.c_str(),
                     static_cast<unsigned long long>(kMaxListEntry));
        std::exit(2);
      }
      out.push_back(static_cast<std::size_t>(n));
    }
    if (out.empty() || v->back() == ',') {
      std::fprintf(stderr, "error: --%s=%s: expected a comma-separated integer list\n",
                   key.c_str(), v->c_str());
      std::exit(2);
    }
    return out;
  }

  [[nodiscard]] bool flag(const std::string& key) const {
    const auto v = get(key);
    return v && *v != "false" && *v != "0";
  }

  /// DYNA_BENCH_SCALE multiplier for trial counts / durations (default 1).
  [[nodiscard]] double bench_scale() const noexcept { return scale_; }

  /// Scale an integer knob by DYNA_BENCH_SCALE, keeping it >= 1.
  [[nodiscard]] std::int64_t scaled(std::int64_t base) const {
    const auto v = static_cast<std::int64_t>(static_cast<double>(base) * scale_);
    return v > 0 ? v : 1;
  }

 private:
  struct Arg {
    std::string value;
    mutable bool read = false;
  };

  std::map<std::string, Arg> kv_;
  double scale_ = 1.0;
};

}  // namespace dyna

#include "util/options.h"

#include <cstdio>
#include <cstdlib>

#include "util/check.h"
#include "util/parse.h"

namespace windar::util {

Options::Options(int argc, char** argv) : prog_(argc > 0 ? argv[0] : "?") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    WINDAR_CHECK(arg.rfind("--", 0) == 0) << "expected --option, got " << arg;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      given_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      given_[arg] = argv[++i];
    } else {
      given_[arg] = "true";  // bare flag
    }
  }
}

const std::string* Options::find(const std::string& name) const {
  auto it = given_.find(name);
  return it == given_.end() ? nullptr : &it->second;
}

std::string Options::str(const std::string& name, const std::string& def,
                         const std::string& help) {
  decls_.push_back({name, def, help});
  const std::string* v = find(name);
  return v ? *v : def;
}

std::int64_t Options::integer(const std::string& name, std::int64_t def,
                              const std::string& help) {
  decls_.push_back({name, std::to_string(def), help});
  const std::string* v = find(name);
  return v ? parse_number<std::int64_t>(*v, "--" + name) : def;
}

double Options::real(const std::string& name, double def,
                     const std::string& help) {
  decls_.push_back({name, std::to_string(def), help});
  const std::string* v = find(name);
  return v ? parse_number<double>(*v, "--" + name) : def;
}

bool Options::flag(const std::string& name, bool def, const std::string& help) {
  decls_.push_back({name, def ? "true" : "false", help});
  const std::string* v = find(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  WINDAR_CHECK(*v == "false" || *v == "0" || *v == "no")
      << "malformed --" << name << "='" << *v << "'";
  return false;
}

std::vector<int> Options::int_list(const std::string& name,
                                   const std::vector<int>& def,
                                   const std::string& help) {
  std::string d;
  for (std::size_t i = 0; i < def.size(); ++i) {
    if (i) d += ",";
    d += std::to_string(def[i]);
  }
  decls_.push_back({name, d, help});
  const std::string* v = find(name);
  if (!v) return def;
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < v->size()) {
    auto comma = v->find(',', pos);
    if (comma == std::string::npos) comma = v->size();
    out.push_back(parse_number<int>(
        std::string_view(*v).substr(pos, comma - pos), "--" + name));
    pos = comma + 1;
  }
  return out;
}

void Options::finish() {
  bool bad = false;
  for (const auto& [name, value] : given_) {
    (void)value;
    bool known = false;
    for (const auto& d : decls_) {
      if (d.name == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown option --%s\n", name.c_str());
      bad = true;
    }
  }
  if (bad || help_requested_) {
    std::fprintf(stderr, "usage: %s [options]\n", prog_.c_str());
    for (const auto& d : decls_) {
      std::fprintf(stderr, "  --%-20s (default: %s)  %s\n", d.name.c_str(),
                   d.def.c_str(), d.help.c_str());
    }
    std::exit(bad ? 2 : 0);
  }
}

}  // namespace windar::util

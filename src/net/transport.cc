#include "net/transport.h"

#include "util/parse.h"

namespace windar::net {

bool parse_transport(const std::string& s, TransportKind* out) {
  if (s == "sim") {
    *out = TransportKind::kSim;
    return true;
  }
  if (s == "socket") {
    *out = TransportKind::kSocket;
    return true;
  }
  return false;
}

TransportKind default_transport() {
  return util::env_choice("WINDAR_TRANSPORT", {"sim", "socket"}) == "socket"
             ? TransportKind::kSocket
             : TransportKind::kSim;
}

}  // namespace windar::net

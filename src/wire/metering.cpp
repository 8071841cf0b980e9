#include "wire/metering.hpp"

#include <stdexcept>
#include <string>

#include "wire/registry.hpp"

namespace rgb::wire {
namespace {

[[noreturn]] void throw_unsizeable(net::MessageKind kind) {
  throw std::logic_error("wire metering: cannot size a send of kind " +
                         std::to_string(kind) +
                         " (unregistered kind or wrong payload type)");
}

}  // namespace

void attach_encoded_metering(net::Network& network) {
  network.set_sizer([](const net::Envelope& env) -> std::uint32_t {
    const std::uint32_t encoded =
        WireRegistry::global().encoded_size(env.kind, env.payload);
    if (encoded == 0) throw_unsizeable(env.kind);
    return encoded;
  });
}

}  // namespace rgb::wire

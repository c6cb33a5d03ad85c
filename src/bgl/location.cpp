#include "bgl/location.hpp"

#include <cstdio>

#include "common/binary.hpp"
#include "common/error.hpp"

namespace bglpred::bgl {

const char* to_string(LocationKind kind) {
  switch (kind) {
    case LocationKind::kRack:
      return "rack";
    case LocationKind::kMidplane:
      return "midplane";
    case LocationKind::kNodeCard:
      return "node-card";
    case LocationKind::kComputeChip:
      return "compute-chip";
    case LocationKind::kIoNode:
      return "io-node";
    case LocationKind::kLinkCard:
      return "link-card";
    case LocationKind::kServiceCard:
      return "service-card";
  }
  return "?";
}

bool Location::contains(const Location& other) const {
  if (other.rack != rack) {
    return false;
  }
  switch (kind) {
    case LocationKind::kRack:
      return true;
    case LocationKind::kMidplane:
      return other.kind != LocationKind::kRack && other.midplane == midplane;
    case LocationKind::kNodeCard:
      return (other.kind == LocationKind::kNodeCard ||
              other.kind == LocationKind::kComputeChip ||
              other.kind == LocationKind::kIoNode) &&
             other.midplane == midplane && other.node_card == node_card;
    default:
      return *this == other;
  }
}

Location Location::parent_midplane() const {
  BGL_REQUIRE(kind != LocationKind::kRack,
              "rack location has no enclosing midplane");
  return make_midplane(rack, midplane);
}

Location Location::parent_node_card() const {
  BGL_REQUIRE(kind == LocationKind::kComputeChip ||
                  kind == LocationKind::kIoNode,
              "only chips and I/O nodes have an enclosing node card");
  return make_node_card(rack, midplane, node_card);
}

std::string Location::str() const {
  std::string out;
  append_to(out);
  return out;
}

void Location::append_to(std::string& out) const {
  // Zero-init so gcc's maybe-uninitialized check accepts the
  // switch-covers-all-kinds control flow.
  char buf[32] = {};
  switch (kind) {
    case LocationKind::kRack:
      std::snprintf(buf, sizeof(buf), "R%02u", rack);
      break;
    case LocationKind::kMidplane:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u", rack, midplane);
      break;
    case LocationKind::kNodeCard:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-N%02u", rack, midplane,
                    node_card);
      break;
    case LocationKind::kComputeChip:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-N%02u-C%02u", rack, midplane,
                    node_card, unit);
      break;
    case LocationKind::kIoNode:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-N%02u-I%02u", rack, midplane,
                    node_card, unit);
      break;
    case LocationKind::kLinkCard:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-L%u", rack, midplane, unit);
      break;
    case LocationKind::kServiceCard:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-S", rack, midplane);
      break;
  }
  out += buf;
}

Location Location::make_rack(std::uint16_t r) {
  Location loc;
  loc.kind = LocationKind::kRack;
  loc.rack = r;
  return loc;
}

Location Location::make_midplane(std::uint16_t r, std::uint8_t m) {
  Location loc = make_rack(r);
  loc.kind = LocationKind::kMidplane;
  loc.midplane = m;
  return loc;
}

Location Location::make_node_card(std::uint16_t r, std::uint8_t m,
                                  std::uint8_t nc) {
  Location loc = make_midplane(r, m);
  loc.kind = LocationKind::kNodeCard;
  loc.node_card = nc;
  return loc;
}

Location Location::make_compute_chip(std::uint16_t r, std::uint8_t m,
                                     std::uint8_t nc, std::uint8_t chip) {
  Location loc = make_node_card(r, m, nc);
  loc.kind = LocationKind::kComputeChip;
  loc.unit = chip;
  return loc;
}

Location Location::make_io_node(std::uint16_t r, std::uint8_t m,
                                std::uint8_t nc, std::uint8_t io) {
  Location loc = make_node_card(r, m, nc);
  loc.kind = LocationKind::kIoNode;
  loc.unit = io;
  return loc;
}

Location Location::make_link_card(std::uint16_t r, std::uint8_t m,
                                  std::uint8_t lc) {
  Location loc = make_midplane(r, m);
  loc.kind = LocationKind::kLinkCard;
  loc.unit = lc;
  return loc;
}

Location Location::make_service_card(std::uint16_t r, std::uint8_t m) {
  Location loc = make_midplane(r, m);
  loc.kind = LocationKind::kServiceCard;
  return loc;
}

namespace {

// Reads "<prefix><number>" returning the number; throws on mismatch.
unsigned expect_component(const std::string& code, std::size_t& pos,
                          char prefix) {
  if (pos >= code.size() || code[pos] != prefix) {
    throw ParseError("bad location code '" + code + "': expected '" +
                     std::string(1, prefix) + "' at offset " +
                     std::to_string(pos));
  }
  ++pos;
  if (pos >= code.size() || code[pos] < '0' || code[pos] > '9') {
    throw ParseError("bad location code '" + code + "': expected digits");
  }
  unsigned value = 0;
  while (pos < code.size() && code[pos] >= '0' && code[pos] <= '9') {
    value = value * 10 + static_cast<unsigned>(code[pos] - '0');
    ++pos;
  }
  return value;
}

void expect_dash(const std::string& code, std::size_t& pos) {
  if (pos >= code.size() || code[pos] != '-') {
    throw ParseError("bad location code '" + code + "': expected '-'");
  }
  ++pos;
}

// Non-throwing twin of expect_component: same digit accumulation (and
// the same defined unsigned wrap on absurd inputs).
bool scan_component(std::string_view code, std::size_t& pos, char prefix,
                    unsigned& value) {
  if (pos >= code.size() || code[pos] != prefix) {
    return false;
  }
  ++pos;
  if (pos >= code.size() || code[pos] < '0' || code[pos] > '9') {
    return false;
  }
  value = 0;
  while (pos < code.size() && code[pos] >= '0' && code[pos] <= '9') {
    value = value * 10 + static_cast<unsigned>(code[pos] - '0');
    ++pos;
  }
  return true;
}

bool scan_dash(std::string_view code, std::size_t& pos) {
  if (pos >= code.size() || code[pos] != '-') {
    return false;
  }
  ++pos;
  return true;
}

}  // namespace

Location parse_location(const std::string& code) {
  std::size_t pos = 0;
  const unsigned rack = expect_component(code, pos, 'R');
  if (pos == code.size()) {
    return Location::make_rack(static_cast<std::uint16_t>(rack));
  }
  expect_dash(code, pos);
  const unsigned mid = expect_component(code, pos, 'M');
  if (pos == code.size()) {
    return Location::make_midplane(static_cast<std::uint16_t>(rack),
                                   static_cast<std::uint8_t>(mid));
  }
  expect_dash(code, pos);
  if (pos < code.size() && code[pos] == 'S') {
    ++pos;
    if (pos != code.size()) {
      throw ParseError("bad location code '" + code +
                       "': trailing characters after service card");
    }
    return Location::make_service_card(static_cast<std::uint16_t>(rack),
                                       static_cast<std::uint8_t>(mid));
  }
  if (pos < code.size() && code[pos] == 'L') {
    const unsigned lc = expect_component(code, pos, 'L');
    if (pos != code.size()) {
      throw ParseError("bad location code '" + code +
                       "': trailing characters after link card");
    }
    return Location::make_link_card(static_cast<std::uint16_t>(rack),
                                    static_cast<std::uint8_t>(mid),
                                    static_cast<std::uint8_t>(lc));
  }
  const unsigned nc = expect_component(code, pos, 'N');
  if (pos == code.size()) {
    return Location::make_node_card(static_cast<std::uint16_t>(rack),
                                    static_cast<std::uint8_t>(mid),
                                    static_cast<std::uint8_t>(nc));
  }
  expect_dash(code, pos);
  if (pos < code.size() && code[pos] == 'C') {
    const unsigned chip = expect_component(code, pos, 'C');
    if (pos != code.size()) {
      throw ParseError("bad location code '" + code +
                       "': trailing characters after chip");
    }
    return Location::make_compute_chip(
        static_cast<std::uint16_t>(rack), static_cast<std::uint8_t>(mid),
        static_cast<std::uint8_t>(nc), static_cast<std::uint8_t>(chip));
  }
  const unsigned io = expect_component(code, pos, 'I');
  if (pos != code.size()) {
    throw ParseError("bad location code '" + code +
                     "': trailing characters after I/O node");
  }
  return Location::make_io_node(static_cast<std::uint16_t>(rack),
                                static_cast<std::uint8_t>(mid),
                                static_cast<std::uint8_t>(nc),
                                static_cast<std::uint8_t>(io));
}

bool try_parse_location(std::string_view code, Location& out) {
  // Structural mirror of parse_location: identical accept set and
  // identical narrowing casts, minus the exception on failure.
  std::size_t pos = 0;
  unsigned rack = 0;
  if (!scan_component(code, pos, 'R', rack)) {
    return false;
  }
  if (pos == code.size()) {
    out = Location::make_rack(static_cast<std::uint16_t>(rack));
    return true;
  }
  unsigned mid = 0;
  if (!scan_dash(code, pos) || !scan_component(code, pos, 'M', mid)) {
    return false;
  }
  if (pos == code.size()) {
    out = Location::make_midplane(static_cast<std::uint16_t>(rack),
                                  static_cast<std::uint8_t>(mid));
    return true;
  }
  if (!scan_dash(code, pos)) {
    return false;
  }
  if (pos < code.size() && code[pos] == 'S') {
    ++pos;
    if (pos != code.size()) {
      return false;
    }
    out = Location::make_service_card(static_cast<std::uint16_t>(rack),
                                      static_cast<std::uint8_t>(mid));
    return true;
  }
  if (pos < code.size() && code[pos] == 'L') {
    unsigned lc = 0;
    if (!scan_component(code, pos, 'L', lc) || pos != code.size()) {
      return false;
    }
    out = Location::make_link_card(static_cast<std::uint16_t>(rack),
                                   static_cast<std::uint8_t>(mid),
                                   static_cast<std::uint8_t>(lc));
    return true;
  }
  unsigned nc = 0;
  if (!scan_component(code, pos, 'N', nc)) {
    return false;
  }
  if (pos == code.size()) {
    out = Location::make_node_card(static_cast<std::uint16_t>(rack),
                                   static_cast<std::uint8_t>(mid),
                                   static_cast<std::uint8_t>(nc));
    return true;
  }
  if (!scan_dash(code, pos)) {
    return false;
  }
  if (pos < code.size() && code[pos] == 'C') {
    unsigned chip = 0;
    if (!scan_component(code, pos, 'C', chip) || pos != code.size()) {
      return false;
    }
    out = Location::make_compute_chip(
        static_cast<std::uint16_t>(rack), static_cast<std::uint8_t>(mid),
        static_cast<std::uint8_t>(nc), static_cast<std::uint8_t>(chip));
    return true;
  }
  unsigned io = 0;
  if (!scan_component(code, pos, 'I', io) || pos != code.size()) {
    return false;
  }
  out = Location::make_io_node(static_cast<std::uint16_t>(rack),
                               static_cast<std::uint8_t>(mid),
                               static_cast<std::uint8_t>(nc),
                               static_cast<std::uint8_t>(io));
  return true;
}

void append_location(std::string& out, const Location& loc) {
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(loc.kind));
  wire::append<std::uint16_t>(out, loc.rack);
  wire::append<std::uint8_t>(out, loc.midplane);
  wire::append<std::uint8_t>(out, loc.node_card);
  wire::append<std::uint8_t>(out, loc.unit);
}

bool decode_location(const char* p, Location& out) {
  const auto kind = wire::decode<std::uint8_t>(p);
  if (kind > static_cast<std::uint8_t>(LocationKind::kServiceCard)) {
    return false;
  }
  out.kind = static_cast<LocationKind>(kind);
  out.rack = wire::decode<std::uint16_t>(p + 1);
  out.midplane = wire::decode<std::uint8_t>(p + 3);
  out.node_card = wire::decode<std::uint8_t>(p + 4);
  out.unit = wire::decode<std::uint8_t>(p + 5);
  return true;
}

}  // namespace bglpred::bgl

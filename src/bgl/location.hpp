// Blue Gene/L hardware location codes.
//
// Every RAS record carries a LOCATION field naming the hardware unit that
// reported the event. We model the standard BG/L naming scheme:
//
//   R<rack>                      rack
//   R<rack>-M<midplane>          midplane (0 or 1)
//   R<rack>-M<m>-N<nodecard>     node card (00..15)
//   R<rack>-M<m>-N<nc>-C<chip>   compute chip on a node card (00..31)
//   R<rack>-M<m>-N<nc>-I<io>     I/O node on a node card
//   R<rack>-M<m>-L<linkcard>     link card (0..3)
//   R<rack>-M<m>-S               service card
//
// Locations are value types ordered lexicographically by hierarchy level so
// they can key maps and be range-grouped per unit.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace bglpred::bgl {

/// The kind of hardware unit a location names.
enum class LocationKind : std::uint8_t {
  kRack,
  kMidplane,
  kNodeCard,
  kComputeChip,
  kIoNode,
  kLinkCard,
  kServiceCard,
};

/// Human-readable name of a location kind ("rack", "compute-chip", ...).
const char* to_string(LocationKind kind);

/// A parsed hardware location. Unused index fields are zero.
struct Location {
  LocationKind kind = LocationKind::kRack;
  std::uint16_t rack = 0;
  std::uint8_t midplane = 0;   ///< valid for kMidplane and below
  std::uint8_t node_card = 0;  ///< valid for kNodeCard/kComputeChip/kIoNode
  std::uint8_t unit = 0;       ///< chip, io-node, or link-card index

  friend auto operator<=>(const Location&, const Location&) = default;

  /// True if `other` is this location or contained within it
  /// (e.g. a rack contains all its midplanes' chips).
  bool contains(const Location& other) const;

  /// The enclosing midplane location. Requires kind != kRack.
  Location parent_midplane() const;

  /// The enclosing node card. Requires a chip or I/O-node location.
  Location parent_node_card() const;

  /// Formats the canonical code, e.g. "R00-M1-N07-C21".
  std::string str() const;

  /// Appends str() to `out` without a temporary string (serialization
  /// hot path).
  void append_to(std::string& out) const;

  // Factories ---------------------------------------------------------
  static Location make_rack(std::uint16_t r);
  static Location make_midplane(std::uint16_t r, std::uint8_t m);
  static Location make_node_card(std::uint16_t r, std::uint8_t m,
                                 std::uint8_t nc);
  static Location make_compute_chip(std::uint16_t r, std::uint8_t m,
                                    std::uint8_t nc, std::uint8_t chip);
  static Location make_io_node(std::uint16_t r, std::uint8_t m,
                               std::uint8_t nc, std::uint8_t io);
  static Location make_link_card(std::uint16_t r, std::uint8_t m,
                                 std::uint8_t lc);
  static Location make_service_card(std::uint16_t r, std::uint8_t m);
};

/// Parses a canonical location code; throws ParseError on malformed input.
Location parse_location(const std::string& code);

/// Non-throwing form of parse_location. Accepts exactly the same codes
/// and produces exactly the same values (component digits accumulate
/// with the same unsigned wrap and narrowing); the two are pinned to
/// each other by a randomized differential test. Returns false where
/// parse_location would throw.
bool try_parse_location(std::string_view code, Location& out);

/// The 6-byte wire form of a location (u8 kind, u16 rack, u8 midplane,
/// u8 node card, u8 unit; little-endian), shared by binary logs, log-store
/// dictionaries and engine checkpoints.
inline constexpr std::size_t kLocationWireSize = 6;
void append_location(std::string& out, const Location& loc);
/// Returns false, leaving `out` unspecified, on a kind out of range.
bool decode_location(const char* p, Location& out);

}  // namespace bglpred::bgl

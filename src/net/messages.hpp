// Network-layer message codecs (RPL-class control + data plane).
//
// All messages serialize to bytes before hitting the MAC so that frame
// sizes — and hence airtime and energy — are real.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace iiot::net {

/// Rank is RPL-style: root = kMinHopRankIncrease, unreachable = infinite.
using Rank = std::uint16_t;
inline constexpr Rank kInfiniteRank = 0xFFFF;
inline constexpr Rank kMinHopRankIncrease = 256;

enum class MsgType : std::uint8_t {
  kDio = 1,   // DODAG Information Object (broadcast, trickled)
  kDis = 2,   // DODAG Information Solicitation (broadcast)
  kDao = 3,   // Destination Advertisement Object (unicast to parent)
  kData = 4,  // application payload, routed hop-by-hop
  kRnfd = 5,  // RNFD CFRC gossip (broadcast)
  kDistress = 6,  // sustained-inconsistency report, relayed up to the root
};

struct DioMsg {
  std::uint8_t version = 0;
  Rank rank = kInfiniteRank;
  NodeId dodag_root = kInvalidNode;
  std::uint8_t depth = 0xFF;  // true hop distance to the root

  static constexpr std::size_t kEncodedSize = 9;

  void encode(Buffer& out) const {
    out.reserve(out.size() + kEncodedSize);
    BufWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::kDio));
    w.u8(version);
    w.u16(rank);
    w.u32(dodag_root);
    w.u8(depth);
  }
  static std::optional<DioMsg> decode(BufReader& r) {
    DioMsg m;
    auto v = r.u8();
    auto rank = r.u16();
    auto root = r.u32();
    auto depth = r.u8();
    if (!v || !rank || !root || !depth) return std::nullopt;
    m.version = *v;
    m.rank = *rank;
    m.dodag_root = *root;
    m.depth = *depth;
    return m;
  }
};

struct DaoMsg {
  NodeId target = kInvalidNode;  // node advertising downward reachability

  static constexpr std::size_t kEncodedSize = 5;

  void encode(Buffer& out) const {
    out.reserve(out.size() + kEncodedSize);
    BufWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::kDao));
    w.u32(target);
  }
  static std::optional<DaoMsg> decode(BufReader& r) {
    auto t = r.u32();
    if (!t) return std::nullopt;
    return DaoMsg{*t};
  }
};

struct DataMsg {
  NodeId origin = kInvalidNode;
  NodeId dest = kInvalidNode;  // kInvalidNode means "the root"
  SeqNo seq = 0;
  std::uint8_t hops = 0;
  Buffer payload;

  /// Header bytes before the payload (type, origin, dest, seq, hops and
  /// the u16 payload length).
  static constexpr std::size_t kHeaderSize = 16;

  [[nodiscard]] std::size_t encoded_size() const {
    return kHeaderSize + payload.size();
  }
  void encode(Buffer& out) const {
    out.reserve(out.size() + encoded_size());
    BufWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::kData));
    w.u32(origin);
    w.u32(dest);
    w.u32(seq);
    w.u8(hops);
    w.lp_bytes(payload);
  }
  static std::optional<DataMsg> decode(BufReader& r) {
    DataMsg m;
    auto o = r.u32();
    auto d = r.u32();
    auto s = r.u32();
    auto h = r.u8();
    auto p = r.lp_bytes();
    if (!o || !d || !s || !h || !p) return std::nullopt;
    m.origin = *o;
    m.dest = *d;
    m.seq = *s;
    m.hops = *h;
    m.payload = std::move(*p);
    return m;
  }
};

/// A node stuck in repeated DAGMaxRankIncrease detachments asks the root
/// for a global repair. Originated by a *joined* neighbor on behalf of the
/// distressed orphan (who by definition has no route), then relayed
/// parent-by-parent; the root rate-limits the resulting version bumps.
struct DistressMsg {
  NodeId origin = kInvalidNode;  // the distressed node itself
  std::uint8_t hops = 0;         // relay hops travelled (TTL guard)

  void encode(Buffer& out) const {
    BufWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::kDistress));
    w.u32(origin);
    w.u8(hops);
  }
  static std::optional<DistressMsg> decode(BufReader& r) {
    auto o = r.u32();
    auto h = r.u8();
    if (!o || !h) return std::nullopt;
    return DistressMsg{*o, *h};
  }
};

inline std::optional<MsgType> peek_type(BytesView bytes) {
  if (bytes.empty()) return std::nullopt;
  auto t = bytes[0];
  if (t < 1 || t > 6) return std::nullopt;
  return static_cast<MsgType>(t);
}

}  // namespace iiot::net

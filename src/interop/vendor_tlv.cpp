#include "interop/vendor_tlv.hpp"

#include <algorithm>
#include <cstring>

namespace iiot::interop {

namespace {
constexpr std::uint8_t kMagic = 0xA5;
constexpr std::uint8_t kCmdRead = 0x01;
constexpr std::uint8_t kCmdWrite = 0x02;
constexpr std::uint8_t kCmdError = 0x7F;
constexpr std::uint8_t kTlvPointId = 0x10;
constexpr std::uint8_t kTlvValue = 0x20;

std::uint8_t xor_sum(BytesView b) {
  std::uint8_t x = 0;
  for (std::uint8_t v : b) x ^= v;
  return x;
}

Buffer make_frame(std::uint8_t cmd, BytesView tlvs) {
  // Sized once and filled in place (header, TLVs, XOR byte): growing a
  // 3-byte initializer list makes GCC 12 warn falsely (-Warray-bounds).
  Buffer f(tlvs.size() + 4);
  f[0] = kMagic;
  f[1] = cmd;
  f[2] = static_cast<std::uint8_t>(tlvs.size());
  std::copy(tlvs.begin(), tlvs.end(), f.begin() + 3);
  f.back() = xor_sum(BytesView(f).first(f.size() - 1));
  return f;
}

void append_tlv(Buffer& out, std::uint8_t type, BytesView value) {
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

/// Finds the first TLV of `type`; returns its value bytes.
std::optional<BytesView> find_tlv(BytesView tlvs, std::uint8_t type) {
  std::size_t pos = 0;
  while (pos + 2 <= tlvs.size()) {
    const std::uint8_t t = tlvs[pos];
    const std::uint8_t len = tlvs[pos + 1];
    if (pos + 2 + len > tlvs.size()) return std::nullopt;
    if (t == type) return tlvs.subspan(pos + 2, len);
    pos += 2 + len;
  }
  return std::nullopt;
}

}  // namespace

Buffer VendorTlvDevice::process(BytesView frame) {
  if (frame.size() < 4 || frame[0] != kMagic) return {};
  if (xor_sum(frame.subspan(0, frame.size() - 1)) != frame.back()) return {};
  const std::uint8_t cmd = frame[1];
  const std::uint8_t len = frame[2];
  if (frame.size() != static_cast<std::size_t>(len) + 4) return {};
  BytesView tlvs = frame.subspan(3, len);

  auto error = [](std::uint8_t code) {
    Buffer tl;
    append_tlv(tl, 0x7E, BytesView(&code, 1));
    return make_frame(kCmdError, tl);
  };

  switch (cmd) {
    case kCmdRead: {
      auto id = find_tlv(tlvs, kTlvPointId);
      if (!id || id->size() != 1) return error(1);
      auto it = points_.find((*id)[0]);
      if (it == points_.end()) return error(2);
      Buffer tl;
      append_tlv(tl, kTlvPointId, *id);
      std::uint8_t vb[8];
      std::memcpy(vb, &it->second, 8);
      append_tlv(tl, kTlvValue, BytesView(vb, 8));
      return make_frame(cmd | 0x80, tl);
    }
    case kCmdWrite: {
      auto id = find_tlv(tlvs, kTlvPointId);
      auto val = find_tlv(tlvs, kTlvValue);
      if (!id || id->size() != 1 || !val || val->size() != 8) {
        return error(1);
      }
      auto it = points_.find((*id)[0]);
      if (it == points_.end()) return error(2);
      std::memcpy(&it->second, val->data(), 8);
      Buffer tl;
      append_tlv(tl, kTlvPointId, *id);
      return make_frame(cmd | 0x80, tl);
    }
    default:
      return error(3);
  }
}

const VendorMapping* VendorTlvAdapter::find(const ResourcePath& path) const {
  for (const auto& m : map_) {
    if (m.descriptor.path == path) return &m;
  }
  return nullptr;
}

std::vector<ResourceDescriptor> VendorTlvAdapter::discover() {
  std::vector<ResourceDescriptor> out;
  out.reserve(map_.size());
  for (const auto& m : map_) out.push_back(m.descriptor);
  return out;
}

Result<Buffer> VendorTlvAdapter::transact(Buffer request) {
  ++stats_.requests;
  stats_.pdu_bytes_out += request.size();
  Buffer rsp = device_.process(request);
  stats_.pdu_bytes_in += rsp.size();
  if (rsp.empty() || rsp[1] == kCmdError) {
    ++stats_.protocol_errors;
    return Error{Error::Code::kMalformed, "vendor: device error"};
  }
  return rsp;
}

Result<ResourceValue> VendorTlvAdapter::read(const ResourcePath& path) {
  const VendorMapping* m = find(path);
  if (m == nullptr || !m->descriptor.readable) {
    return Error{Error::Code::kNotFound, "vendor: unmapped " + path.str()};
  }
  Buffer tl;
  append_tlv(tl, kTlvPointId, BytesView(&m->point_id, 1));
  auto rsp = transact(make_frame(kCmdRead, tl));
  if (!rsp.ok()) return rsp.error();
  BytesView tlvs = BytesView(rsp.value()).subspan(3, rsp.value()[2]);
  auto val = find_tlv(tlvs, kTlvValue);
  if (!val || val->size() != 8) {
    return Error{Error::Code::kMalformed, "vendor: bad value tlv"};
  }
  double v = 0;
  std::memcpy(&v, val->data(), 8);
  return ResourceValue{v};
}

Status VendorTlvAdapter::write(const ResourcePath& path,
                               const ResourceValue& value) {
  const VendorMapping* m = find(path);
  if (m == nullptr || !m->descriptor.writable) {
    return Error{Error::Code::kNotFound, "vendor: unmapped " + path.str()};
  }
  auto dv = value_as_double(value);
  if (!dv) return Error{Error::Code::kMalformed, "vendor: non-numeric"};
  Buffer tl;
  append_tlv(tl, kTlvPointId, BytesView(&m->point_id, 1));
  std::uint8_t vb[8];
  std::memcpy(vb, &*dv, 8);
  append_tlv(tl, kTlvValue, BytesView(vb, 8));
  auto rsp = transact(make_frame(kCmdWrite, tl));
  if (!rsp.ok()) return rsp.error();
  return Status::success();
}

}  // namespace iiot::interop

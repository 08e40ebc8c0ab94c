// Interoperability tests: legacy wire protocols, adapters, and the
// gateway's CoAP + bus integration (paper §III, bench E12).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "backend/rules.hpp"
#include "common/rng.hpp"
#include "backend/topic_bus.hpp"
#include "coap/endpoint.hpp"
#include "interop/gateway.hpp"
#include "interop/gatt.hpp"
#include "interop/modbus.hpp"
#include "interop/vendor_tlv.hpp"
#include "sim/scheduler.hpp"

namespace iiot::interop {
namespace {

using namespace sim;  // NOLINT: time literals

ResourceDescriptor temp_descriptor(std::uint8_t instance = 0) {
  ResourceDescriptor d;
  d.path = {kObjTemperature, instance, kResSensorValue};
  d.name = "temperature";
  d.unit = "Cel";
  return d;
}

ResourceDescriptor setpoint_descriptor() {
  ResourceDescriptor d;
  d.path = {kObjActuation, 0, kResDimmer};
  d.name = "valve setpoint";
  d.unit = "%";
  d.writable = true;
  return d;
}

// ---------------------------------------------------------- resource model

TEST(ResourcePath, ParseAndFormat) {
  auto p = ResourcePath::parse("3303/0/5700");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->object, 3303);
  EXPECT_EQ(p->resource, 5700);
  EXPECT_EQ(p->str(), "3303/0/5700");
  EXPECT_EQ(ResourcePath::parse("junk"), std::nullopt);
  EXPECT_EQ(ResourcePath::parse("99999999/0/1"), std::nullopt);
}

TEST(ResourceValue, Conversions) {
  EXPECT_EQ(value_to_string(ResourceValue{true}), "true");
  EXPECT_EQ(value_to_string(ResourceValue{std::int64_t{42}}), "42");
  EXPECT_EQ(value_as_double(ResourceValue{21.5}), 21.5);
  EXPECT_EQ(value_as_double(ResourceValue{std::string("x")}), std::nullopt);
}

// ----------------------------------------------------------------- modbus

TEST(ModbusDevice, ReadHoldingRegister) {
  ModbusRtuDevice dev(1);
  dev.set_register(100, 2150);
  Buffer req{1, 0x03, 0x00, 100, 0x00, 0x01};
  const std::uint16_t crc = crc16_ccitt(req);
  req.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  req.push_back(static_cast<std::uint8_t>(crc >> 8));
  Buffer rsp = dev.process(req);
  ASSERT_GE(rsp.size(), 7u);
  EXPECT_EQ(rsp[1], 0x03);
  EXPECT_EQ((rsp[3] << 8) | rsp[4], 2150);
}

TEST(ModbusDevice, BadCrcIgnored) {
  ModbusRtuDevice dev(1);
  dev.set_register(100, 5);
  Buffer req{1, 0x03, 0x00, 100, 0x00, 0x01, 0xDE, 0xAD};
  EXPECT_TRUE(dev.process(req).empty());
}

TEST(ModbusDevice, WrongUnitSilent) {
  ModbusRtuDevice dev(7);
  Buffer req{1, 0x03, 0x00, 0, 0x00, 0x01};
  const std::uint16_t crc = crc16_ccitt(req);
  req.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  req.push_back(static_cast<std::uint8_t>(crc >> 8));
  EXPECT_TRUE(dev.process(req).empty());
}

TEST(ModbusDevice, UnknownRegisterIsException) {
  ModbusRtuDevice dev(1);
  Buffer req{1, 0x03, 0x12, 0x34, 0x00, 0x01};
  const std::uint16_t crc = crc16_ccitt(req);
  req.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  req.push_back(static_cast<std::uint8_t>(crc >> 8));
  Buffer rsp = dev.process(req);
  ASSERT_GE(rsp.size(), 3u);
  EXPECT_EQ(rsp[1], 0x83);  // function | 0x80
  EXPECT_EQ(rsp[2], 0x02);  // illegal data address
}

TEST(ModbusAdapter, ReadScalesFixedPoint) {
  ModbusRtuDevice dev(1);
  dev.set_register(100, 2150);  // 21.50 C as fixed-point x100
  ModbusAdapter adapter(dev, {{temp_descriptor(), 100, 100.0}});
  auto v = adapter.read({kObjTemperature, 0, kResSensorValue});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(v.value()), 21.5);
  EXPECT_GT(adapter.stats().pdu_bytes_out, 0u);
}

TEST(ModbusAdapter, WriteThrough) {
  ModbusRtuDevice dev(1);
  dev.set_register(200, 0);
  auto desc = setpoint_descriptor();
  ModbusAdapter adapter(dev, {{desc, 200, 100.0}});
  auto st = adapter.write(desc.path, ResourceValue{55.25});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(dev.reg(200), 5525);
}

TEST(ModbusAdapter, UnmappedPathFails) {
  ModbusRtuDevice dev(1);
  ModbusAdapter adapter(dev, {});
  EXPECT_FALSE(adapter.read({1, 0, 1}).ok());
}

// ------------------------------------------------------------------- gatt

TEST(GattDevice, ReadWriteAttribute) {
  GattDevice dev;
  dev.set_float(0x0021, 23.75f);
  Buffer read_req{0x0A, 0x21, 0x00};
  Buffer rsp = dev.process(read_req);
  ASSERT_EQ(rsp.size(), 5u);
  EXPECT_EQ(rsp[0], 0x0B);
  float v = 0;
  std::memcpy(&v, rsp.data() + 1, 4);
  EXPECT_FLOAT_EQ(v, 23.75f);
}

TEST(GattDevice, UnknownHandleErrors) {
  GattDevice dev;
  Buffer rsp = dev.process(Buffer{0x0A, 0x99, 0x00});
  ASSERT_EQ(rsp.size(), 5u);
  EXPECT_EQ(rsp[0], 0x01);  // error response
  EXPECT_EQ(rsp[4], 0x0A);  // attribute not found
}

TEST(GattAdapter, RoundTrip) {
  GattDevice dev;
  dev.set_float(0x0021, 19.5f);
  GattAdapter adapter(dev, {{temp_descriptor(), 0x0021}});
  auto v = adapter.read({kObjTemperature, 0, kResSensorValue});
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(std::get<double>(v.value()), 19.5, 1e-5);
}

TEST(GattAdapter, WriteUpdatesDevice) {
  GattDevice dev;
  dev.set_float(0x0030, 0.0f);
  auto desc = setpoint_descriptor();
  GattAdapter adapter(dev, {{desc, 0x0030}});
  ASSERT_TRUE(adapter.write(desc.path, ResourceValue{75.0}).ok());
  EXPECT_FLOAT_EQ(*dev.get_float(0x0030), 75.0f);
}

// ------------------------------------------------------------- vendor tlv

TEST(VendorDevice, ReadPoint) {
  VendorTlvDevice dev;
  dev.set_point(3, 42.125);
  VendorTlvAdapter adapter(dev, {{temp_descriptor(), 3}});
  auto v = adapter.read({kObjTemperature, 0, kResSensorValue});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(v.value()), 42.125);
}

TEST(VendorDevice, WritePoint) {
  VendorTlvDevice dev;
  dev.set_point(5, 0.0);
  auto desc = setpoint_descriptor();
  VendorTlvAdapter adapter(dev, {{desc, 5}});
  ASSERT_TRUE(adapter.write(desc.path, ResourceValue{9.75}).ok());
  EXPECT_DOUBLE_EQ(*dev.point(5), 9.75);
}

TEST(VendorDevice, CorruptChecksumIgnored) {
  VendorTlvDevice dev;
  dev.set_point(3, 1.0);
  Buffer frame{0xA5, 0x01, 0x03, 0x10, 0x01, 0x03, 0x00};  // bad xor
  EXPECT_TRUE(dev.process(frame).empty());
}

TEST(VendorDevice, UnknownPointErrors) {
  VendorTlvDevice dev;
  VendorTlvAdapter adapter(dev, {{temp_descriptor(), 9}});
  EXPECT_FALSE(adapter.read({kObjTemperature, 0, kResSensorValue}).ok());
  EXPECT_GE(adapter.stats().protocol_errors, 1u);
}

// ------------------------------------------------- adversarial error paths

Buffer modbus_with_crc(Buffer body) {
  const std::uint16_t crc = crc16_ccitt(body);
  body.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  body.push_back(static_cast<std::uint8_t>(crc >> 8));
  return body;
}

TEST(ModbusDevice, TruncatedFramesStaySilent) {
  ModbusRtuDevice dev(1);
  dev.set_register(100, 7);
  const Buffer full = modbus_with_crc({1, 0x03, 0x00, 100, 0x00, 0x01});
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_TRUE(dev.process(BytesView(full.data(), len)).empty())
        << "length " << len;
  }
}

TEST(ModbusDevice, IllegalFunctionGetsException) {
  ModbusRtuDevice dev(1);
  Buffer rsp = dev.process(modbus_with_crc({1, 0x55, 0x00, 0, 0x00, 0x01}));
  ASSERT_GE(rsp.size(), 3u);
  EXPECT_EQ(rsp[1], 0x55 | 0x80);
  EXPECT_EQ(rsp[2], 0x01);  // illegal function
}

TEST(ModbusDevice, ZeroAndOversizedCountsAreExceptions) {
  ModbusRtuDevice dev(1);
  dev.set_register(100, 7);
  Buffer zero = dev.process(modbus_with_crc({1, 0x03, 0x00, 100, 0x00, 0x00}));
  ASSERT_GE(zero.size(), 3u);
  EXPECT_EQ(zero[1], 0x83);
  Buffer big = dev.process(modbus_with_crc({1, 0x03, 0x00, 100, 0x00, 0xFF}));
  ASSERT_GE(big.size(), 3u);
  EXPECT_EQ(big[1], 0x83);
}

// Deterministic garbage fuzz: random byte soup must never crash the
// parser and (without a valid CRC) never elicit a response.
TEST(ModbusDevice, GarbageFuzzNeverAnswers) {
  ModbusRtuDevice dev(1);
  dev.set_register(100, 7);
  Rng rng(2024, 1);
  for (int i = 0; i < 500; ++i) {
    Buffer frame(rng.below(33));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_TRUE(dev.process(frame).empty()) << "iteration " << i;
  }
}

TEST(GattDevice, TruncatedPduYieldsErrorResponse) {
  GattDevice dev;
  dev.set_float(0x0021, 1.0f);
  for (std::size_t len = 0; len < 3; ++len) {
    const Buffer pdu(len, 0x0A);
    Buffer rsp = dev.process(pdu);
    ASSERT_EQ(rsp.size(), 5u) << "length " << len;
    EXPECT_EQ(rsp[0], 0x01);  // ATT error response
    EXPECT_EQ(rsp[4], 0x06);  // request not supported
  }
}

TEST(GattAdapter, TruncatedAttributeIsMalformed) {
  GattDevice dev;
  dev.set_float(0x0021, 1.0f);
  // Shrink the attribute to 2 bytes via a raw write PDU; the adapter's
  // read response is then not a 4-byte float and must be rejected.
  Buffer write{0x12, 0x21, 0x00, 0xAB, 0xCD};
  ASSERT_EQ(dev.process(write)[0], 0x13);
  GattAdapter adapter(dev, {{temp_descriptor(), 0x0021}});
  auto v = adapter.read({kObjTemperature, 0, kResSensorValue});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, Error::Code::kMalformed);
  EXPECT_GE(adapter.stats().protocol_errors, 1u);
}

TEST(GattDevice, GarbageFuzzAlwaysAnswersBounded) {
  GattDevice dev;
  dev.set_float(0x0021, 1.0f);
  Rng rng(2024, 2);
  for (int i = 0; i < 500; ++i) {
    Buffer pdu(rng.below(17));
    for (auto& b : pdu) b = static_cast<std::uint8_t>(rng.below(256));
    Buffer rsp = dev.process(pdu);
    // ATT always responds; replies are bounded by the largest attribute.
    ASSERT_FALSE(rsp.empty()) << "iteration " << i;
    EXPECT_LE(rsp.size(), 16u);
  }
}

Buffer vendor_frame(std::uint8_t cmd, Buffer tlvs) {
  // Sized once and filled in place: growing a 3-byte initializer list
  // makes GCC 12 warn falsely (-Warray-bounds).
  Buffer f(tlvs.size() + 4);
  f[0] = 0xA5;
  f[1] = cmd;
  f[2] = static_cast<std::uint8_t>(tlvs.size());
  std::copy(tlvs.begin(), tlvs.end(), f.begin() + 3);
  std::uint8_t x = 0;
  for (std::size_t i = 0; i + 1 < f.size(); ++i) x ^= f[i];
  f.back() = x;
  return f;
}

TEST(VendorDevice, UnknownCommandYieldsErrorFrame) {
  VendorTlvDevice dev;
  Buffer rsp = dev.process(vendor_frame(0x55, {}));
  ASSERT_GE(rsp.size(), 4u);
  EXPECT_EQ(rsp[0], 0xA5);
  EXPECT_EQ(rsp[1], 0x7F);  // vendor error command
}

TEST(VendorDevice, UnknownTlvTypesAreSkippedNotFatal) {
  VendorTlvDevice dev;
  dev.set_point(3, 6.5);
  // A foreign TLV (type 0x42) precedes the point id; the parser must
  // skip it and still serve the read.
  Buffer rsp =
      dev.process(vendor_frame(0x01, {0x42, 0x02, 0xAA, 0xBB, 0x10, 0x01, 3}));
  ASSERT_GE(rsp.size(), 4u);
  EXPECT_EQ(rsp[1], 0x81);  // read | 0x80: success
}

TEST(VendorDevice, OverrunningTlvLengthIsError) {
  VendorTlvDevice dev;
  dev.set_point(3, 6.5);
  // TLV claims 9 value bytes but only 1 follows.
  Buffer rsp = dev.process(vendor_frame(0x01, {0x10, 0x09, 3}));
  ASSERT_GE(rsp.size(), 4u);
  EXPECT_EQ(rsp[1], 0x7F);
}

TEST(VendorDevice, GarbageFuzzSilentOrError) {
  VendorTlvDevice dev;
  dev.set_point(3, 6.5);
  Rng rng(2024, 3);
  for (int i = 0; i < 500; ++i) {
    Buffer frame(rng.below(25));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    Buffer rsp = dev.process(frame);
    if (!rsp.empty()) {
      EXPECT_EQ(rsp[0], 0xA5) << "iteration " << i;
      EXPECT_TRUE(rsp[1] == 0x7F || rsp[1] == 0x81 || rsp[1] == 0x82)
          << "iteration " << i;
    }
  }
}

// ---------------------------------------------------------------- gateway

struct GatewayFixture : ::testing::Test {
  GatewayFixture()
      : modbus_dev(1),
        modbus_adapter(
            modbus_dev,
            {{temp_descriptor(0), 100, 100.0}, {setpoint_descriptor(), 200, 100.0}}),
        gatt_adapter(gatt_dev, {{temp_descriptor(1), 0x0021}}),
        vendor_adapter(vendor_dev, {{temp_descriptor(2), 3}}),
        gateway(sched, bus) {
    modbus_dev.set_register(100, 2100);
    modbus_dev.set_register(200, 0);
    gatt_dev.set_float(0x0021, 22.5f);
    vendor_dev.set_point(3, 23.0);
    gateway.add_device("plc", modbus_adapter);
    gateway.add_device("ble", gatt_adapter);
    gateway.add_device("legacy", vendor_adapter);
  }

  Scheduler sched;
  backend::TopicBus bus;
  ModbusRtuDevice modbus_dev;
  ModbusAdapter modbus_adapter;
  GattDevice gatt_dev;
  GattAdapter gatt_adapter;
  VendorTlvDevice vendor_dev;
  VendorTlvAdapter vendor_adapter;
  Gateway gateway;
};

TEST_F(GatewayFixture, UnifiedReadAcrossProtocols) {
  auto plc = gateway.read("plc", {kObjTemperature, 0, kResSensorValue});
  auto ble = gateway.read("ble", {kObjTemperature, 1, kResSensorValue});
  auto leg = gateway.read("legacy", {kObjTemperature, 2, kResSensorValue});
  ASSERT_TRUE(plc.ok());
  ASSERT_TRUE(ble.ok());
  ASSERT_TRUE(leg.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(plc.value()), 21.0);
  EXPECT_NEAR(std::get<double>(ble.value()), 22.5, 1e-5);
  EXPECT_DOUBLE_EQ(std::get<double>(leg.value()), 23.0);
  EXPECT_EQ(gateway.resource_count(), 4u);
}

TEST_F(GatewayFixture, PollingPublishesToBus) {
  std::map<std::string, std::string> seen;
  bus.subscribe("site/#", [&](const std::string& t, BytesView p) {
    seen[t] = to_string(p);
  });
  gateway.start();
  sched.run_until(30_s);
  EXPECT_EQ(seen.count("site/plc/3303/0/5700"), 1u);
  EXPECT_EQ(seen.count("site/ble/3303/1/5700"), 1u);
  EXPECT_EQ(seen.count("site/legacy/3303/2/5700"), 1u);
  EXPECT_EQ(seen["site/legacy/3303/2/5700"].substr(0, 7), "23.0000");
}

TEST_F(GatewayFixture, BusCommandWritesThroughToLegacyDevice) {
  gateway.start();
  bus.publish("cmd/plc/3306/0/5851", std::string("42.5"));
  EXPECT_EQ(modbus_dev.reg(200), 4250);
}

TEST_F(GatewayFixture, CoapExposureServesAndActuates) {
  Rng rng(5);
  // Loopback CoAP pair: client(9) <-> gateway endpoint(10).
  std::unique_ptr<coap::Endpoint> client, server;
  auto fwd = [this, &client, &server](NodeId to) {
    return [this, to, &client, &server](NodeId, Buffer bytes) {
      sched.schedule_after(1'000, [to, &client, &server,
                                   bytes = std::move(bytes)] {
        (to == 9 ? client : server)->on_datagram(to == 9 ? 10 : 9, bytes);
      });
      return true;
    };
  };
  client = std::make_unique<coap::Endpoint>(9, sched, rng.fork(1), fwd(10));
  server = std::make_unique<coap::Endpoint>(10, sched, rng.fork(2), fwd(9));
  gateway.expose_coap(*server);

  std::string got;
  client->get(10, "dev/ble/3303/1/5700", [&](Result<coap::Response> r) {
    if (r.ok()) got = to_string(r.value().payload);
  });
  bool put_ok = false;
  client->put(10, "dev/plc/3306/0/5851", to_buffer("12.5"),
              [&](Result<coap::Response> r) {
                put_ok = r.ok() && r.value().code == coap::Code::kChanged;
              });
  sched.run_until(5_s);
  EXPECT_EQ(got.substr(0, 4), "22.5");
  EXPECT_TRUE(put_ok);
  EXPECT_EQ(modbus_dev.reg(200), 1250);
}

TEST_F(GatewayFixture, RuleEngineClosesTheLoopAcrossProtocols) {
  // Vendor sensor exceeds threshold -> rule fires -> Modbus actuator set.
  backend::RuleEngine rules(bus);
  backend::Condition cond;
  cond.topic_filter = "site/legacy/3303/2/5700";
  cond.op = backend::CmpOp::kGreater;
  cond.threshold = 40.0;
  backend::Action act;
  act.command_topic = "cmd/plc/3306/0/5851";
  act.command_payload = "100";
  rules.add_rule("overtemp", cond, act);

  gateway.start();
  vendor_dev.set_point(3, 45.0);  // hot!
  sched.run_until(30_s);
  EXPECT_EQ(modbus_dev.reg(200), 10000);  // 100.00 %
  EXPECT_GE(rules.firings(), 1u);
}

}  // namespace
}  // namespace iiot::interop

// E10 — The cost of link-layer security on constrained devices
// (paper §V-E, refs [14], [46]).
//
// Claim: standards "do include provisions for a range of secure modes
// [but] they are hardly implemented" — because every level of protection
// costs bytes on air, CPU cycles, and therefore energy and lifetime on
// battery devices. This bench quantifies the cost of every 802.15.4
// security level with real CCM* cryptography (software AES-128).
//
// Output per level: bytes of overhead, AES blocks and estimated cycles
// per protected frame, microjoules per frame, and the projected battery
// lifetime of a sensor reporting every 30 s, then the measured wall-clock
// time of one protect/unprotect round trip per level on the build machine.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "energy/meter.hpp"
#include "security/secure_link.hpp"

namespace {

using namespace iiot;
using namespace iiot::security;

constexpr std::size_t kPayload = 48;   // typical sensor report
constexpr double kCpuNjPerCycle = 0.5;
constexpr double kTxNjPerByte = 52.2 * 32.0 / 1000.0;  // 52.2 mW * 32 us/B
constexpr SecurityLevel kLevels[] = {
    SecurityLevel::kNone,     SecurityLevel::kMic32,
    SecurityLevel::kMic64,    SecurityLevel::kMic128,
    SecurityLevel::kEnc,      SecurityLevel::kEncMic32,
    SecurityLevel::kEncMic64, SecurityLevel::kEncMic128};

struct CostRow {
  std::size_t overhead_bytes = 0;
  double aes_blocks = 0;
  double cycles = 0;
  double energy_uj = 0;       // crypto + extra airtime, per frame
  double lifetime_days = 0;   // 2xAA (~20 kJ), one frame per 30 s
};

CostRow measure(SecurityLevel level) {
  AesKey key{0x42};
  SecureLink tx(key, level);
  SecureLink rx(key, level);
  constexpr int kFrames = 200;
  Buffer payload(kPayload, 0xAB);
  for (int i = 0; i < kFrames; ++i) {
    Buffer wire = tx.protect(7, payload);
    auto opened = rx.unprotect(7, wire);
    if (!opened.ok()) std::abort();
  }
  CostRow row;
  row.overhead_bytes = tx.overhead_bytes();
  row.aes_blocks = static_cast<double>(tx.aes_blocks() + rx.aes_blocks()) /
                   kFrames;
  row.cycles = row.aes_blocks * Aes128::kCyclesPerBlock;
  const double crypto_uj = row.cycles * kCpuNjPerCycle / 1000.0;
  const double airtime_uj =
      static_cast<double>(row.overhead_bytes) * kTxNjPerByte;
  row.energy_uj = crypto_uj + airtime_uj;

  // Lifetime model: baseline node duty (sampling + unsecured frame) costs
  // ~60 uJ per 30 s reporting period plus 3 uA sleep (~9 uJ/s).
  const double per_period_uj = 60.0 + row.energy_uj;
  const double sleep_w = 9e-6;
  const double avg_w = per_period_uj * 1e-6 / 30.0 + sleep_w;
  row.lifetime_days = 20'000.0 / avg_w / 86400.0;
  return row;
}

void print_table() {
  std::printf("%-14s %10s %10s %12s %12s %14s\n", "level", "ovh[B]",
              "AES blk/f", "cycles/f", "uJ/frame", "lifetime[d]");
  for (SecurityLevel level : kLevels) {
    const CostRow r = measure(level);
    std::printf("%-14s %10zu %10.1f %12.0f %12.2f %14.0f\n",
                level_name(level), r.overhead_bytes, r.aes_blocks, r.cycles,
                r.energy_uj, r.lifetime_days);
  }
}

// Wall-clock cost of the crypto primitives on the build machine
// (complements the cycle model above): a fixed number of round trips per
// level. The checksum of the opened payloads is printed, so the loop
// cannot be optimised away.
void print_timing() {
  constexpr int kRoundTrips = 20'000;
  std::printf("%-14s %14s %12s\n", "level", "ns/roundtrip", "checksum");
  for (SecurityLevel level : kLevels) {
    AesKey key{0x42};
    SecureLink tx(key, level);
    SecureLink rx(key, level);
    Buffer payload(kPayload, 0xAB);
    std::uint64_t checksum = 0;
    const double t0 = bench::now_seconds();
    for (int i = 0; i < kRoundTrips; ++i) {
      payload[0] = static_cast<std::uint8_t>(i);
      Buffer wire = tx.protect(7, payload);
      auto opened = rx.unprotect(7, wire);
      if (!opened.ok()) std::abort();
      for (std::uint8_t b : opened.value()) checksum += b;
    }
    const double ns = (bench::now_seconds() - t0) * 1e9 / kRoundTrips;
    std::printf("%-14s %14.0f %12llu\n", level_name(level), ns,
                static_cast<unsigned long long>(checksum));
  }
}

}  // namespace

int main() {
  std::printf(
      "\n==================================================================\n"
      "E10: per-frame cost of 802.15.4 security levels (48-byte payload)\n"
      "Claim under test: secure modes cost bytes, cycles and lifetime on\n"
      "constrained devices — the reason they are 'hardly implemented'\n"
      "==================================================================\n");
  print_table();
  std::printf(
      "\nShape check: overhead steps 0 -> 9..21 B; crypto work roughly\n"
      "doubles from MIC-only to ENC+MIC; full protection costs a modest\n"
      "but real lifetime reduction at this duty cycle — the trade gets\n"
      "worse at higher report rates, which is the adoption barrier.\n\n");
  print_timing();
  return 0;
}

// Flat duplicate-suppression tables for per-node protocol state.
//
// A city world holds one MAC and one routing instance per node, so every
// byte of their duplicate tables is paid thousands of times. These tables
// keep 64-bit keys in one open-addressing array (linear probing over a
// power-of-two slot count) and allocate nothing until the first key
// arrives (DESIGN.md §4j, per-node memory budget).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace iiot {

/// Open-addressing table of 64-bit keys holding at most one key per
/// identity `key >> Shift`. With Shift 0 it is a set of keys; with
/// Shift 16 over keys `(src << 16) | seq` it maps src to its last seq in
/// one word per entry. All-ones marks an empty slot; the one identity that
/// marker shares is kept beside the array, so every key is storable.
template <unsigned Shift>
class FlatKeyTable {
 public:
  /// The stored key with identity `id`, or nullptr. The caller may
  /// overwrite it with another key of the same identity.
  [[nodiscard]] std::uint64_t* find(std::uint64_t id) {
    if (id == kEmptyId) return has_edge_ ? &edge_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = next(i)) {
      std::uint64_t& s = slots_[i];
      if (s == kEmpty) return nullptr;
      if ((s >> Shift) == id) return &s;
    }
  }

  /// Adds `key`; the table must hold no key of the same identity.
  void insert(std::uint64_t key) {
    if ((key >> Shift) == kEmptyId) {
      edge_ = key;
      has_edge_ = true;
      return;
    }
    if ((used_ + 1) * 4 > slots_.size() * 3) grow();  // load <= 3/4
    place(key);
    ++used_;
  }

  /// Removes the key with identity `id`, if present.
  void erase(std::uint64_t id) {
    if (id == kEmptyId) {
      has_edge_ = false;
      return;
    }
    if (slots_.empty()) return;
    std::size_t hole = home(id);
    for (;; hole = next(hole)) {
      if (slots_[hole] == kEmpty) return;
      if ((slots_[hole] >> Shift) == id) break;
    }
    // Backward-shift deletion: a later key of the same probe run moves
    // into the hole unless its home slot lies cyclically in (hole, j],
    // so lookups never need tombstones.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); slots_[j] != kEmpty; j = next(j)) {
      const std::size_t h = home(slots_[j] >> Shift);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --used_;
  }

  [[nodiscard]] std::size_t size() const {
    return used_ + (has_edge_ ? 1 : 0);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kEmptyId = kEmpty >> Shift;

  /// Fibonacci hashing: the top bits of id × 2^64/φ, so consecutive node
  /// ids spread over the whole array.
  [[nodiscard]] std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                    hash_shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }
  void place(std::uint64_t key) {
    std::size_t i = home(key >> Shift);
    while (slots_[i] != kEmpty) i = next(i);
    slots_[i] = key;
  }
  void grow() {
    std::vector<std::uint64_t> old(slots_.empty() ? 8 : slots_.size() * 2,
                                   kEmpty);
    old.swap(slots_);
    hash_shift_ =
        static_cast<unsigned>(64 - std::countr_zero(slots_.size()));
    for (const std::uint64_t k : old) {
      if (k != kEmpty) place(k);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t used_ = 0;  // keys in slots_
  unsigned hash_shift_ = 64;
  bool has_edge_ = false;
  std::uint64_t edge_ = 0;  // the key whose identity is kEmptyId
};

/// Link-layer duplicate table: the last 16-bit sequence number heard from
/// each 32-bit source, one word per source.
class LastSeqTable {
 public:
  /// False when `seq` repeats the last sequence number recorded for
  /// `src`; otherwise records it and returns true.
  bool fresh(std::uint32_t src, std::uint16_t seq) {
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 16) | seq;
    if (std::uint64_t* last = table_.find(src)) {
      if (*last == key) return false;
      *last = key;
      return true;
    }
    table_.insert(key);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

 private:
  FlatKeyTable<16> table_;
};

/// The last `capacity` (> 0) distinct keys in arrival order: a ring of
/// keys plus a set of them. An empty window is its capacity and a null
/// pointer; the first key allocates one block holding the set, the ring's
/// cursors and, behind them, the ring slots. The block is replaced as the
/// ring grows (1, 2, 4, ... slots, at most `capacity`), so the window
/// allocates exactly as often as a vector-backed ring would.
class KeyWindow {
 public:
  explicit KeyWindow(std::size_t capacity) : capacity_(capacity) {}
  KeyWindow(const KeyWindow&) = delete;
  KeyWindow& operator=(const KeyWindow&) = delete;
  ~KeyWindow() { release(block_); }

  /// True when `key` is in the window. Otherwise records it, evicting the
  /// oldest key first once the window is full, and returns false.
  bool seen_or_insert(std::uint64_t key) {
    if (block_ != nullptr && block_->set.find(key) != nullptr) return true;
    if (size() < capacity_) {
      if (block_ == nullptr || block_->size == block_->slots) grow();
      block_->ring()[block_->size++] = key;
    } else {
      std::uint64_t& slot = block_->ring()[block_->oldest];
      block_->set.erase(slot);
      slot = key;
      block_->oldest = block_->oldest + 1 == capacity_ ? 0 : block_->oldest + 1;
    }
    block_->set.insert(key);
    return false;
  }

  [[nodiscard]] std::size_t size() const {
    return block_ == nullptr ? 0 : block_->size;
  }

 private:
  struct Block {
    FlatKeyTable<0> set;
    std::size_t size = 0;    // keys in the ring
    std::size_t slots = 0;   // ring slots that follow this header
    std::size_t oldest = 0;  // ring slot of the oldest key once full
    std::uint64_t* ring() {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
  };
  static_assert(sizeof(Block) % alignof(std::uint64_t) == 0);

  /// Moves the window into a block with twice the ring slots (one at
  /// first), capped at capacity_.
  void grow() {
    const std::size_t slots =
        block_ == nullptr ? 1 : std::min(2 * block_->slots, capacity_);
    Block* b = ::new (::operator new(sizeof(Block) +
                                     slots * sizeof(std::uint64_t))) Block;
    b->slots = slots;
    if (block_ != nullptr) {
      b->set = std::move(block_->set);
      b->size = block_->size;
      std::copy_n(block_->ring(), block_->size, b->ring());
      release(block_);
    }
    block_ = b;
  }
  static void release(Block* b) {
    if (b == nullptr) return;
    b->~Block();
    ::operator delete(b);
  }

  std::size_t capacity_;
  Block* block_ = nullptr;
};

}  // namespace iiot

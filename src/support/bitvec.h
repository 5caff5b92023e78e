// Dynamic bit vector with word-level operations.
//
// Used for truth tables, configuration frames and simulation values.  The
// semantics follow std::vector<bool> but expose the underlying 64-bit words
// so that bulk operations (xor-diff between bitstream frames, popcount of
// changed bits) run at word speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.h"

namespace fpgadbg {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits, bool value = false);

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  void resize(std::size_t nbits, bool value = false);
  void clear();

  // Single-bit access is inline: the SCG and the simulators call it per
  // BDD node and per cell.
  bool get(std::size_t i) const {
    FPGADBG_ASSERT(i < nbits_, "BitVec::get out of range");
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }
  void set(std::size_t i, bool value) {
    FPGADBG_ASSERT(i < nbits_, "BitVec::set out of range");
    const std::uint64_t mask = 1ULL << (i % 64);
    if (value) {
      words_[i / 64] |= mask;
    } else {
      words_[i / 64] &= ~mask;
    }
  }
  void flip(std::size_t i) {
    FPGADBG_ASSERT(i < nbits_, "BitVec::flip out of range");
    words_[i / 64] ^= 1ULL << (i % 64);
  }

  /// Number of set bits.
  std::size_t count() const;
  bool any() const { return count() > 0; }
  bool none() const { return count() == 0; }

  /// Word-level access; the last word's unused high bits are always zero.
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  void set_word(std::size_t w, std::uint64_t value);

  /// In-place bitwise operators; operands must have equal size.
  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  void invert();

  bool operator==(const BitVec& o) const = default;

  /// Number of positions where *this and o differ.  Sizes must match.
  std::size_t hamming_distance(const BitVec& o) const;

  /// Index of the first set bit, or size() if none.
  std::size_t find_first() const;
  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t find_next(std::size_t from) const;

 private:
  void mask_tail();

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace fpgadbg

#include "support/bitvec.h"

#include <bit>

#include "support/error.h"

namespace fpgadbg {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t nbits) {
  return (nbits + kWordBits - 1) / kWordBits;
}
}  // namespace

BitVec::BitVec(std::size_t nbits, bool value) { resize(nbits, value); }

void BitVec::resize(std::size_t nbits, bool value) {
  const std::uint64_t fill = value ? ~0ULL : 0ULL;
  if (value && nbits > nbits_ && !words_.empty()) {
    // Newly exposed bits in the current tail word must be set by hand.
    const std::size_t tail_bits = nbits_ % kWordBits;
    if (tail_bits != 0) {
      words_.back() |= ~0ULL << tail_bits;
    }
  }
  words_.resize(words_for(nbits), fill);
  nbits_ = nbits;
  mask_tail();
}

void BitVec::clear() {
  nbits_ = 0;
  words_.clear();
}

std::size_t BitVec::count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += std::popcount(w);
  return total;
}

void BitVec::set_word(std::size_t w, std::uint64_t value) {
  FPGADBG_ASSERT(w < words_.size(), "BitVec::set_word out of range");
  words_[w] = value;
  if (w + 1 == words_.size()) mask_tail();
}

BitVec& BitVec::operator&=(const BitVec& o) {
  FPGADBG_ASSERT(nbits_ == o.nbits_, "BitVec size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  FPGADBG_ASSERT(nbits_ == o.nbits_, "BitVec size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  FPGADBG_ASSERT(nbits_ == o.nbits_, "BitVec size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= o.words_[w];
  return *this;
}

void BitVec::invert() {
  for (auto& w : words_) w = ~w;
  mask_tail();
}

std::size_t BitVec::hamming_distance(const BitVec& o) const {
  FPGADBG_ASSERT(nbits_ == o.nbits_, "BitVec size mismatch");
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total += std::popcount(words_[w] ^ o.words_[w]);
  }
  return total;
}

std::size_t BitVec::find_first() const { return find_next(0); }

std::size_t BitVec::find_next(std::size_t from) const {
  if (from >= nbits_) return nbits_;
  std::size_t w = from / kWordBits;
  std::uint64_t word = words_[w] & (~0ULL << (from % kWordBits));
  for (;;) {
    if (word != 0) {
      const std::size_t bit =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
      return bit < nbits_ ? bit : nbits_;
    }
    if (++w == words_.size()) return nbits_;
    word = words_[w];
  }
}

void BitVec::mask_tail() {
  const std::size_t tail_bits = nbits_ % kWordBits;
  if (tail_bits != 0 && !words_.empty()) {
    words_.back() &= ~0ULL >> (kWordBits - tail_bits);
  }
}

}  // namespace fpgadbg

#include "arith/bigint.h"

#include <algorithm>
#include <cctype>
#include <ostream>

namespace lcdb {

namespace {
constexpr uint64_t kBase = uint64_t{1} << 32;

size_t MagnitudeBitLength(const std::vector<uint32_t>& limbs) {
  if (limbs.empty()) return 0;
  uint32_t top = limbs.back();
  size_t bits = (limbs.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}
}  // namespace

BigInt::BigInt(int64_t value) {
  if (value >= -kSmallMax && value <= kSmallMax) {
    small_ = value;
    return;
  }
  // |value| exceeds the inline range (only near INT64_MIN/MAX).
  negative_ = value < 0;
  uint64_t magnitude = negative_ ? ~static_cast<uint64_t>(value) + 1
                                 : static_cast<uint64_t>(value);
  limbs_.push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
  if (magnitude >> 32) limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
}

std::vector<uint32_t> BigInt::SmallLimbs(int64_t value) {
  std::vector<uint32_t> out;
  uint64_t magnitude = value < 0 ? ~static_cast<uint64_t>(value) + 1
                                 : static_cast<uint64_t>(value);
  if (magnitude) out.push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
  if (magnitude >> 32) out.push_back(static_cast<uint32_t>(magnitude >> 32));
  return out;
}

void BigInt::SetMagnitude(std::vector<uint32_t> limbs, bool negative) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  if (limbs.size() <= 2) {
    uint64_t magnitude = 0;
    for (size_t i = limbs.size(); i-- > 0;) {
      magnitude = (magnitude << 32) | limbs[i];
    }
    if (magnitude <= static_cast<uint64_t>(kSmallMax)) {
      small_ = negative ? -static_cast<int64_t>(magnitude)
                        : static_cast<int64_t>(magnitude);
      negative_ = false;
      limbs_.clear();
      return;
    }
  }
  small_ = 0;
  negative_ = negative;
  limbs_ = std::move(limbs);
}

Result<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty integer literal");
  size_t pos = 0;
  bool negative = false;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) return Status::ParseError("sign without digits");
  BigInt out;
  const BigInt ten(10);
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::ParseError("invalid digit in integer literal: " +
                                std::string(text));
    }
    out = out * ten + BigInt(c - '0');
  }
  if (negative) out = -out;
  return out;
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> BigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  const size_t n = std::max(a.size(), b.size());
  out.reserve(n + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  LCDB_CHECK(borrow == 0);
  return out;
}

BigInt BigInt::AddSigned(const std::vector<uint32_t>& a, bool a_neg,
                         const std::vector<uint32_t>& b, bool b_neg) {
  BigInt out;
  if (a_neg == b_neg) {
    out.SetMagnitude(AddMagnitude(a, b), a_neg);
    return out;
  }
  const int cmp = CompareMagnitude(a, b);
  if (cmp == 0) return out;
  if (cmp > 0) {
    out.SetMagnitude(SubMagnitude(a, b), a_neg);
  } else {
    out.SetMagnitude(SubMagnitude(b, a), b_neg);
  }
  return out;
}

BigInt BigInt::operator-() const {
  if (IsSmall()) return BigInt(-small_);
  BigInt out = *this;
  out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::Abs() const {
  if (IsSmall()) return BigInt(small_ < 0 ? -small_ : small_);
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (IsSmall() && other.IsSmall()) {
    // |small| <= 2^62 - 1 each, so the int64 sum cannot overflow.
    return BigInt(small_ + other.small_);
  }
  return AddSigned(IsSmall() ? SmallLimbs(small_) : limbs_, IsNegative(),
                   other.IsSmall() ? SmallLimbs(other.small_) : other.limbs_,
                   other.IsNegative());
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (IsSmall() && other.IsSmall()) {
    return BigInt(small_ - other.small_);
  }
  return AddSigned(IsSmall() ? SmallLimbs(small_) : limbs_, IsNegative(),
                   other.IsSmall() ? SmallLimbs(other.small_) : other.limbs_,
                   !other.IsNegative());
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (IsSmall() && other.IsSmall()) {
    int64_t product;
    if (!__builtin_mul_overflow(small_, other.small_, &product) &&
        product >= -kSmallMax && product <= kSmallMax) {
      BigInt out;
      out.small_ = product;
      return out;
    }
  }
  if (IsZero() || other.IsZero()) return BigInt();
  const std::vector<uint32_t> a = IsSmall() ? SmallLimbs(small_) : limbs_;
  const std::vector<uint32_t> b =
      other.IsSmall() ? SmallLimbs(other.small_) : other.limbs_;
  std::vector<uint32_t> prod(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = prod[i + j] + static_cast<uint64_t>(a[i]) * b[j] + carry;
      prod[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = prod[k] + carry;
      prod[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  BigInt out;
  out.SetMagnitude(std::move(prod), IsNegative() != other.IsNegative());
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  LCDB_CHECK_MSG(!b.IsZero(), "division by zero");
  if (a.IsSmall() && b.IsSmall()) {
    BigInt q, r;
    q.small_ = a.small_ / b.small_;
    r.small_ = a.small_ % b.small_;
    *quotient = std::move(q);
    *remainder = std::move(r);
    return;
  }
  const std::vector<uint32_t> am = a.IsSmall() ? SmallLimbs(a.small_) : a.limbs_;
  const std::vector<uint32_t> bm = b.IsSmall() ? SmallLimbs(b.small_) : b.limbs_;
  if (CompareMagnitude(am, bm) < 0) {
    *quotient = BigInt();
    *remainder = a;
    return;
  }
  // Schoolbook long division on magnitudes, one bit at a time. This is
  // O(bits * limbs), adequate for lcdb's coefficient sizes.
  const size_t bits = MagnitudeBitLength(am);
  std::vector<uint32_t> q(am.size(), 0);
  std::vector<uint32_t> r;
  for (size_t i = bits; i-- > 0;) {
    // r = r * 2 + bit_i(a)
    uint32_t carry = (am[i / 32] >> (i % 32)) & 1u;
    for (size_t k = 0; k < r.size(); ++k) {
      uint32_t next = r[k] >> 31;
      r[k] = (r[k] << 1) | carry;
      carry = next;
    }
    if (carry) r.push_back(carry);
    if (CompareMagnitude(r, bm) >= 0) {
      r = SubMagnitude(r, bm);
      while (!r.empty() && r.back() == 0) r.pop_back();
      q[i / 32] |= (uint32_t{1} << (i % 32));
    }
  }
  BigInt qi, ri;
  qi.SetMagnitude(std::move(q), a.IsNegative() != b.IsNegative());
  ri.SetMagnitude(std::move(r), a.IsNegative());
  *quotient = std::move(qi);
  *remainder = std::move(ri);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

bool BigInt::operator==(const BigInt& other) const {
  if (IsSmall() != other.IsSmall()) return false;  // forms are canonical
  if (IsSmall()) return small_ == other.small_;
  return negative_ == other.negative_ && limbs_ == other.limbs_;
}

bool BigInt::operator<(const BigInt& other) const {
  if (IsSmall() && other.IsSmall()) return small_ < other.small_;
  const bool a_neg = IsNegative(), b_neg = other.IsNegative();
  if (a_neg != b_neg) return a_neg;
  // At least one is big; the big one has the larger magnitude.
  int cmp;
  if (IsSmall()) {
    cmp = -1;  // |small| < |big|
  } else if (other.IsSmall()) {
    cmp = 1;
  } else {
    cmp = CompareMagnitude(limbs_, other.limbs_);
  }
  return a_neg ? cmp > 0 : cmp < 0;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  if (a.IsSmall() && b.IsSmall()) {
    int64_t x = a.small_ < 0 ? -a.small_ : a.small_;
    int64_t y = b.small_ < 0 ? -b.small_ : b.small_;
    while (y != 0) {
      int64_t r = x % y;
      x = y;
      y = r;
    }
    return BigInt(x);
  }
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

bool BigInt::Bit(size_t i) const {
  if (IsSmall()) {
    if (i >= 63) return false;
    uint64_t magnitude =
        small_ < 0 ? static_cast<uint64_t>(-small_) : static_cast<uint64_t>(small_);
    return (magnitude >> i) & 1u;
  }
  const size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

size_t BigInt::BitLength() const {
  if (IsSmall()) {
    uint64_t magnitude =
        small_ < 0 ? static_cast<uint64_t>(-small_) : static_cast<uint64_t>(small_);
    size_t bits = 0;
    while (magnitude) {
      ++bits;
      magnitude >>= 1;
    }
    return bits;
  }
  return MagnitudeBitLength(limbs_);
}

bool BigInt::FitsInt64() const {
  if (IsSmall()) return true;
  const size_t bits = MagnitudeBitLength(limbs_);
  if (bits < 64) return true;
  if (bits > 64) return false;
  // Exactly 64 bits: only INT64_MIN (magnitude 2^63, negative) fits.
  return negative_ && bits == 64 && limbs_.size() == 2 && limbs_[0] == 0 &&
         limbs_[1] == 0x80000000u;
}

int64_t BigInt::ToInt64() const {
  if (IsSmall()) return small_;
  LCDB_CHECK_MSG(FitsInt64(), "BigInt does not fit in int64_t");
  uint64_t magnitude = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    magnitude = (magnitude << 32) | limbs_[i];
  }
  // Negate in unsigned arithmetic: magnitude 2^63 (INT64_MIN) has no
  // positive int64_t, and the conversion back is modular since C++20.
  return static_cast<int64_t>(negative_ ? 0 - magnitude : magnitude);
}

std::string BigInt::ToString() const {
  if (IsSmall()) return std::to_string(small_);
  // Repeatedly divide the magnitude by 10^9 to produce decimal chunks.
  std::vector<uint32_t> scratch(limbs_);
  std::string digits;
  constexpr uint64_t kChunk = 1000000000;
  while (!scratch.empty()) {
    uint64_t rem = 0;
    for (size_t i = scratch.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | scratch[i];
      scratch[i] = static_cast<uint32_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    while (!scratch.empty() && scratch.back() == 0) scratch.pop_back();
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigInt BigInt::Pow2(size_t k) {
  if (k < 62) return BigInt(int64_t{1} << k);
  std::vector<uint32_t> limbs(k / 32 + 1, 0);
  limbs.back() = uint32_t{1} << (k % 32);
  BigInt out;
  out.SetMagnitude(std::move(limbs), false);
  return out;
}

size_t BigInt::Hash() const {
  if (IsSmall()) {
    // Mix so that hash(small k) == hash of the same value in big form is
    // irrelevant: forms are canonical, equal values share a form.
    uint64_t v = static_cast<uint64_t>(small_);
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdull;
    v ^= v >> 33;
    return static_cast<size_t>(v);
  }
  size_t h = negative_ ? 0x9e3779b97f4a7c15ull : 0;
  for (uint32_t limb : limbs_) {
    h ^= limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace lcdb

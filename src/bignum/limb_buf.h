// Small-buffer-optimized limb storage for BigInt.
//
// Audit-loop operands are at most the RSA modulus width (1024- or 2048-bit
// N, i.e. 16 or 32 limbs), and intermediate products / division scratch peak
// at roughly twice the modulus width plus a carry limb. kInlineLimbs is sized
// so every value the steady-state protocol touches lives inline and BigInt
// temporaries never hit the allocator; wider values (block-sized exponents
// and their products) spill to a heap block that grows geometrically and
// never shrinks.
//
// Semantics match the std::vector<Limb> this replaces, with two deliberate
// exceptions: capacity never shrinks (shrink_to_fit would reintroduce churn),
// and a moved-from buffer is always reset to the empty inline state so a
// moved-from BigInt is a normalized zero.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace ice::bn {

class LimbBuf {
 public:
  using Limb = std::uint64_t;
  /// 36 limbs = 2304 bits: covers 2048-bit operands plus the extra limbs
  /// Knuth-D normalization and add carries need, so `x mod N` on a
  /// double-width product stays allocation-free.
  static constexpr std::size_t kInlineLimbs = 36;

  LimbBuf() = default;

  explicit LimbBuf(std::size_t n, Limb fill = 0) { resize(n, fill); }

  LimbBuf(const Limb* first, const Limb* last) {
    assign(first, static_cast<std::size_t>(last - first));
  }

  LimbBuf(const LimbBuf& o) { assign(o.data(), o.size_); }

  LimbBuf(LimbBuf&& o) noexcept { steal(o); }

  LimbBuf& operator=(const LimbBuf& o) {
    if (this != &o) assign(o.data(), o.size_);
    return *this;
  }

  LimbBuf& operator=(LimbBuf&& o) noexcept {
    if (this == &o) return *this;
    if (o.is_inline()) {
      // Keep our storage (it may already be big enough); just copy limbs.
      resize_uninit(o.size_);
      copy_limbs(data(), o.data(), o.size_);
      o.size_ = 0;
    } else {
      release();
      steal(o);
    }
    return *this;
  }

  ~LimbBuf() { release(); }

  [[nodiscard]] bool is_inline() const { return heap_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] Limb* data() { return heap_ ? heap_ : inline_; }
  [[nodiscard]] const Limb* data() const { return heap_ ? heap_ : inline_; }

  [[nodiscard]] Limb* begin() { return data(); }
  [[nodiscard]] Limb* end() { return data() + size_; }
  [[nodiscard]] const Limb* begin() const { return data(); }
  [[nodiscard]] const Limb* end() const { return data() + size_; }

  Limb& operator[](std::size_t i) { return data()[i]; }
  const Limb& operator[](std::size_t i) const { return data()[i]; }

  Limb& back() { return data()[size_ - 1]; }
  [[nodiscard]] const Limb& back() const { return data()[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(Limb v) {
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = v;
  }

  void pop_back() { --size_; }

  /// Grows with zero-fill of new limbs (matches vector::resize), shrinks by
  /// dropping the tail; capacity is retained either way.
  void resize(std::size_t n, Limb fill = 0) {
    if (n > size_) {
      reserve(n);
      std::fill(data() + size_, data() + n, fill);
    }
    size_ = n;
  }

  /// Grows without initializing new limbs. For callers that overwrite the
  /// whole buffer immediately (deserialization, kernel outputs).
  void resize_uninit(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  void assign(const Limb* src, std::size_t n) {
    resize_uninit(n);
    copy_limbs(data(), src, n);
  }

  void assign(std::size_t n, Limb fill) {
    resize_uninit(n);
    std::fill(data(), data() + n, fill);
  }

  template <typename It>
  void assign(It first, It last) {
    resize_uninit(static_cast<std::size_t>(std::distance(first, last)));
    std::copy(first, last, data());
  }

  /// Value equality: storage mode (inline vs heap) is invisible.
  friend bool operator==(const LimbBuf& a, const LimbBuf& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_ * sizeof(Limb)) == 0);
  }

 private:
  static void copy_limbs(Limb* dst, const Limb* src, std::size_t n) {
    if (n) std::memcpy(dst, src, n * sizeof(Limb));
  }

  void grow(std::size_t need) {
    const std::size_t new_cap = std::max(need, cap_ * 2);
    Limb* fresh = new Limb[new_cap];
    copy_limbs(fresh, data(), size_);
    release();
    heap_ = fresh;
    cap_ = new_cap;
  }

  void release() {
    delete[] heap_;
    heap_ = nullptr;
    cap_ = kInlineLimbs;
  }

  /// Move-from: heap blocks transfer ownership, inline limbs are copied.
  /// Either way `o` ends empty and inline. Caller must not own a heap block.
  void steal(LimbBuf& o) noexcept {
    if (o.heap_) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.heap_ = nullptr;
      o.cap_ = kInlineLimbs;
      o.size_ = 0;
    } else {
      size_ = o.size_;
      copy_limbs(inline_, o.inline_, o.size_);
      o.size_ = 0;
    }
  }

  std::size_t size_ = 0;
  std::size_t cap_ = kInlineLimbs;
  Limb* heap_ = nullptr;  // nullptr => limbs live in inline_
  Limb inline_[kInlineLimbs];
};

}  // namespace ice::bn

// Pitched 2-D image container.
//
// The storage layout mirrors what a CUDA `cudaMallocPitch` allocation looks
// like: each row is padded to an alignment boundary so that row starts are
// aligned for coalesced access. The simulator's memory model depends on this
// pitch to compute addresses exactly like device code would.
#pragma once

#include <algorithm>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ispb {

/// Tag selecting the Image constructor that leaves pixels unwritten.
struct Uninitialized {};

/// std::allocator whose value-less construct default-initializes, so
/// `resize(n)` of a trivial element type allocates without writing. Copies
/// and explicit values construct exactly as std::allocator does.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Row-padded 2-D image over a trivially copyable pixel type.
template <typename T>
class Image {
 public:
  using value_type = T;

  /// Row alignment in elements (mirrors a 256-byte pitch for 4-byte pixels
  /// scaled down; kept small so tiny test images do not balloon).
  static constexpr i32 kRowAlign = 32;

  Image() = default;

  /// Creates a width x height image, zero-initialized.
  Image(i32 width, i32 height) : size_{width, height} {
    ISPB_EXPECTS(width > 0 && height > 0);
    pitch_ = round_up(width, kRowAlign);
    data_.assign(static_cast<std::size_t>(pitch_) * height, T{});
  }

  explicit Image(Size2 size) : Image(size.x, size.y) {}

  /// Same geometry as Image(Size2), but pixels are left indeterminate for a
  /// writer that defines every one of them (a stage output). Padding
  /// columns are still zeroed, so buffer() never exposes unwritten memory
  /// outside the image.
  Image(Size2 size, Uninitialized) : size_(size) {
    ISPB_EXPECTS(size.x > 0 && size.y > 0);
    pitch_ = round_up(size.x, kRowAlign);
    data_.resize(static_cast<std::size_t>(pitch_) * size.y);
    if (pitch_ > size.x) {
      for (i32 y = 0; y < size.y; ++y) {
        T* row = data_.data() + flat(0, y);
        std::fill(row + size.x, row + pitch_, T{});
      }
    }
  }

  [[nodiscard]] Size2 size() const { return size_; }
  [[nodiscard]] i32 width() const { return size_.x; }
  [[nodiscard]] i32 height() const { return size_.y; }
  /// Row pitch in elements (>= width).
  [[nodiscard]] i32 pitch() const { return pitch_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] bool in_bounds(i32 x, i32 y) const {
    return x >= 0 && x < size_.x && y >= 0 && y < size_.y;
  }

  /// Bounds-checked element access.
  [[nodiscard]] T& at(i32 x, i32 y) {
    ISPB_EXPECTS(in_bounds(x, y));
    return data_[flat(x, y)];
  }
  [[nodiscard]] const T& at(i32 x, i32 y) const {
    ISPB_EXPECTS(in_bounds(x, y));
    return data_[flat(x, y)];
  }

  /// Unchecked access for hot loops (callers guarantee bounds).
  [[nodiscard]] T& operator()(i32 x, i32 y) { return data_[flat(x, y)]; }
  [[nodiscard]] const T& operator()(i32 x, i32 y) const {
    return data_[flat(x, y)];
  }

  /// Whole padded buffer, row-major with pitch. The simulator addresses
  /// pixels as `y * pitch + x` over this span.
  [[nodiscard]] std::span<T> buffer() { return data_; }
  [[nodiscard]] std::span<const T> buffer() const { return data_; }

  /// One image row (width elements, not including padding).
  [[nodiscard]] std::span<T> row(i32 y) {
    ISPB_EXPECTS(y >= 0 && y < size_.y);
    return std::span<T>(data_).subspan(flat(0, y), static_cast<std::size_t>(size_.x));
  }
  [[nodiscard]] std::span<const T> row(i32 y) const {
    ISPB_EXPECTS(y >= 0 && y < size_.y);
    return std::span<const T>(data_).subspan(flat(0, y),
                                             static_cast<std::size_t>(size_.x));
  }

  /// Fills every pixel (padding included) with `value`.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Per-pixel conversion to another element type via `fn`.
  template <typename U, typename Fn>
  [[nodiscard]] Image<U> map(Fn&& fn) const {
    Image<U> out(size_.x, size_.y);
    for (i32 y = 0; y < size_.y; ++y) {
      for (i32 x = 0; x < size_.x; ++x) {
        out(x, y) = fn((*this)(x, y));
      }
    }
    return out;
  }

  friend bool operator==(const Image& a, const Image& b) {
    if (a.size_ != b.size_) return false;
    for (i32 y = 0; y < a.size_.y; ++y) {
      for (i32 x = 0; x < a.size_.x; ++x) {
        if (!(a(x, y) == b(x, y))) return false;
      }
    }
    return true;
  }

 private:
  [[nodiscard]] std::size_t flat(i32 x, i32 y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(pitch_) +
           static_cast<std::size_t>(x);
  }

  Size2 size_{};
  i32 pitch_ = 0;
  std::vector<T, DefaultInitAllocator<T>> data_;
};

}  // namespace ispb

/**
 * @file
 * A vector whose first N elements live inside the object.
 *
 * The IR keeps two kinds of short lists per value: an instruction's
 * operands (most have at most two) and a value's uses (most have one).
 * As std::vectors they cost a heap block each; SmallVec stores that
 * many elements inline and only allocates past them.  Element access
 * goes through one pointer, as with std::vector, so readers pay
 * nothing for the inline case.
 *
 * Only for trivially copyable T.  Not copyable or movable: the inline
 * buffer's address is part of the state, and the owners (IR values)
 * are neither.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace conair {

template <typename T, unsigned N>
class SmallVec
{
    static_assert(std::is_trivially_copyable_v<T> && N > 0);

  public:
    SmallVec() = default;
    SmallVec(const SmallVec &) = delete;
    SmallVec &operator=(const SmallVec &) = delete;

    ~SmallVec()
    {
        if (ptr_ != inline_)
            ::operator delete(ptr_);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](size_t i) { return ptr_[i]; }
    const T &operator[](size_t i) const { return ptr_[i]; }
    T &back() { return ptr_[size_ - 1]; }

    T *begin() { return ptr_; }
    T *end() { return ptr_ + size_; }
    const T *begin() const { return ptr_; }
    const T *end() const { return ptr_ + size_; }
    const T *data() const { return ptr_; }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow(2 * cap_);
        ptr_[size_++] = v;
    }

    void
    reserve(size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    /** Removes the element at @p pos, keeping the order of the rest. */
    void
    erase(T *pos)
    {
        std::memmove(pos, pos + 1, (end() - pos - 1) * sizeof(T));
        --size_;
    }

    /** Empties the vector; the capacity stays. */
    void clear() { size_ = 0; }

  private:
    void
    grow(size_t cap)
    {
        T *p = static_cast<T *>(::operator new(cap * sizeof(T)));
        std::memcpy(p, ptr_, size_ * sizeof(T));
        if (ptr_ != inline_)
            ::operator delete(ptr_);
        ptr_ = p;
        cap_ = uint32_t(cap);
    }

    T *ptr_ = inline_;
    uint32_t size_ = 0;
    uint32_t cap_ = N;
    T inline_[N];
};

} // namespace conair

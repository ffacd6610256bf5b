// A read-only std::istream over bytes already in memory (a frame payload, a
// stitched checkpoint image), so loaders parse them where they lie instead of
// copying them into a std::istringstream first.
#pragma once

#include <cstddef>
#include <ios>
#include <istream>
#include <streambuf>

namespace nsc::ipc {

/// Stream buffer over [data, data + size). It implements seekoff/seekpos:
/// without them tellg() returns -1, and core::load_snapshot's check that the
/// stream holds the state a header claims (stream_remaining) would pass every
/// header unchecked.
class ByteStreamBuf : public std::streambuf {
 public:
  ByteStreamBuf(const void* data, std::size_t size) {
    // The get area is never written through: putback only moves the pointer
    // and pbackfail keeps its failing default.
    char* p = const_cast<char*>(static_cast<const char*>(data));
    setg(p, p, p + size);
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if ((which & std::ios_base::in) == 0) return pos_type(off_type(-1));
    const off_type size = egptr() - eback();
    off_type base = 0;
    if (dir == std::ios_base::cur) base = gptr() - eback();
    if (dir == std::ios_base::end) base = size;
    if (off < -base || off > size - base) return pos_type(off_type(-1));
    setg(eback(), eback() + base + off, egptr());
    return pos_type(base + off);
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// std::istream reading [data, data + size); the bytes must outlive it.
class ByteIStream : public std::istream {
 public:
  ByteIStream(const void* data, std::size_t size) : std::istream(nullptr), buf_(data, size) {
    rdbuf(&buf_);  // Also clears the badbit the null buffer set.
  }

  ByteIStream(const ByteIStream&) = delete;
  ByteIStream& operator=(const ByteIStream&) = delete;
  ByteIStream(ByteIStream&&) = delete;
  ByteIStream& operator=(ByteIStream&&) = delete;

 private:
  ByteStreamBuf buf_;
};

}  // namespace nsc::ipc

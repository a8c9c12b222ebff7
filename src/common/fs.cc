#include "common/fs.h"

#include <errno.h>
#include <fcntl.h>
#include <libgen.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/string_util.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crossmine {

namespace {

Status IoStatus(const char* op, const std::string& target, int err) {
  return Status::IoError(
      StrFormat("%s %s: %s", op, target.c_str(), ::strerror(err)));
}

int FireOr(FaultPoint* point) { return point != nullptr ? point->Fire() : 0; }

/// Best-effort fsync of `path`'s parent directory so the rename itself is
/// durable. Failure is ignored: directory fsync is unsupported on some
/// filesystems and the data file is already synced.
void SyncParentDir(const std::string& path) {
  std::string copy = path;
  const char* dir = ::dirname(copy.data());
  int fd = ::open(dir, O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

StatusOr<std::string> ReadFileToString(const std::string& path,
                                       const ReadFaultPoints& faults) {
  int err = FireOr(faults.open);
  int fd = -1;
  if (err == 0) {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) err = errno;
  }
  if (err != 0) return IoStatus("cannot open", path, err);

  std::string contents;
  char chunk[1 << 16];
  for (;;) {
    err = FireOr(faults.read);
    ssize_t n = 0;
    if (err == 0) {
      n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        err = errno;
      }
    }
    if (err != 0) {
      ::close(fd);
      return IoStatus("read", path, err);
    }
    if (n == 0) break;
    contents.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const WriteFaultPoints& faults) {
  std::string tmp =
      StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));

  int err = FireOr(faults.open);
  int fd = -1;
  if (err == 0) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) err = errno;
  }
  if (err != 0) return IoStatus("cannot create", tmp, err);

  auto fail = [&](const char* op, int e) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoStatus(op, tmp, e);
  };

  size_t off = 0;
  while (off < contents.size()) {
    err = FireOr(faults.write);
    ssize_t n = 0;
    if (err == 0) {
      n = ::write(fd, contents.data() + off, contents.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        err = errno;
      }
    }
    if (err != 0) return fail("write", err);
    off += static_cast<size_t>(n);
  }

  err = FireOr(faults.fsync);
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  if (err != 0) return fail("fsync", err);

  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return IoStatus("close", tmp, errno);
  }

  err = FireOr(faults.rename);
  if (err == 0 && ::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    return IoStatus("rename", path, err);
  }
  SyncParentDir(path);
  return Status::OK();
}

namespace {

// Slicing-by-eight: eight derived tables fold eight bytes per iteration.
// Table 0 is the classic CRC-32 table, so the byte loop computes the
// identical polynomial. `crc` is the raw register (pre- and post-inversion
// are the caller's).
uint32_t Crc32Slicing(const unsigned char* p, size_t n, uint32_t crc) {
  static const auto* tables = [] {
    static uint32_t t[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return &t;
  }();
  const uint32_t(*t)[256] = *tables;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo, hi;
    ::memcpy(&lo, p, 4);
    ::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CROSSMINE_HAVE_CRC32_CLMUL 1

// Functions that may use PCLMULQDQ and SSE4.1; called only after
// `CpuHasClmul` says the CPU has both.
#define CROSSMINE_CLMUL __attribute__((target("pclmul,sse4.1")))

CROSSMINE_CLMUL inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds lane `x` forward by the distance its constants `k` encode and adds
// (xors) it into `data`.
CROSSMINE_CLMUL inline __m128i Fold128(__m128i x, __m128i k, __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009) with the bit-reflected
// constants of the CRC-32 polynomial: four 128-bit lanes fold 64 bytes per
// step (k1, k2), collapse into one lane (k3, k4), which folds any further
// 16-byte blocks, then reduce 128 -> 64 bits (k5) and Barrett-reduce to the
// 32-bit register (P', mu). Reads exactly `n` bytes; needs n >= 64 and n a
// multiple of 16. `crc` is the raw register, as for `Crc32Slicing`.
CROSSMINE_CLMUL uint32_t Crc32Clmul(const unsigned char* p, size_t n,
                                    uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

bool CpuHasClmul() {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}
#endif

}  // namespace

uint32_t Crc32(std::string_view data) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
#ifdef CROSSMINE_HAVE_CRC32_CLMUL
  // The folding kernel takes whole 16-byte blocks; the slicing loop
  // finishes the tail (and everything on CPUs without PCLMULQDQ).
  if (n >= 64 && CpuHasClmul()) {
    const size_t blocks = n & ~size_t{15};
    crc = Crc32Clmul(p, blocks, crc);
    p += blocks;
    n -= blocks;
  }
#endif
  return Crc32Slicing(p, n, crc) ^ 0xFFFFFFFFu;
}

}  // namespace crossmine

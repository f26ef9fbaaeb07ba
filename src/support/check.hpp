// Lightweight always-on invariant checking.
//
// CSD_CHECK is used for conditions that must hold even in release builds
// (protocol invariants, construction well-formedness); CSD_DCHECK compiles
// out in NDEBUG builds and is used on hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace csd {

/// Thrown when an internal invariant is violated.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
/// `file` (a __FILE__) relative to the source root, so a message reads the
/// same from every checkout and build tree. This header lives at
/// src/support/check.hpp below the root, which gives the root's prefix;
/// a path outside the root passes through whole.
consteval const char* source_relative(const char* file) {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view below_root = "src/support/check.hpp";
  if (!self.ends_with(below_root)) return file;
  const std::string_view root = self.substr(0, self.size() - below_root.size());
  return std::string_view(file).starts_with(root) ? file + root.size() : file;
}

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str());
}
}  // namespace detail

}  // namespace csd

/// The calling file's path below the source root, fixed at compile time.
#define CSD_SOURCE_FILE (::csd::detail::source_relative(__FILE__))

#define CSD_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr))                                                     \
      ::csd::detail::check_failed(#expr, CSD_SOURCE_FILE, __LINE__, ""); \
  } while (false)

#define CSD_CHECK_MSG(expr, msg)                                     \
  do {                                                               \
    if (!(expr)) {                                                   \
      std::ostringstream csd_check_os_;                              \
      csd_check_os_ << msg;                                          \
      ::csd::detail::check_failed(#expr, CSD_SOURCE_FILE, __LINE__,  \
                                  csd_check_os_.str());              \
    }                                                                \
  } while (false)

#ifdef NDEBUG
#define CSD_DCHECK(expr) \
  do {                   \
  } while (false)
#else
#define CSD_DCHECK(expr) CSD_CHECK(expr)
#endif

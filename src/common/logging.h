// Minimal warning log.
//
// The simulator is single-threaded by design (discrete events), so the
// logger is deliberately simple: one level, an ostream sink, and a macro
// that formats into one line. Only warnings are written: a mined block its
// chain rejects, or a deploy or call a wallet cannot build.

#ifndef AC3_COMMON_LOGGING_H_
#define AC3_COMMON_LOGGING_H_

#include <sstream>

namespace ac3::internal {

/// Accumulates one warning line and writes it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(const char* file, int line);
  ~LogMessage();
  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace ac3::internal

/// Writes "[WARN] file:line message" to stderr.
#define AC3_WARN ::ac3::internal::LogMessage(__FILE__, __LINE__).stream()

#endif  // AC3_COMMON_LOGGING_H_

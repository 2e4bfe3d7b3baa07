// Minimal leveled logger.
//
// The simulator is single-threaded by design (discrete events), so the
// logger is deliberately simple: a global level (kWarn by default), ostream
// sink, and a macro that formats lazily. Only warnings are written: a mined
// block its chain rejects, or a deploy or call a wallet cannot build.

#ifndef AC3_COMMON_LOGGING_H_
#define AC3_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace ac3 {

enum class LogLevel : int {
  kWarn = 0,
  kError = 1,
  kOff = 2,
};

/// Global log configuration.
class Logger {
 public:
  static LogLevel level();
  static void set_level(LogLevel level);
  /// Emits one formatted line to stderr.
  static void Write(LogLevel level, const std::string& message);
  static const char* LevelName(LogLevel level);
};

namespace internal {
/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

#define AC3_LOG(severity)                                    \
  if (::ac3::LogLevel::severity < ::ac3::Logger::level()) {  \
  } else                                                     \
    ::ac3::internal::LogMessage(::ac3::LogLevel::severity, __FILE__, \
                                __LINE__)                    \
        .stream()

}  // namespace ac3

#endif  // AC3_COMMON_LOGGING_H_

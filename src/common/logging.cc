#include "src/common/logging.h"

#include <cstring>
#include <iostream>

namespace ac3 {

namespace {
LogLevel g_level = LogLevel::kWarn;
}  // namespace

LogLevel Logger::level() { return g_level; }

void Logger::set_level(LogLevel level) { g_level = level; }

const char* Logger::LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

void Logger::Write(LogLevel level, const std::string& message) {
  if (level < g_level) return;
  std::cerr << "[" << LevelName(level) << "] " << message << "\n";
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << (base ? base + 1 : file) << ":" << line << " ";
}

LogMessage::~LogMessage() { Logger::Write(level_, stream_.str()); }

}  // namespace internal
}  // namespace ac3

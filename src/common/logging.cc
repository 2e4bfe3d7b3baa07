#include "src/common/logging.h"

#include <cstring>
#include <iostream>

namespace ac3::internal {

LogMessage::LogMessage(const char* file, int line) {
  const char* base = std::strrchr(file, '/');
  stream_ << (base ? base + 1 : file) << ":" << line << " ";
}

LogMessage::~LogMessage() { std::cerr << "[WARN] " << stream_.str() << "\n"; }

}  // namespace ac3::internal

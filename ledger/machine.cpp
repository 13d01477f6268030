#include "machine.h"

#include <cstdio>
#include <cstring>
#include <thread>

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_TRACE_COMPILED_IN
#define LEDGER_TRACE_COMPILED_IN 1
#endif

namespace ledger {
namespace {

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

unsigned host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string machine_json(unsigned workers) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"eandroid_trace_compiled_in\": %s, "
                "\"workers\": %u}",
                host_cores(), json_escape(cpu_model()).c_str(),
                json_escape(compiler).c_str(), LEDGER_BUILD_TYPE,
                LEDGER_TRACE_COMPILED_IN ? "true" : "false", workers);
  return buf;
}

}  // namespace ledger

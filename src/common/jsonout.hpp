#pragma once
/// \file jsonout.hpp
/// Tiny helpers for the hand-rolled JSON documents the benches, the sweep
/// driver, and the training grid emit.  One copy so the emitters agree on
/// escaping: registry ids are safe by construction, but agent paths and
/// drl:<path> policy specs are user-controlled and must not be able to
/// break the document.
///
/// Doc is the shared top-level builder: every machine-readable document
/// the tools and bench_kernels emit opens with the same envelope (the
/// bench tag, the schema_version, and the build-provenance "meta" object)
/// and closes with the safety verdict, so scripts/check_bench_json.py can
/// hold every producer to one contract.

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "common/buildinfo.hpp"

namespace oic::jsonout {

/// Version of the shared document envelope.  Bump when the envelope
/// itself (not a producer's payload) changes shape.
inline constexpr int kSchemaVersion = 1;

/// Escape a string for embedding between JSON quotes: backslash, quote,
/// and control characters (the only characters JSON forbids raw).
inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c) & 0xff);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Append a quoted, escaped JSON string.
inline void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += escape(s);
  out += '"';
}

/// Append ["a", "b", ...] with escaping.
inline void append_string_array(std::string& out, const std::vector<std::string>& items) {
  out += "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    append_string(out, items[i]);
  }
  out += "]";
}

/// printf-append for the fixed-shape numeric parts of a document.  The
/// buffer bounds formatted numbers/booleans only -- never pass
/// variable-length strings through %s here; use append_string instead.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
inline void append_format(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Top-level document builder (see file comment).  Construct with the
/// bench tag, append producer sections to body() (each section ends with
/// ",\n"), then finish() closes the document with the shared
/// "safety_violations" verdict:
///
///   Doc doc("oic_eval");
///   doc.body() += "  \"config\": {...},\n";
///   return std::move(doc).finish(result.safety_violations);
class Doc {
 public:
  explicit Doc(const std::string& bench_tag) {
    out_ += "{\n";
    out_ += "  \"bench\": ";
    append_string(out_, bench_tag);
    out_ += ",\n";
    append_format(out_, "  \"schema_version\": %d,\n", kSchemaVersion);
    out_ += "  \"meta\": " + build_meta_json() + ",\n";
  }

  /// The document under construction; append sections here.
  std::string& body() { return out_; }

  /// Close with the shared safety verdict and return the document.
  std::string finish(bool safety_violations) && {
    append_format(out_, "  \"safety_violations\": %s\n",
                  safety_violations ? "true" : "false");
    out_ += "}\n";
    return std::move(out_);
  }

 private:
  std::string out_;
};

}  // namespace oic::jsonout

#pragma once
/// \file textio.hpp
/// The one strict reader behind every text format the library reads back:
/// `oic-cert v1` (cert/io, cert/certificate), `oic-agent v1` / `oic-mlp v1`
/// (rl/serialize), `oic-mc-checkpoint v2` (mc/campaign) and `oic-serve v1`
/// (serve/api), plus the number tokens of the flag and spec grammars.
///
/// Token rules, the same in every format:
///   u64     1-20 ASCII digits, no sign, value in [0, 2^64-1];
///   finite  a decimal double (std::from_chars general format, an optional
///           leading '+'); nan, inf, overflow, underflow, hex and partly
///           consumed tokens reject;
///   token   a whitespace-free word, empty = missing.
/// Tokens are separated by whitespace (' ', '\t', '\n', '\r', '\v', '\f');
/// line breaks matter only where a format asks (at_line_end).  Every error
/// is a NumericalError reading `<format>:<line>:<column>: <message>`.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>

namespace oic::textio {

/// Strict u64 token (see the file comment); false leaves `out` untouched.
inline bool parse_u64(std::string_view tok, std::uint64_t& out) {
  if (tok.empty() || tok.size() > 20) return false;
  const char* end = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && p == end;
}

/// Strict finite-double token (see the file comment).
inline bool parse_finite(std::string_view tok, double& out) {
  if (!tok.empty() && tok.front() == '+') {
    tok.remove_prefix(1);
    if (!tok.empty() && tok.front() == '-') return false;
  }
  const char* end = tok.data() + tok.size();
  double v = 0.0;
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || p != end || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// Whole stream as one string (the istream loaders parse from memory).
std::string slurp(std::istream& is);

/// Cursor over the characters [begin, end) of one document (or one line of
/// it).  Tokens are views into that range, so the range must outlive them.
class Reader {
 public:
  /// `format` names the grammar in errors; `first_line` is the line number
  /// of `text`'s first character.
  Reader(const char* format, std::string_view text, std::size_t first_line = 1)
      : format_(format),
        begin_(text.data()),
        p_(text.data()),
        end_(text.data() + text.size()),
        tok_(text.data()),
        first_line_(first_line) {}

  /// Next token, crossing line breaks; empty at the end of the range.
  std::string_view next() {
    while (p_ != end_ && is_space(*p_)) ++p_;
    tok_ = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return std::string_view(tok_, static_cast<std::size_t>(p_ - tok_));
  }

  /// The next token must be `keyword`.
  void expect(std::string_view keyword) {
    const std::string_view tok = next();
    if (tok != keyword) fail_expected(keyword, tok);
  }

  /// `<name> <version>` magic line.
  void expect_magic(std::string_view name, std::string_view version);

  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    const std::string_view tok = next();
    if (!parse_u64(tok, v)) fail_token(what, tok);
    return v;
  }

  /// u64 no larger than `cap`; the cap fires before any allocation.
  std::size_t count(const char* what, std::size_t cap) {
    const std::uint64_t n = u64(what);
    if (n > cap) fail_cap(what, n, cap);
    return static_cast<std::size_t>(n);
  }

  double finite(const char* what) {
    double v = 0.0;
    const std::string_view tok = next();
    if (!parse_finite(tok, v)) fail_token(what, tok);
    return v;
  }

  /// Non-empty token of at most `max_len` characters.
  std::string_view token(const char* what, std::size_t max_len = std::string_view::npos) {
    const std::string_view tok = next();
    if (tok.empty() || tok.size() > max_len) fail_token(what, tok);
    return tok;
  }

  /// True when only blanks remain before the next line break or the end.
  bool at_line_end() {
    while (p_ != end_ && *p_ != '\n' && is_space(*p_)) ++p_;
    tok_ = p_;
    return p_ == end_ || *p_ == '\n';
  }

  /// Rejects trailing tokens on the current line.
  void expect_line_end(const char* what) {
    if (!at_line_end()) fail_trailing(what);
  }

  /// The `end` sentinel that closes every document: without it a
  /// well-formed prefix of the document would parse.
  void expect_end() {
    if (next() != "end") fail("truncated document (missing 'end' sentinel)");
  }

  /// Rest of the current line verbatim (one separating blank skipped), for
  /// free-text payloads.
  std::string_view rest_of_line();

  /// Throws NumericalError `<format>:<line>:<column>: <message>`, located at
  /// the start of the last token read.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }
  [[noreturn]] void fail_expected(std::string_view keyword, std::string_view got) const;
  [[noreturn]] void fail_token(const char* what, std::string_view tok) const;
  [[noreturn]] void fail_cap(const char* what, std::uint64_t n, std::size_t cap) const;
  [[noreturn]] void fail_trailing(const char* what);

  const char* format_;
  const char* begin_;
  const char* p_;
  const char* end_;
  const char* tok_;  ///< start of the last token (error location)
  std::size_t first_line_;
};

}  // namespace oic::textio

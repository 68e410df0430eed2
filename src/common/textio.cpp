#include "common/textio.hpp"

#include <algorithm>
#include <istream>

#include "common/error.hpp"

namespace oic::textio {

namespace {

/// A token as quoted in a diagnostic: long tokens are cut, so a hostile
/// input cannot blow up the message.
std::string quoted(std::string_view tok) {
  constexpr std::size_t kShown = 40;
  std::string out = "'";
  out.append(tok.substr(0, kShown));
  if (tok.size() > kShown) out += "...";
  return out + "'";
}

}  // namespace

std::string slurp(std::istream& is) {
  std::string out;
  char buf[1 << 16];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    out.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  return out;
}

void Reader::expect_magic(std::string_view name, std::string_view version) {
  const std::string_view got_name = next();
  const char* at = tok_;
  if (got_name != name || next() != version) {
    tok_ = at;
    fail("bad magic/version header (expected '" + std::string(name) + " " +
         std::string(version) + "')");
  }
}

std::string_view Reader::rest_of_line() {
  if (p_ != end_ && *p_ != '\n' && is_space(*p_)) ++p_;
  tok_ = p_;
  while (p_ != end_ && *p_ != '\n') ++p_;
  return std::string_view(tok_, static_cast<std::size_t>(p_ - tok_));
}

void Reader::fail(const std::string& message) const {
  const std::size_t line =
      first_line_ + static_cast<std::size_t>(std::count(begin_, tok_, '\n'));
  const char* line_start = tok_;
  while (line_start != begin_ && line_start[-1] != '\n') --line_start;
  throw NumericalError(std::string(format_) + ":" + std::to_string(line) + ":" +
                       std::to_string(tok_ - line_start + 1) + ": " + message);
}

void Reader::fail_expected(std::string_view keyword, std::string_view got) const {
  fail("expected '" + std::string(keyword) + "', got " + quoted(got));
}

void Reader::fail_token(const char* what, std::string_view tok) const {
  if (tok.empty()) fail(std::string("missing ") + what + " (truncated?)");
  fail(std::string("malformed ") + what + " " + quoted(tok));
}

void Reader::fail_cap(const char* what, std::uint64_t n, std::size_t cap) const {
  fail(std::string(what) + " " + std::to_string(n) + " exceeds the cap of " +
       std::to_string(cap));
}

void Reader::fail_trailing(const char* what) {
  const std::string_view extra = next();
  fail(std::string("trailing token after ") + what + " " + quoted(extra));
}

}  // namespace oic::textio

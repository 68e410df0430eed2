#include "serve/api.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/error.hpp"
#include "common/textio.hpp"

namespace oic::serve {

namespace {

/// Line supplier the grammar readers run against.  Two implementations:
/// one wraps std::getline for the one-shot entry points (any istream,
/// never reads past what it returns), one block-buffers for the stateful
/// Reader classes on long-lived connection streams.
class LineSource {
 public:
  virtual ~LineSource() = default;
  /// Next line without its terminator; false on end of stream.
  bool next(std::string& line) {
    if (!read(line)) return false;
    ++lines_;
    return true;
  }
  /// Lines returned so far: the number of the last one (error locations).
  std::size_t lines() const { return lines_; }

 private:
  virtual bool read(std::string& line) = 0;
  std::size_t lines_ = 0;
};

class IstreamLines final : public LineSource {
 public:
  explicit IstreamLines(std::istream& is) : is_(is) {}

 private:
  bool read(std::string& line) override {
    return static_cast<bool>(std::getline(is_, line));
  }

  std::istream& is_;
};

/// Block-buffered line splitter: refills from the streambuf with sgetn
/// (blocking only for the first byte, then draining whatever in_avail
/// reports) and cuts lines with memchr.  May hold bytes beyond the last
/// returned line, which is why only the persistent Reader classes use it.
class BufferedLines final : public LineSource {
 public:
  explicit BufferedLines(std::istream& is) : is_(is) {}

 private:
  bool read(std::string& line) override {
    for (;;) {
      const char* base = buf_.data();
      const void* nl = std::memchr(base + pos_, '\n', buf_.size() - pos_);
      if (nl != nullptr) {
        const std::size_t at =
            static_cast<std::size_t>(static_cast<const char*>(nl) - base);
        line.assign(base + pos_, at - pos_);
        pos_ = at + 1;
        compact();
        return true;
      }
      if (!refill()) {
        if (pos_ < buf_.size()) {
          // Final line without a trailing newline, same as std::getline.
          line.assign(buf_.data() + pos_, buf_.size() - pos_);
          pos_ = buf_.size();
          compact();
          return true;
        }
        return false;
      }
    }
  }

  void compact() {
    if (pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ > (std::size_t{1} << 16)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  bool refill() {
    using traits = std::char_traits<char>;
    std::streambuf* sb = is_.rdbuf();
    const traits::int_type c = sb->sbumpc();  // blocks for the next byte
    if (traits::eq_int_type(c, traits::eof())) return false;
    buf_.push_back(traits::to_char_type(c));
    std::streamsize avail = sb->in_avail();
    while (avail > 0) {
      const std::size_t old = buf_.size();
      buf_.resize(old + static_cast<std::size_t>(avail));
      const std::streamsize got = sb->sgetn(buf_.data() + old, avail);
      buf_.resize(old + static_cast<std::size_t>(std::max<std::streamsize>(got, 0)));
      if (got <= 0) break;
      // Enough buffered to make progress; stop once a full line arrived.
      if (std::memchr(buf_.data() + old, '\n', static_cast<std::size_t>(got)) !=
          nullptr) {
        break;
      }
      avail = sb->in_avail();
    }
    return true;
  }

  std::istream& is_;
  std::string buf_;
  std::size_t pos_ = 0;
};

constexpr const char* kFormat = "oic-serve";

/// Next line of the document as a Reader over the caller-owned buffer
/// (reused across lines); truncation (EOF mid-batch) is malformed.  The
/// grammar is parsed at serve throughput (every decision crosses it twice
/// on a socket transport), so tokens are views over the line buffer and
/// numbers go through std::from_chars.
textio::Reader next_line(LineSource& src, std::string& line, const char* what) {
  if (!src.next(line)) {
    textio::Reader(kFormat, {}, src.lines() + 1)
        .fail(std::string("truncated document (expected ") + what + ")");
  }
  return textio::Reader(kFormat, line, src.lines());
}

/// `session <sid>`, shared by every session-addressed line.
std::uint64_t read_session(textio::Reader& in) {
  in.expect("session");
  return in.u64("session id");
}

/// `<dim> <v...>` vector payload (the tag keyword was already consumed).
void parse_vector_body(textio::Reader& in, linalg::Vector& out) {
  const std::size_t dim = in.count("vector dimension", kMaxDim);
  if (dim < 1) in.fail("vector dimension must be >= 1");
  out.data().assign(dim, 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = in.finite("vector entry");
}

/// Read the batch header shared by both directions; returns the count.
std::uint64_t read_header(LineSource& src, std::string& line,
                          const char* count_keyword, bool& eof) {
  // Skip blank separator lines between batch documents; clean EOF before a
  // magic line is the normal end of stream.
  eof = false;
  do {
    if (!src.next(line)) {
      eof = true;
      return 0;
    }
  } while (line.empty());
  if (line != kMagic) {
    textio::Reader(kFormat, line, src.lines())
        .fail("bad magic/version line (expected '" + std::string(kMagic) + "')");
  }
  textio::Reader in = next_line(src, line, count_keyword);
  in.expect(count_keyword);
  const std::uint64_t n = in.count("batch count", kMaxBatchRequests);
  in.expect_line_end("batch count");
  return n;
}

/// The sentinel line is exactly `end` (no blanks around it).
void read_end_sentinel(LineSource& src, std::string& line) {
  textio::Reader in = next_line(src, line, "'end' sentinel");
  if (line != "end") in.fail("expected the 'end' sentinel line");
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, p);
}

/// Shortest round-trip spelling (std::to_chars): reads back bit-exactly,
/// including subnormals, at a fraction of the snprintf("%.17g") cost.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.push_back(' ');
  out.append(buf, p);
}

void append_vector(std::string& out, const char* tag, const linalg::Vector& v) {
  OIC_REQUIRE(v.size() >= 1 && v.size() <= kMaxDim,
              std::string("oic-serve: vector dimension out of range writing ") + tag);
  out += ' ';
  out += tag;
  out += ' ';
  append_u64(out, v.size());
  for (const double x : v) append_double(out, x);
}

/// Writers enforce the same single-token rule readers rely on, so a spec
/// with embedded whitespace fails at save time instead of corrupting the
/// line grammar.
void require_token(const std::string& s, const char* what) {
  OIC_REQUIRE(!s.empty() && s.size() <= kMaxTokenLength &&
                  s.find_first_of(" \t\r\n") == std::string::npos,
              std::string("oic-serve: ") + what +
                  " must be a non-empty single token without whitespace");
}

bool read_request_lines(LineSource& src, std::vector<Request>& out) {
  out.clear();
  bool eof = false;
  std::string line;
  const std::uint64_t n = read_header(src, line, "requests", eof);
  if (eof) return false;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    textio::Reader in = next_line(src, line, "request line");
    const std::string_view verb = in.next();
    Request r;
    if (verb == "open") {
      r.kind = Request::Kind::kOpen;
      r.ref = in.u64("request ref");
      r.session = read_session(in);
      in.expect("plant");
      r.plant = in.token("plant id", kMaxTokenLength);
      in.expect("policy");
      r.policy = in.token("policy spec", kMaxTokenLength);
      in.expect_line_end("open request");
    } else if (verb == "decide") {
      r.kind = Request::Kind::kDecide;
      r.ref = in.u64("request ref");
      r.session = read_session(in);
      // Peek the next tag: `u` only on subsequent decides.
      const std::string_view tag = in.next();
      if (tag == "u") {
        parse_vector_body(in, r.u);
        r.has_u = true;
        in.expect("x");
        parse_vector_body(in, r.x);
      } else if (tag == "x") {
        parse_vector_body(in, r.x);
      } else {
        in.fail("decide request expected 'u' or 'x', got '" + std::string(tag) + "'");
      }
      in.expect_line_end("decide request");
    } else if (verb == "close") {
      r.kind = Request::Kind::kClose;
      r.ref = in.u64("request ref");
      r.session = read_session(in);
      in.expect_line_end("close request");
    } else if (verb == "reload") {
      r.kind = Request::Kind::kReload;
      r.ref = in.u64("request ref");
      in.expect_line_end("reload request");
    } else {
      in.fail("unknown request verb '" + std::string(verb) + "'");
    }
    out.push_back(std::move(r));
  }
  read_end_sentinel(src, line);
  return true;
}

}  // namespace

bool read_request_batch(std::istream& is, std::vector<Request>& out) {
  IstreamLines src(is);
  return read_request_lines(src, out);
}

void write_request_batch(const std::vector<Request>& batch, std::ostream& os) {
  OIC_REQUIRE(batch.size() <= kMaxBatchRequests,
              "oic-serve: batch exceeds the request cap");
  std::string out;
  out.reserve(64 + batch.size() * 96);
  out += kMagic;
  out += "\nrequests ";
  append_u64(out, batch.size());
  out += '\n';
  for (const Request& r : batch) {
    switch (r.kind) {
      case Request::Kind::kOpen:
        require_token(r.plant, "plant id");
        require_token(r.policy, "policy spec");
        out += "open ";
        append_u64(out, r.ref);
        out += " session ";
        append_u64(out, r.session);
        out += " plant ";
        out += r.plant;
        out += " policy ";
        out += r.policy;
        break;
      case Request::Kind::kDecide:
        out += "decide ";
        append_u64(out, r.ref);
        out += " session ";
        append_u64(out, r.session);
        if (r.has_u) append_vector(out, "u", r.u);
        append_vector(out, "x", r.x);
        break;
      case Request::Kind::kClose:
        out += "close ";
        append_u64(out, r.ref);
        out += " session ";
        append_u64(out, r.session);
        break;
      case Request::Kind::kReload:
        out += "reload ";
        append_u64(out, r.ref);
        break;
    }
    out += '\n';
  }
  out += "end\n";
  os << out;
  OIC_REQUIRE(os.good(), "oic-serve: request write failed");
}

namespace {

bool read_response_lines(LineSource& src, std::vector<Response>& out) {
  out.clear();
  bool eof = false;
  std::string line;
  const std::uint64_t n = read_header(src, line, "responses", eof);
  if (eof) return false;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    textio::Reader in = next_line(src, line, "response line");
    const std::string_view verb = in.next();
    Response r;
    if (verb == "opened") {
      r.kind = Response::Kind::kOpened;
      r.ref = in.u64("response ref");
      r.session = read_session(in);
      in.expect_line_end("opened response");
    } else if (verb == "decision") {
      r.kind = Response::Kind::kDecision;
      r.ref = in.u64("response ref");
      r.session = read_session(in);
      in.expect("z");
      const std::uint64_t z = in.u64("decision z");
      in.expect("forced");
      const std::uint64_t forced = in.u64("decision forced");
      if (z > 1 || forced > 1) in.fail("decision flags must be 0 or 1");
      r.z = static_cast<int>(z);
      r.forced = forced == 1;
      in.expect_line_end("decision response");
    } else if (verb == "closed") {
      r.kind = Response::Kind::kClosed;
      r.ref = in.u64("response ref");
      r.session = read_session(in);
      in.expect_line_end("closed response");
    } else if (verb == "reloaded") {
      r.kind = Response::Kind::kReloaded;
      r.ref = in.u64("response ref");
      in.expect("certs");
      r.certs = in.u64("reload cert count");
      in.expect("agents");
      r.agents = in.u64("reload agent count");
      in.expect_line_end("reloaded response");
    } else if (verb == "error") {
      r.kind = Response::Kind::kError;
      r.ref = in.u64("response ref");
      in.expect("message");
      r.error = std::string(in.rest_of_line());
    } else {
      in.fail("unknown response verb '" + std::string(verb) + "'");
    }
    out.push_back(std::move(r));
  }
  read_end_sentinel(src, line);
  return true;
}

}  // namespace

bool read_response_batch(std::istream& is, std::vector<Response>& out) {
  IstreamLines src(is);
  return read_response_lines(src, out);
}

struct RequestReader::Impl {
  BufferedLines lines;
  explicit Impl(std::istream& is) : lines(is) {}
};

RequestReader::RequestReader(std::istream& is)
    : impl_(std::make_unique<Impl>(is)) {}
RequestReader::~RequestReader() = default;

bool RequestReader::read(std::vector<Request>& out) {
  return read_request_lines(impl_->lines, out);
}

struct ResponseReader::Impl {
  BufferedLines lines;
  explicit Impl(std::istream& is) : lines(is) {}
};

ResponseReader::ResponseReader(std::istream& is)
    : impl_(std::make_unique<Impl>(is)) {}
ResponseReader::~ResponseReader() = default;

bool ResponseReader::read(std::vector<Response>& out) {
  return read_response_lines(impl_->lines, out);
}

void write_response_batch(const std::vector<Response>& batch, std::ostream& os) {
  std::string out;
  out.reserve(64 + batch.size() * 48);
  out += kMagic;
  out += "\nresponses ";
  append_u64(out, batch.size());
  out += '\n';
  for (const Response& r : batch) {
    switch (r.kind) {
      case Response::Kind::kOpened:
        out += "opened ";
        append_u64(out, r.ref);
        out += " session ";
        append_u64(out, r.session);
        break;
      case Response::Kind::kDecision:
        out += "decision ";
        append_u64(out, r.ref);
        out += " session ";
        append_u64(out, r.session);
        out += " z ";
        append_u64(out, static_cast<std::uint64_t>(r.z));
        out += " forced ";
        out += r.forced ? '1' : '0';
        break;
      case Response::Kind::kClosed:
        out += "closed ";
        append_u64(out, r.ref);
        out += " session ";
        append_u64(out, r.session);
        break;
      case Response::Kind::kReloaded:
        out += "reloaded ";
        append_u64(out, r.ref);
        out += " certs ";
        append_u64(out, r.certs);
        out += " agents ";
        append_u64(out, r.agents);
        break;
      case Response::Kind::kError: {
        // The grammar is line-framed: a diagnostic with embedded newlines
        // must not be able to forge extra response lines.
        std::string text = r.error;
        for (char& c : text) {
          if (c == '\n' || c == '\r') c = ' ';
        }
        out += "error ";
        append_u64(out, r.ref);
        out += " message ";
        out += text;
        break;
      }
    }
    out += '\n';
  }
  out += "end\n";
  os << out;
  OIC_REQUIRE(os.good(), "oic-serve: response write failed");
}

}  // namespace oic::serve

#pragma once
/// \file api.hpp
/// The `oic-serve v1` request/response surface: versioned plain structs and
/// the text-framed wire grammar the server, oic_serve, the socket client,
/// and the perfbench `serve` client all share.
///
/// Framing follows the cert/agent formats (line-oriented, versioned magic,
/// explicit `end` sentinel so truncation is detectable):
///
///   oic-serve v1
///   requests <n>
///   open <ref> session <sid> plant <id> policy <spec>
///   decide <ref> session <sid> x <nx> <v...>
///   decide <ref> session <sid> u <nu> <v...> x <nx> <v...>
///   close <ref> session <sid>
///   reload <ref>
///   end
///
///   oic-serve v1
///   responses <n>
///   opened <ref> session <sid>
///   decision <ref> session <sid> z <0|1> forced <0|1>
///   closed <ref> session <sid>
///   reloaded <ref> certs <n> agents <m>
///   error <ref> message <text...>
///   end
///
/// `ref` is a client-chosen correlation id echoed verbatim; `sid` is the
/// CLIENT-assigned session id (so a recorded request stream replays through
/// a fresh server -- tests/golden/serve_smoke.reqs is such a capture; a
/// client fleet partitions the sid space among its connections).  The
/// first decide of a session carries only the measured state x; every
/// subsequent decide also carries the input u actually actuated since the
/// previous decision, which is what lets the server reconstruct the
/// realized disturbance exactly like the per-session framework.  Plant ids
/// and policy specs are single whitespace-free tokens.
///
/// Readers are strict (common/textio's token rules: `ref`, `sid` and every
/// count are u64 over the full range, numbers finite decimals): unknown
/// verbs, non-finite or malformed numbers, oversized counts, missing
/// fields, trailing tokens, and truncation all raise NumericalError
/// located as `oic-serve:<line>:<column>`.  A clean EOF before a magic
/// line is the normal end-of-stream and not an error.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "linalg/vector.hpp"

namespace oic::serve {

/// Wire format magic + version line.
inline constexpr const char* kMagic = "oic-serve v1";

/// Hard caps the readers enforce before allocating anything: batch sizes
/// and vector dimensions far beyond any real deployment are rejected as
/// malformed rather than honoured with a giant reserve().
inline constexpr std::uint64_t kMaxBatchRequests = 1u << 20;
inline constexpr std::uint64_t kMaxDim = 64;
inline constexpr std::size_t kMaxTokenLength = 256;

/// One client request (versioned plain struct; see the file grammar).
struct Request {
  enum class Kind { kOpen, kDecide, kClose, kReload };
  Kind kind = Kind::kDecide;
  std::uint64_t ref = 0;      ///< client correlation id, echoed in the response
  std::uint64_t session = 0;  ///< client-assigned session id (unused by reload)
  std::string plant;          ///< open: registry plant id
  std::string policy;         ///< open: eval::make_policy spec (one token)
  bool has_u = false;         ///< decide: carries the previously actuated input
  linalg::Vector u;           ///< decide: input actuated since the last decision
  linalg::Vector x;           ///< decide: measured state
};

/// One server response (1:1 with the submitted requests, same order).
struct Response {
  enum class Kind { kOpened, kDecision, kClosed, kReloaded, kError };
  Kind kind = Kind::kError;
  std::uint64_t ref = 0;
  std::uint64_t session = 0;
  int z = 1;             ///< decision: the monitor/policy skipping choice
  bool forced = false;   ///< decision: monitor overrode the policy (x outside X')
  std::uint64_t certs = 0;   ///< reloaded: certificates swapped
  std::uint64_t agents = 0;  ///< reloaded: agents swapped
  std::string error;         ///< error: diagnostic (single line)
};

/// Read one request batch.  Returns false on clean EOF before a magic line
/// (end of stream); throws NumericalError on any malformed document.
bool read_request_batch(std::istream& is, std::vector<Request>& out);

/// Write one request batch (round-trips through read_request_batch).
/// Throws PreconditionError when a request violates the grammar caps
/// (oversized batch/dimension, plant/policy not a single token).
void write_request_batch(const std::vector<Request>& batch, std::ostream& os);

/// Read one response batch; same EOF/throw contract as read_request_batch.
bool read_response_batch(std::istream& is, std::vector<Response>& out);

/// Write one response batch.  Error texts are sanitized to a single line.
void write_response_batch(const std::vector<Response>& batch, std::ostream& os);

/// Stateful batch reader over a stream the caller owns for the stream's
/// whole lifetime.  Parses the identical grammar with the identical
/// strictness as read_request_batch, but pulls bytes from the underlying
/// streambuf in blocks (blocking only for the first byte of a refill) and
/// splits lines itself instead of paying std::getline's char-at-a-time
/// walk per line -- on the socket transport the per-line read is
/// otherwise a measurable slice of every decision.
///
/// Because a reader may buffer bytes beyond the batch it just returned,
/// exactly one reader must consume a given stream: mixing RequestReader
/// calls with direct reads of the same stream loses data.
class RequestReader {
 public:
  explicit RequestReader(std::istream& is);
  ~RequestReader();
  /// Same contract as read_request_batch: false on clean EOF before a
  /// magic line, NumericalError on malformed input.
  bool read(std::vector<Request>& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Response-direction twin of RequestReader (same ownership rule).
class ResponseReader {
 public:
  explicit ResponseReader(std::istream& is);
  ~ResponseReader();
  bool read(std::vector<Response>& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace oic::serve
